package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mtreescale/internal/cluster"
	"mtreescale/internal/experiments"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
)

// Daemon workload shape: an ensemble grid sharded over two workers, then a
// closed loop of two clients reading every experiment at the quick profile.
const (
	daemonClients  = 2
	daemonShards   = 16
	daemonRequests = 4096
)

// daemonGrid is the cluster phase's grid: ts1000, 256 networks × 16
// sources × 32 receiver sets, as `mtctl -kind ensemble` builds it.
func daemonGrid(seed int64) cluster.Grid {
	return cluster.Grid{
		Kind: cluster.KindEnsemble, Topology: "ts1000", Scale: 1,
		Sizes: []int{1, 2, 5, 10, 20, 50, 100, 200}, Mode: mcast.Distinct, NNetworks: 256,
		Protocol: mcast.Protocol{NSource: 16, NRcvr: 32, Seed: seed, BatchBFS: true, SPTCache: true, Workers: 1},
	}
}

// daemon is one mtsimd child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	logs chan string // the daemon's stderr tail, delivered once it exits
}

// startDaemon starts mtsimd on a free loopback port with a fresh data
// directory and returns once it is listening.
func startDaemon(bin, dataDir, id string) (*daemon, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data", dataDir, "-worker-id", id)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, logs: make(chan string, 1)}
	addr := make(chan string, 1)
	go func() {
		var tail []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				f := strings.Fields(line[i+len("listening on "):])
				if len(f) > 0 {
					select {
					case addr <- f[0]:
					default:
					}
				}
			}
			tail = append(tail, line)
			if len(tail) > 20 {
				tail = tail[1:]
			}
		}
		close(addr)
		d.logs <- strings.Join(tail, "\n")
	}()
	select {
	case u, ok := <-addr:
		if ok {
			d.url = u
			return d, nil
		}
	case <-time.After(20 * time.Second):
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	return nil, fmt.Errorf("mtsimd %s did not start: %s", id, <-d.logs)
}

// peakRSS reads the daemon's peak resident set while it still runs.
func (d *daemon) peakRSS() (float64, error) { return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)) }

// stop drains the daemon with SIGTERM and waits for it, killing it if it
// has not exited within ten seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		logs := <-d.logs
		if err != nil {
			return fmt.Errorf("mtsimd exited: %v: %s", err, logs)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-done
		<-d.logs
		return errors.New("mtsimd did not drain within 10s")
	}
}

// shardTimer is a RoundTripper that records the latency of every POST
// /shard the coordinator makes.
type shardTimer struct {
	next *http.Transport
	mu   sync.Mutex
	ms   []float64
}

func (t *shardTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err == nil && strings.HasSuffix(req.URL.Path, cluster.ShardPath) {
		t.mu.Lock()
		t.ms = append(t.ms, time.Since(t0).Seconds()*1000)
		t.mu.Unlock()
	}
	return resp, err
}

// reply is one /curve response as the load loop saw it.
type reply struct {
	id     string
	status int
	source string // X-Mtsimd-Source: fresh or cache
	sum    [32]byte
	ms     float64
}

// readLoop runs one closed-loop client per list: client c sends lists[c]
// in order, each request only after the previous reply is fully read.
func readLoop(client *http.Client, base string, lists [][]string) ([]reply, error) {
	out := make([][]reply, len(lists))
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	for c, list := range lists {
		wg.Add(1)
		go func(c int, list []string) {
			defer wg.Done()
			for _, id := range list {
				t0 := time.Now()
				resp, err := client.Get(base + "/curve?profile=quick&experiment=" + id)
				if err != nil {
					errs[c] = err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				out[c] = append(out[c], reply{id: id, status: resp.StatusCode, source: resp.Header.Get("X-Mtsimd-Source"),
					sum: sha256.Sum256(body), ms: time.Since(t0).Seconds() * 1000})
			}
		}(c, list)
	}
	wg.Wait()
	var all []reply
	for _, o := range out {
		all = append(all, o...)
	}
	return all, errors.Join(errs...)
}

// readPlan is the read phase's requests, drawn from seed. In the miss
// phase every client asks for every experiment id in one shuffled order,
// so each id is first requested by all clients at once: a daemon that
// computes a key once per concurrent miss shows it in serve.fresh_per_key.
// The hit phase then gives each client its share of daemonRequests cached
// reads, every id equally often, in shuffled order.
func readPlan(ids []string, seed int64) (miss, hit [][]string) {
	r := rng.New(seed)
	order := append([]string(nil), ids...)
	r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	mix := make([]string, daemonRequests)
	for i := range mix {
		mix[i] = ids[i%len(ids)]
	}
	r.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	per := daemonRequests / daemonClients
	for c := 0; c < daemonClients; c++ {
		miss = append(miss, order)
		hit = append(hit, mix[c*per:(c+1)*per])
	}
	return miss, hit
}

// daemonPass is one iteration's measurements.
type daemonPass struct {
	setup, wall, clusterWall, missWall, hitWall, rss, alloc float64
	shardMS                                                 []float64
	stats                                                   *cluster.Stats
	merged                                                  []byte
	replies                                                 []reply
}

// runDaemon is the daemon workload. Each pass starts two fresh mtsimd
// processes on empty data directories (set-up), runs the cluster grid
// through a coordinator over both (writes), then the closed read loop
// against the first (reads), and stops both.
func runDaemon(r *run) error {
	if r.mtsimd == "" {
		return errors.New("daemon workload needs -mtsimd")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	grid := daemonGrid(r.seed)
	ids := experiments.IDs()
	missPlan, hitPlan := readPlan(ids, r.seed)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: daemonClients, MaxConnsPerHost: daemonClients}}
	defer client.CloseIdleConnections()

	pass := func(i int, tr *tracer) (daemonPass, error) {
		var dp daemonPass
		var ds []*daemon
		defer func() {
			_ = tr.do("serve.stop", func() error {
				for _, d := range ds {
					if err := d.stop(); err != nil {
						r.fail(err)
					}
				}
				return nil
			})
		}()
		t0 := time.Now()
		err := tr.do("serve.start", func() error {
			for w := 0; w < 2; w++ {
				d, err := startDaemon(r.mtsimd, filepath.Join(r.work, fmt.Sprintf("data-%d-%d", i, w)), fmt.Sprintf("w%d", w))
				if err != nil {
					return err
				}
				ds = append(ds, d)
			}
			return nil
		})
		if err != nil {
			return dp, err
		}
		dp.setup = time.Since(t0).Seconds()

		timer := &shardTimer{next: &http.Transport{MaxIdleConnsPerHost: 1}}
		defer timer.next.CloseIdleConnections()
		defer client.CloseIdleConnections()
		coord, err := cluster.New([]string{ds[0].url, ds[1].url}, cluster.Options{Client: &http.Client{Transport: timer}})
		if err != nil {
			return dp, err
		}
		a0 := allocMB()
		t1 := time.Now()
		var merged *cluster.Merged
		err = tr.do("cluster.Run", func() error {
			var err error
			merged, dp.stats, err = coord.Run(context.Background(), grid, daemonShards)
			return err
		})
		dp.clusterWall = time.Since(t1).Seconds()
		if err != nil {
			return dp, err
		}
		t2 := time.Now()
		err = tr.do("serve.curve-miss", func() error {
			var err error
			dp.replies, err = readLoop(client, ds[0].url, missPlan)
			return err
		})
		dp.missWall = time.Since(t2).Seconds()
		if err != nil {
			return dp, err
		}
		t3 := time.Now()
		err = tr.do("serve.curve-hit", func() error {
			hits, err := readLoop(client, ds[0].url, hitPlan)
			dp.replies = append(dp.replies, hits...)
			return err
		})
		dp.hitWall = time.Since(t3).Seconds()
		dp.alloc = allocMB() - a0
		dp.wall = dp.clusterWall + dp.missWall + dp.hitWall
		if err != nil {
			return dp, err
		}
		dp.shardMS = timer.ms
		if dp.merged, err = json.MarshalIndent(merged, "", "  "); err != nil {
			return dp, err
		}
		for _, d := range ds {
			mb, err := d.peakRSS()
			if err != nil {
				return dp, err
			}
			dp.rss += mb
		}
		return dp, nil
	}

	var passes []daemonPass
	iter := func(i int) error {
		dp, err := pass(i, nil)
		if err != nil {
			return err
		}
		passes = append(passes, dp)
		return nil
	}
	if err := r.loop(2, iter); err != nil {
		return err
	}
	if r.traced {
		settle()
		var dp daemonPass
		err := r.tr.do("bench.daemon", func() error {
			var err error
			dp, err = pass(len(passes), r.tr)
			return err
		})
		if err != nil {
			return err
		}
		untraced := median(field(passes, func(p daemonPass) float64 { return p.wall }))
		if err := replayCluster(r, grid, dp.merged); err != nil {
			return err
		}
		r.traceMetrics(untraced, dp.wall)
		passes = append(passes, dp)
	}
	return checkDaemon(r, grid, ids, passes)
}

// field projects one measurement out of each pass.
func field(ps []daemonPass, f func(daemonPass) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

// checkDaemon checks every pass's outputs against the in-process
// references and records the daemon metrics.
func checkDaemon(r *run, grid cluster.Grid, ids []string, passes []daemonPass) error {
	local, err := cluster.RunLocal(context.Background(), grid)
	if err != nil {
		return err
	}
	want, err := json.MarshalIndent(local, "", "  ")
	if err != nil {
		return err
	}
	ref := map[string][32]byte{}
	for _, id := range ids {
		res, err := experiments.Run(id, experiments.Quick())
		if err != nil {
			return err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return err
		}
		ref[id] = sha256.Sum256(b)
	}

	var hits, misses, shards []float64
	var fresh, shed, requests, attempts, planned, requeues int
	var missCompute float64
	for pi, dp := range passes {
		r.check(bytes.Equal(dp.merged, want), "pass %d: cluster merge differs from cluster.RunLocal", pi)
		r.check(dp.stats.Requeues == 0, "pass %d: %d of %d shard posts failed and were requeued", pi, dp.stats.Requeues, dp.stats.Attempts)
		attempts += dp.stats.Attempts
		planned += dp.stats.Planned
		requeues += dp.stats.Requeues
		shards = append(shards, dp.shardMS...)
		for _, rep := range dp.replies {
			requests++
			r.check(rep.status == http.StatusOK, "pass %d: /curve %s: status %d", pi, rep.id, rep.status)
			r.check(rep.sum == ref[rep.id], "pass %d: /curve %s (%s) body differs from experiments.Run", pi, rep.id, rep.source)
			switch {
			case rep.status == http.StatusTooManyRequests:
				shed++
			case rep.source == "fresh":
				fresh++
				misses = append(misses, rep.ms)
				missCompute += rep.ms / 1000
			case rep.source == "cache":
				hits = append(hits, rep.ms)
			}
		}
	}
	n := float64(len(passes))
	if !r.traced {
		r.set("wall_s", median(field(passes, func(p daemonPass) float64 { return p.wall })), len(passes))
		r.set("setup_s", median(field(passes, func(p daemonPass) float64 { return p.setup })), len(passes))
		r.set("rss_peak_mb", median(field(passes, func(p daemonPass) float64 { return p.rss })), len(passes))
		r.set("alloc_mb", median(field(passes, func(p daemonPass) float64 { return p.alloc })), len(passes))
		return nil
	}
	r.set("serve.hit_p50_ms", median(hits), len(hits))
	if p, ok := tailPercentile(len(hits)); ok {
		r.set("serve.hit_tail_ms", percentile(hits, p), len(hits))
		r.notes = append(r.notes, fmt.Sprintf("serve.hit_tail_ms is p%g of %d cache hits", p, len(hits)))
	}
	r.set("serve.miss_p50_ms", median(misses), len(misses))
	r.set("serve.miss_compute_s", missCompute/n, len(misses))
	r.set("serve.fresh_per_key", float64(fresh)/(n*float64(len(ids))), fresh)
	r.set("serve.shed_ratio", float64(shed)/float64(requests), requests)
	r.set("serve.rps", float64(len(hits))/sum(field(passes, func(p daemonPass) float64 { return p.hitWall })), len(hits))
	r.set("cluster.wall_s", median(field(passes, func(p daemonPass) float64 { return p.clusterWall })), len(passes))
	r.set("cluster.shard_p50_ms", median(shards), len(shards))
	r.set("cluster.attempts_per_shard", float64(attempts)/float64(planned), planned)
	r.set("cluster.requeues", float64(requeues)/n, len(passes))
	r.set("cluster.overhead_ratio", r.values["cluster.wall_s"]/(r.values["cluster.shard_exec_s"]/2), len(passes))
	return nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// replayCluster replays the cluster phase in-process, one span per step:
// plan the grid, execute every shard, merge. The merge must reproduce the
// coordinator's result byte for byte.
func replayCluster(r *run, grid cluster.Grid, coordMerged []byte) error {
	var merged *cluster.Merged
	err := r.tr.do("bench.cluster-replay", func() error {
		var plan []cluster.ShardSpec
		if err := r.tr.do("cluster.Plan", func() error {
			var err error
			plan, err = cluster.Plan(grid, daemonShards)
			return err
		}); err != nil {
			return err
		}
		parts := make([]*cluster.Partial, len(plan))
		for i, spec := range plan {
			if err := r.tr.do("cluster.ExecuteShard", func() error {
				var err error
				parts[i], err = cluster.ExecuteShard(context.Background(), spec)
				return err
			}); err != nil {
				return err
			}
		}
		return r.tr.do("cluster.Merge", func() error {
			var err error
			merged, err = cluster.Merge(grid, parts)
			return err
		})
	})
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	r.check(bytes.Equal(b, coordMerged), "cluster replay merge differs from the coordinator's")
	spans := r.tr.spans
	r.set("cluster.plan_s", total(spans, "cluster.Plan").Seconds(), 1)
	r.set("cluster.shard_exec_s", total(spans, "cluster.ExecuteShard").Seconds(), len(durations(spans, "cluster.ExecuteShard")))
	r.set("cluster.merge_s", total(spans, "cluster.Merge").Seconds(), 1)
	return nil
}
