// Command perfbench is the repository benchmark: it runs one workload
// (suite-medium, curves-paper, bfs-large or daemon), checks the outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured untraced.
// With -trace 1 the harness also runs the workload with a span around each
// call it makes into a layer and reports the per-layer set, including the
// traced/untraced overhead. Run it through run.sh, which builds this
// package and the mtsimd daemon from the enclosing checkout:
//
//	bash perfbench/run.sh --workload suite-medium --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports all of
// them with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"alloc_mb", "MB"},
}

// perLayer is reported by the traced run. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"affinity.sweep_s", "s"},
	{"affinity.cell_p50_s", "s"},
	{"affinity.cell_max_s", "s"},
	{"affinity.proposals", "count"},
	{"affinity.proposals_per_s", "1/s"},
	{"affinity.accept_ratio", "ratio"},
	{"affinity.replay_ratio", "ratio"},
	{"mcast.accumulate_s", "s"},
	{"mcast.trees", "count"},
	{"mcast.trees_per_s", "1/s"},
	{"graph.spt_flat_s", "s"},
	{"graph.spt_compressed_s", "s"},
	{"graph.spt_sources", "count"},
	{"graph.spt_edges_per_s", "1/s"},
	{"graph.reach_s", "s"},
	{"graph.sptcache_hit_ratio", "ratio"},
	{"topology.generate_s", "s"},
	{"topology.graph_mb", "MB"},
	{"topology.cache_hit_ratio", "ratio"},
	{"experiments.table1_s", "s"},
	{"experiments.fig1a_s", "s"},
	{"experiments.fig1b_s", "s"},
	{"experiments.fig9a_s", "s"},
	{"experiments.fig9b_s", "s"},
	{"experiments.ext-steiner_s", "s"},
	{"experiments.ext-affinity-graph_s", "s"},
	{"experiments.churn-steady_s", "s"},
	{"experiments.churn-repair_s", "s"},
	{"experiments.rest_s", "s"},
	{"experiments.ext-steiner_alloc_mb", "MB"},
	{"experiments.ext-weighted_alloc_mb", "MB"},
	{"experiments.table1_alloc_mb", "MB"},
	{"experiments.fig1b_alloc_mb", "MB"},
	{"plot.encode_s", "s"},
	{"atomicio.write_s", "s"},
	{"serve.fresh_per_key", "ratio"},
	{"serve.shed_ratio", "ratio"},
	{"serve.miss_compute_s", "s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.hit_tail_ms", "ms"},
	{"serve.rps", "1/s"},
	{"cluster.wall_s", "s"},
	{"cluster.shard_p50_ms", "ms"},
	{"cluster.plan_s", "s"},
	{"cluster.shard_exec_s", "s"},
	{"cluster.merge_s", "s"},
	{"cluster.attempts_per_shard", "ratio"},
	{"cluster.requeues", "count"},
	{"cluster.overhead_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"suite-medium": runSuite,
	"curves-paper": runCurves,
	"bfs-large":    runBFS,
	"daemon":       runDaemon,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: its arguments, scratch space, tracer and
// the metrics and checks it accumulates.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory inside the checkout, removed at exit
	state    string // persists across invocations: run-against-run digests
	mtsimd   string // daemon binary
	tr       *tracer

	attempted, failed int
	failures          []string
	notes             []string // printed with the report
	values            map[string]float64
	samples           map[string]int // sample count behind a value, for the report
}

// check counts one correctness check, recording a failure message when ok
// is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// fail counts an operation that returned an error.
func (r *run) fail(err error) {
	r.check(false, "%v", err)
}

// set records a metric value and the number of samples behind it.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// settle collects garbage twice: the second cycle also empties the
// sync.Pool victim caches, so pooled BFS slabs from one iteration are not
// reused by the next and every iteration allocates the same.
func settle() {
	runtime.GC()
	runtime.GC()
}

// loop runs body until the run's measuring time has elapsed, and at least
// minIter times, settling the heap before each iteration.
func (r *run) loop(minIter int, body func(i int) error) error {
	start := time.Now()
	for i := 0; i < minIter || time.Since(start) < r.seconds; i++ {
		settle()
		if err := body(i); err != nil {
			return err
		}
	}
	return nil
}

// setups times fn n times and records the median as setup_s.
func (r *run) setups(n int, fn func() error) error {
	var ts []float64
	for i := 0; i < n; i++ {
		settle()
		t0 := time.Now()
		if err := fn(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(ts), n)
	return nil
}

// allocMB returns the heap bytes allocated so far, in MiB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

// timed runs fn and returns its wall time in seconds and its heap
// allocation in MiB.
func timed(fn func() error) (sec, mb float64, err error) {
	a0 := allocMB()
	t0 := time.Now()
	err = fn()
	return time.Since(t0).Seconds(), allocMB() - a0, err
}

// record sets the end-to-end metrics of an in-process workload: the median
// pass wall time and allocation, and the harness's peak resident set.
func (r *run) record(walls, allocs []float64) error {
	r.set("wall_s", median(walls), len(walls))
	r.set("alloc_mb", median(allocs), len(allocs))
	mb, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	r.set("rss_peak_mb", mb, 1)
	return nil
}

// traceMetrics records the trace bookkeeping metrics: the traced wall's
// overhead against the untraced wall of the same work, and the share of the
// harness's own bench.* spans that no layer span covers.
func (r *run) traceMetrics(untraced, traced float64) {
	r.set("trace.overhead_frac", (traced-untraced)/untraced, 1)
	self := selfTimes(r.tr.spans)
	var root, unattributed time.Duration
	for _, s := range r.tr.spans {
		if s.layer() == "bench" {
			root += s.dur()
			unattributed += self[s.ID]
		}
	}
	if root > 0 {
		r.set("trace.unattributed_frac", unattributed.Seconds()/root.Seconds(), len(r.tr.spans))
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one line per metric of the selected set, the failures, and
// the JSON result line last.
func (r *run) report(w io.Writer) result {
	set := endToEnd
	if r.traced {
		set = perLayer
	}
	for _, d := range set {
		v, ok := r.values[d.name]
		if !r.traced && !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.check(false, "metric %s not measured", d.name)
			r.values[d.name] = 0
		}
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range set {
		v := r.values[d.name]
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(w, "# %-36s %14.6g %-6s n=%d\n", d.name, v, d.unit, r.samples[d.name])
	}
	fmt.Fprintf(w, "# %-36s %14.6g %-6s n=%d\n", "error_rate", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	if r.tr != nil {
		layers := layerSelf(r.tr.spans)
		names := make([]string, 0, len(layers))
		for l := range layers {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			fmt.Fprintf(w, "# self %-31s %14.6g s\n", l, layers[l].Seconds())
		}
	}
	return res
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: suite-medium|curves-paper|bfs-large|daemon")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "scratch and state directory")
	mtsimd := fs.String("mtsimd", "", "mtsimd binary (daemon workload)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	work, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)
	r := &run{
		workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *trace == 1, work: work, state: filepath.Join(*workdir, "state"),
		mtsimd: *mtsimd, values: map[string]float64{}, samples: map[string]int{},
	}
	if r.traced {
		r.tr = newTracer(fmt.Sprintf("%s-%d-%d", r.workload, r.seed, time.Now().UnixNano()))
	}
	if err := runWorkload(r); err != nil {
		r.fail(err)
	}
	if r.tr != nil {
		dir := filepath.Join(*workdir, "traces")
		err := os.MkdirAll(dir, 0o755)
		if err == nil {
			err = r.tr.write(filepath.Join(dir, r.tr.run+".json"))
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
		}
	}
	res := r.report(stdout)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}
