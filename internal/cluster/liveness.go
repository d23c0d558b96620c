package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"mtreescale/internal/retry"
)

// HealthzPath is the worker liveness endpoint a coordinator heartbeats.
const HealthzPath = "/healthz"

// A worker's k-th consecutive shard failure makes it suspect for
// suspectBase × 2^(k-1), capped at suspectMax, with no jitter.
const suspectBase, suspectMax = time.Second, 30 * time.Second

// workerState is the verdict a worker slot consults before each dispatch.
type workerState int

const (
	healthy workerState = iota // dispatch
	suspect                    // failed a shard recently: wait out the window
	evicted                    // failed its heartbeats: park until a probe answers
)

// outcome classifies one shard post for the liveness table and workerLoop.
type outcome int

const (
	shardOK           outcome = iota
	shardBackpressure         // 429: the worker is busy, not broken
	shardBadGrid              // other 4xx: the grid is bad, not the worker
	shardStale                // failed after the shard settled elsewhere
	shardRetired              // failed on a worker no longer Active
	shardFailed               // transport error, 5xx, bad checksum
)

// liveness is one Run's single model of which workers may take shards:
// healthy ⇄ suspect on shard outcomes, evicted ⇄ healthy on probes.
// A shardFailed strikes the worker and makes it suspect for its window, a
// shardOK clears strikes and window, and other outcomes change nothing.
// evictAt consecutive probe failures evict it (never when evictAt is 0:
// heartbeating is off), and only a good probe readmits it, never time.
// Probes leave strikes alone; shards leave eviction alone. The fourth
// state, retired, is the Registry's: a failure on a worker whose lease
// expired is shardRetired, never a strike.
type liveness struct {
	mu                      sync.Mutex
	now                     func() time.Time // tests swap in a fake clock
	evictAt                 int
	emit                    func(Event)
	workers                 map[string]*workerLive
	evictions, readmissions int
}

type workerLive struct {
	probeFails, strikes int
	evicted             bool
	until               time.Time // end of the suspect window
}

func (l *liveness) entry(w string) *workerLive {
	e := l.workers[w]
	if e == nil {
		e = &workerLive{}
		l.workers[w] = e
	}
	return e
}

// state reports w's verdict; a suspect worker also gets the window's
// remainder. Eviction is checked first.
func (l *liveness) state(w string) (workerState, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(w)
	if e.evicted {
		return evicted, 0
	}
	if retryIn := e.until.Sub(l.now()); retryIn > 0 {
		return suspect, retryIn
	}
	return healthy, 0
}

// settle folds one shard outcome on w into the table.
func (l *liveness) settle(w string, oc outcome) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entry(w)
	switch oc {
	case shardOK:
		e.strikes, e.until = 0, time.Time{}
	case shardFailed:
		e.strikes++
		window := retry.Backoff{Base: suspectBase, Max: suspectMax}.Delay(e.strikes)
		e.until = l.now().Add(window)
	}
}

// probed folds one heartbeat outcome on w into the table, counting and
// emitting the evict and readmit transitions.
func (l *liveness) probed(w string, ok bool) {
	l.mu.Lock()
	e := l.entry(w)
	var ev Event
	if ok {
		if e.evicted {
			l.readmissions++
			ev = Event{Kind: "readmit", Worker: w}
		}
		e.probeFails, e.evicted = 0, false
	} else {
		e.probeFails++
		if !e.evicted && l.evictAt > 0 && e.probeFails >= l.evictAt {
			e.evicted = true
			l.evictions++
			ev = Event{Kind: "evict", Worker: w, Err: fmt.Errorf("cluster: %d consecutive heartbeat failures", l.evictAt)}
		}
	}
	l.mu.Unlock()
	if ev.Kind != "" {
		l.emit(ev)
	}
}

// probe answers whether worker's GET /healthz succeeded. Any 2xx is healthy;
// refused connections, timeouts and non-2xx statuses are not. The probe
// carries the run's bearer token when one is configured, so an auth-fronted
// worker is not misread as dead.
func (c *Coordinator) probe(ctx context.Context, worker string) bool {
	// The answer deadline is HeartbeatTimeout, not the probe interval: a
	// short interval means frequent probes, not impatient ones.
	pctx, cancel := context.WithTimeout(ctx, c.opt.HeartbeatTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, worker+HealthzPath, nil)
	if err != nil {
		return false
	}
	if c.opt.Token != "" {
		req.Header.Set("Authorization", "Bearer "+c.opt.Token)
	}
	resp, err := c.opt.Client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// probeRound probes every current member once, renews the lease of each
// worker that answered, and feeds every answer to the liveness table.
func (c *Coordinator) probeRound(ctx context.Context, st *runState) {
	for _, w := range c.reg.Members() {
		ok := c.probe(ctx, w)
		if ctx.Err() != nil {
			return // the run is over, maybe mid-probe: no verdict on w
		}
		if ok {
			// A lost renewal (the registry.lease failpoint, in production a
			// dropped registrar write) leaves the lease aging toward expiry;
			// the next successful round renews it, so only a sustained loss
			// retires the worker.
			c.reg.Renew(w)
		}
		st.live.probed(w, ok)
	}
}

// heartbeatLoop re-probes the fleet every Heartbeat until the run ends,
// then sweeps expired leases so unresponsive dynamic workers are retired.
// It sleeps on a real timer, never Options.Sleep: tests inject instant
// sleeps to skip shard backoffs, and an instant heartbeat interval would
// turn this loop into a hot spin against /healthz.
func (c *Coordinator) heartbeatLoop(ctx context.Context, st *runState) {
	for {
		if sleepCtx(ctx, c.opt.Heartbeat) != nil {
			return
		}
		select {
		case <-st.done:
			return
		default:
		}
		c.probeRound(ctx, st)
		c.reg.Sweep()
	}
}
