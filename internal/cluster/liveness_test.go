package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced time source, safe for the coordinator's
// concurrent slots.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestLiveness builds a table on clk that evicts after evictAt probe
// failures (0 never evicts) and hands evict/readmit events to emit.
func newTestLiveness(clk *fakeClock, evictAt int, emit func(Event)) *liveness {
	return &liveness{now: clk.now, evictAt: evictAt, emit: emit, workers: map[string]*workerLive{}}
}

// strikesOf reports w's current shard strikes.
func (l *liveness) strikesOf(w string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entry(w).strikes
}

// TestLivenessTransitions drives one worker's entry through every
// transition of the liveness table on a fake clock, checking the verdict
// after each step and the evict/readmit events and counts at the end.
func TestLivenessTransitions(t *testing.T) {
	type step struct {
		op     string        // shard outcome, "probe+"/"probe-", or "wait"
		d      time.Duration // for "wait"
		want   workerState
		wantIn time.Duration // suspect window remainder
	}
	outcomes := map[string]outcome{
		"ok": shardOK, "429": shardBackpressure, "4xx": shardBadGrid,
		"stale": shardStale, "retired": shardRetired, "fail": shardFailed,
	}
	wait := func(d time.Duration, want workerState, in time.Duration) step {
		return step{op: "wait", d: d, want: want, wantIn: in}
	}
	sec := time.Second
	cases := []struct {
		name       string
		evictAt    int
		steps      []step
		wantEvents []string
	}{
		{name: "suspect window series 1, 2, 4 … 30s", evictAt: 3, steps: []step{
			{op: "fail", want: suspect, wantIn: 1 * sec},
			wait(400*time.Millisecond, suspect, 600*time.Millisecond),
			wait(600*time.Millisecond, healthy, 0),
			{op: "fail", want: suspect, wantIn: 2 * sec},
			{op: "fail", want: suspect, wantIn: 4 * sec},
			{op: "fail", want: suspect, wantIn: 8 * sec},
			{op: "fail", want: suspect, wantIn: 16 * sec},
			{op: "fail", want: suspect, wantIn: 30 * sec},
			{op: "fail", want: suspect, wantIn: 30 * sec},
			wait(30*sec, healthy, 0),
		}},
		{name: "shard success clears strikes and window", evictAt: 3, steps: []step{
			{op: "fail", want: suspect, wantIn: 1 * sec},
			{op: "fail", want: suspect, wantIn: 2 * sec},
			{op: "ok", want: healthy},
			{op: "fail", want: suspect, wantIn: 1 * sec},
		}},
		{name: "429 and 4xx never strike", evictAt: 3, steps: []step{
			{op: "429", want: healthy},
			{op: "4xx", want: healthy},
			{op: "fail", want: suspect, wantIn: 1 * sec},
			wait(sec, healthy, 0),
			{op: "429", want: healthy},
			{op: "4xx", want: healthy},
			{op: "fail", want: suspect, wantIn: 2 * sec},
		}},
		{name: "retired and stale failures never strike", evictAt: 3, steps: []step{
			{op: "retired", want: healthy},
			{op: "stale", want: healthy},
			{op: "fail", want: suspect, wantIn: 1 * sec},
			wait(sec, healthy, 0),
			{op: "retired", want: healthy},
			{op: "stale", want: healthy},
			{op: "fail", want: suspect, wantIn: 2 * sec},
		}},
		{name: "evictAt probe failures evict, time never readmits", evictAt: 3, steps: []step{
			{op: "probe-", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe-", want: evicted},
			wait(24*time.Hour, evicted, 0),
			{op: "probe-", want: evicted},
			{op: "probe+", want: healthy},
			{op: "probe+", want: healthy},
		}, wantEvents: []string{"evict", "readmit"}},
		{name: "a good probe resets the failure count", evictAt: 3, steps: []step{
			{op: "probe-", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe+", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe-", want: evicted},
		}, wantEvents: []string{"evict"}},
		{name: "eviction is checked before suspicion", evictAt: 1, steps: []step{
			{op: "fail", want: suspect, wantIn: 1 * sec},
			{op: "probe-", want: evicted},
		}, wantEvents: []string{"evict"}},
		{name: "a good probe clears eviction, not strikes", evictAt: 2, steps: []step{
			{op: "fail", want: suspect, wantIn: 1 * sec},
			{op: "probe-", want: suspect, wantIn: 1 * sec},
			{op: "probe-", want: evicted},
			{op: "probe+", want: suspect, wantIn: 1 * sec},
			wait(sec, healthy, 0),
			{op: "fail", want: suspect, wantIn: 2 * sec},
		}, wantEvents: []string{"evict", "readmit"}},
		{name: "a good shard clears strikes, not eviction", evictAt: 2, steps: []step{
			{op: "fail", want: suspect, wantIn: 1 * sec},
			{op: "probe-", want: suspect, wantIn: 1 * sec},
			{op: "probe-", want: evicted},
			{op: "ok", want: evicted},
			{op: "probe+", want: healthy},
			{op: "fail", want: suspect, wantIn: 1 * sec},
		}, wantEvents: []string{"evict", "readmit"}},
		{name: "heartbeat off never evicts", evictAt: 0, steps: []step{
			{op: "probe-", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe-", want: healthy},
			{op: "probe+", want: healthy},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			var events []string
			l := newTestLiveness(clk, tc.evictAt, func(ev Event) {
				if ev.Worker != "w" {
					t.Errorf("event for %q, want w", ev.Worker)
				}
				events = append(events, ev.Kind)
			})
			for i, s := range tc.steps {
				switch s.op {
				case "wait":
					clk.advance(s.d)
				case "probe+", "probe-":
					l.probed("w", s.op == "probe+")
				default:
					oc, ok := outcomes[s.op]
					if !ok {
						t.Fatalf("step %d: unknown op %q", i, s.op)
					}
					l.settle("w", oc)
				}
				if got, in := l.state("w"); got != s.want || in != s.wantIn {
					t.Fatalf("step %d (%s): state %d retryIn %v, want %d retryIn %v", i, s.op, got, in, s.want, s.wantIn)
				}
			}
			if !reflect.DeepEqual(events, tc.wantEvents) {
				t.Fatalf("events %v, want %v", events, tc.wantEvents)
			}
			var evictions, readmissions int
			for _, k := range events {
				switch k {
				case "evict":
					evictions++
				case "readmit":
					readmissions++
				}
			}
			if l.evictions != evictions || l.readmissions != readmissions {
				t.Fatalf("counted %d evictions %d readmissions, want %d/%d", l.evictions, l.readmissions, evictions, readmissions)
			}
			if other, _ := l.state("other"); other != healthy {
				t.Fatalf("an untouched worker is %d, want healthy", other)
			}
		})
	}
}
