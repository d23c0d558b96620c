package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

// Every registered experiment honours cancellation: run at the paper
// profile and cancelled cancelAfter after it starts, it either finishes or
// returns an error wrapping context.Canceled, within cancelBound of the
// cancel. The longest stretch between two ctx polls is one topology's
// reachability measurement in fig6/fig7 (0.3 s at paper scale on a 2-CPU
// host, 2.7 s there under the race detector with the CPUs shared);
// cancelBound leaves headroom over that.
func TestRegistryCancellationContract(t *testing.T) {
	const (
		cancelAfter = 50 * time.Millisecond
		cancelBound = 5 * time.Second
	)
	// The paper-scale topologies and trees this test caches would otherwise
	// stay on the heap and trip the heap guard tests that run after it.
	t.Cleanup(func() {
		topology.ResetCache()
		graph.SharedSPTs.Clear()
		runtime.GC()
	})
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := RunCtx(ctx, id, Paper())
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("finished before the cancel with %v", err)
				}
				return
			case <-time.After(cancelAfter):
			}
			cancel()
			start := time.Now()
			var err error
			select {
			case err = <-done:
			case <-time.After(cancelBound):
				err = <-done // let it exit before the next experiment starts
				t.Fatalf("still running %v after the cancel; returned %v after %v",
					cancelBound, err, time.Since(start).Round(time.Millisecond))
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want an error wrapping context.Canceled", err)
			}
			t.Logf("returned %v after %v", err, time.Since(start).Round(time.Millisecond))
		})
	}
}

// fig8 and ext-weighted poll ctx inside their loops (per model and per
// source), so even a runner called directly, past RunCtx's entry check,
// returns the cancellation instead of finishing the figure.
func TestRunnersPollCtxInside(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"fig8", "ext-weighted"} {
		r, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(ctx, Quick()); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled run returned %v, want context.Canceled", id, err)
		}
	}
}
