package mcast

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"mtreescale/internal/graph"
	"mtreescale/internal/panicsafe"
	"mtreescale/internal/topology"
)

func TestMeasureCurveCtxPreCancelled(t *testing.T) {
	g, err := topology.GenerateSeeded("ts1000", 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Protocol{NSource: 4, NRcvr: 4, Seed: 7}
	if _, err := MeasureCurveCtx(ctx, g, []int{1, 4}, Distinct, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("independent engine: err = %v, want context.Canceled", err)
	}
	nested := p
	nested.Nested = true
	if _, err := MeasureCurveCtx(ctx, g, []int{1, 4}, Distinct, nested); !errors.Is(err, context.Canceled) {
		t.Fatalf("nested engine: err = %v, want context.Canceled", err)
	}
	if _, err := MeasureSharedCurveCtx(ctx, g, []int{1, 4}, CoreRandom, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("shared engine: err = %v, want context.Canceled", err)
	}
	_, err = MeasureEnsembleCtx(ctx, func(seed int64) (*graph.Graph, error) {
		return topology.GenerateSeeded("r100", seed, 0.2)
	}, 2, []int{1, 4}, Distinct, p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ensemble engine: err = %v, want context.Canceled", err)
	}
}

// TestMeasureCurveCtxCancelMidRun sizes the sweep far beyond the cancel
// delay: the engine must return (with context.Canceled) long before the
// full sweep could complete, proving the workers poll ctx at grid-point
// granularity instead of only between sources.
func TestMeasureCurveCtxCancelMidRun(t *testing.T) {
	g, err := topology.GenerateSeeded("ts1000", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One source, many sizes × repetitions (an uninterrupted sweep takes
	// seconds): cancellation can only be observed inside the source's own
	// grid loop.
	p := Protocol{NSource: 1, NRcvr: 20000, Seed: 7, Workers: 1}
	sizes := LogSpacedSizes(g.N()-1, 24)
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err = MeasureCurveCtx(ctx, g, sizes, Distinct, p)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want context.Canceled (sweep too fast to prove cancellation?)", err, elapsed)
	}
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation not observed promptly: took %v", elapsed)
	}
}

// TestRunSourceWorkersRecoversPanic: a panicking source job must surface as
// a *panicsafe.PanicError from the pool instead of crashing the process,
// and the pool must still drain cleanly.
func TestRunSourceWorkersRecoversPanic(t *testing.T) {
	ran := make([]bool, 64)
	err := runSourceWorkers(context.Background(), Protocol{NSource: 64, NRcvr: 1, Workers: 4}, func(si int) error {
		ran[si] = true
		if si == 3 {
			panic("injected worker panic")
		}
		return nil
	})
	if err == nil {
		t.Fatal("panic must surface as an error")
	}
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *panicsafe.PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "injected worker panic") {
		t.Fatalf("error lacks panic value: %v", err)
	}
	if !ran[3] {
		t.Fatal("panicking job never ran")
	}
}

func TestRunSourceWorkersCancelStopsPickup(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var count int
	err := runSourceWorkers(ctx, Protocol{NSource: 100, NRcvr: 1, Workers: 1}, func(si int) error {
		count++
		if si == 0 {
			cancel() // cancel from inside the first job
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if count != 1 {
		t.Fatalf("ran %d jobs after cancellation, want 1", count)
	}
}

func TestMeasureEnsembleCtxRecoversGeneratorPanic(t *testing.T) {
	p := Protocol{NSource: 2, NRcvr: 2, Seed: 3, Workers: 2}
	_, err := MeasureEnsembleCtx(context.Background(), func(seed int64) (*graph.Graph, error) {
		panic("generator exploded")
	}, 3, []int{1, 2}, Distinct, p)
	var pe *panicsafe.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *panicsafe.PanicError, got %T: %v", err, err)
	}
}
