package affinity

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mtreescale/internal/valid"
)

// Sweep9 fans its cells out over GOMAXPROCS workers; every cell has its own
// seed and slot, so the estimates must not depend on the worker count.
func TestSweep9WorkerCountInvariant(t *testing.T) {
	m, err := NewTreeModel(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	betas := []float64{-1, 0, 1, 10}
	ns := []int{1, 3, 10, 40, 200}
	p := Params{BurnInSweeps: 5, SampleSweeps: 100, Seed: 11}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var ref [][]Estimate
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, err := Sweep9(context.Background(), m, betas, ns, p)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("GOMAXPROCS=%d: estimates differ from GOMAXPROCS=1", procs)
		}
	}
}

// Cells are dispatched largest n first, but a failure is reported for the
// first failing cell in [beta][n] order: here cell (β=1, n=0), although the
// NaN-β cells at n=3 are dispatched before it.
func TestSweep9FirstErrorInCellOrder(t *testing.T) {
	m, err := NewTreeModel(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		_, err := Sweep9(context.Background(), m, []float64{1, math.NaN()}, []int{3, 0}, Params{Seed: 1})
		if !valid.IsParam(err) || !strings.Contains(err.Error(), "got 0") {
			t.Fatalf("GOMAXPROCS=%d: err = %v, want the n=0 error", procs, err)
		}
	}
}

// A cancelled sweep returns ctx.Err(): at once when cancelled up front, and
// within a few sweeps of one chain when cancelled mid-run.
func TestSweep9Cancel(t *testing.T) {
	m, err := NewTreeModel(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	betas := []float64{-1, 0, 1}
	ns := []int{10, 1000, 10000}
	p := Params{BurnInSweeps: 1000, SampleSweeps: 1000, Seed: 3}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep9(ctx, m, betas, ns, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Sweep9(ctx, m, betas, ns, p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run: err = %v, want context.DeadlineExceeded", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("mid-run cancellation took %v", el)
	}
}
