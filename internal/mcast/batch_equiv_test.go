package mcast

import (
	"fmt"
	"sync"
	"testing"

	"mtreescale/internal/graph"
)

// resolveBatch has three routes to a sweep's trees, and the route must never
// change a result: the MS-BFS kernel produces trees node-for-node identical
// to per-source BFS, so every engine's output must be byte-identical whichever
// route ran — at any worker count. The reference is the per-source BFSInto
// fallback, which the slab cap selects for sweeps too large for one slab;
// tests force it by lowering the cap.

// route is one way resolveBatch resolves a sweep's trees.
type route int

const (
	routeFallback route = iota // per-source BFSInto: the reference
	routeSlab                  // one pooled MS-BFS slab, lane views
	routeCache                 // graph.SharedSPTs, pre-filled by FillBatch
)

func (r route) String() string {
	return [...]string{"fallback", "slab", "cache"}[r]
}

// variant is one cell of the byte-identity matrix.
type variant struct {
	route   route
	workers int
}

func (v variant) String() string { return fmt.Sprintf("%v/workers=%d", v.route, v.workers) }

// batchVariants returns the matrix one engine run is checked over: route ×
// Workers 1/3. Element 0 is the reference (fallback, one worker).
func batchVariants() []variant {
	var out []variant
	for _, r := range []route{routeFallback, routeSlab, routeCache} {
		for _, workers := range []int{1, 3} {
			out = append(out, variant{r, workers})
		}
	}
	return out
}

// useRoute makes the engines resolve trees through r for the rest of the
// test (the fallback by a zero slab cap, the cache by Protocol.SPTCache),
// clears the shared SPT cache, and returns p set up for r.
func useRoute(t testing.TB, r route, p Protocol) Protocol {
	prev := batchSlabCap
	t.Cleanup(func() { batchSlabCap = prev })
	batchSlabCap = graph.MaxBatchSlabBytes
	if r == routeFallback {
		batchSlabCap = 0
	}
	p.SPTCache = r == routeCache
	graph.SharedSPTs.Clear()
	return p
}

// apply is useRoute for v's route with v's worker count.
func (v variant) apply(t testing.TB, p Protocol) Protocol {
	p = useRoute(t, v.route, p)
	p.Workers = v.workers
	return p
}

func TestMeasureCurveBatchByteIdentical(t *testing.T) {
	g := randGraph(41, 400, 800)
	sizes := []int{1, 3, 10, 40}
	for _, mode := range []Mode{Distinct, WithReplacement} {
		var want []Point
		for _, v := range batchVariants() {
			got, err := MeasureCurve(g, sizes, mode, v.apply(t, Protocol{NSource: 12, NRcvr: 8, Seed: 99}))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("mode=%v %v: %+v != fallback %+v", mode, v, got[k], want[k])
				}
			}
		}
	}
}

func TestMeasureCurveNestedBatchByteIdentical(t *testing.T) {
	g := randGraph(43, 300, 600)
	sizes := []int{2, 5, 20, 20, 64}
	var want []Point
	for _, v := range batchVariants() {
		got, err := MeasureCurve(g, sizes, Distinct, v.apply(t, Protocol{NSource: 10, NRcvr: 6, Seed: 7, Nested: true}))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%v: %+v != fallback %+v", v, got[k], want[k])
			}
		}
	}
}

func TestMeasureSharedCurveBatchByteIdentical(t *testing.T) {
	g := randGraph(47, 350, 700)
	sizes := []int{1, 4, 16}
	for _, strategy := range []CoreStrategy{CoreRandom, CoreSource, CoreCenter} {
		var want []SharedPoint
		for _, v := range batchVariants() {
			got, err := MeasureSharedCurve(g, sizes, strategy, v.apply(t, Protocol{NSource: 9, NRcvr: 5, Seed: 23}))
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("%v %v: %+v != fallback %+v", strategy, v, got[k], want[k])
				}
			}
		}
	}
}

func TestMeasureEnsembleBatchByteIdentical(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) {
		return randGraph(seed, 150, 250), nil
	}
	sizes := []int{1, 5, 25}
	var want []Point
	for _, v := range batchVariants() {
		got, err := MeasureEnsemble(gen, 3, sizes, Distinct, v.apply(t, Protocol{NSource: 7, NRcvr: 4, Seed: 13}))
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%v: %+v != fallback %+v", v, got[k], want[k])
			}
		}
	}
}

// TestMeasureCurveBatchWideSourceCount spans more than one 64-lane MS-BFS
// group, exercising the kernel's group spill inside a real engine run.
func TestMeasureCurveBatchWideSourceCount(t *testing.T) {
	g := randGraph(53, 200, 400)
	sizes := []int{2, 9}
	base := Protocol{NSource: 70, NRcvr: 2, Seed: 3}
	want, err := MeasureCurve(g, sizes, Distinct, useRoute(t, routeFallback, base))
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureCurve(g, sizes, Distinct, useRoute(t, routeSlab, base))
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("size %d: slab %+v != fallback %+v", sizes[k], got[k], want[k])
		}
	}
}

// TestSPTCacheChurnBatchedAndSerial hammers the process-wide SPT cache from
// concurrent engines under a tight byte budget, so FillBatch inserts,
// singleflight Gets of evicted trees and evictions interleave. Every run's
// result must still equal the quiet-cache reference.
func TestSPTCacheChurnBatchedAndSerial(t *testing.T) {
	g := randGraph(59, 300, 600)
	sizes := []int{1, 6, 24}
	base := Protocol{NSource: 10, NRcvr: 4, Seed: 77, SPTCache: true}
	graph.SharedSPTs.Clear()
	want, err := MeasureCurve(g, sizes, Distinct, base)
	if err != nil {
		t.Fatal(err)
	}
	graph.SharedSPTs.Clear()
	prev := graph.SharedSPTs.SetLimit(64 << 10) // force churn
	defer func() {
		graph.SharedSPTs.SetLimit(prev)
		graph.SharedSPTs.Clear()
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		p := base
		p.Workers = 1 + i%3
		wg.Add(1)
		go func(p Protocol) {
			defer wg.Done()
			got, err := MeasureCurve(g, sizes, Distinct, p)
			if err != nil {
				errs <- err
				return
			}
			for k := range want {
				if got[k] != want[k] {
					errs <- &churnMismatch{p: p, got: got[k], want: want[k]}
					return
				}
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type churnMismatch struct {
	p         Protocol
	got, want Point
}

func (m *churnMismatch) Error() string {
	return fmt.Sprintf("churn mismatch under %+v: got %+v, want %+v", m.p, m.got, m.want)
}
