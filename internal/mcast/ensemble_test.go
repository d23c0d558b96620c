package mcast

import (
	"errors"
	"math"
	"sync"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
	"mtreescale/internal/valid"
)

func TestMeasureEnsembleBasic(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) {
		return topology.TransitStubSized(150, 3.6, seed)
	}
	pts, err := MeasureEnsemble(gen, 4, []int{1, 5, 25}, Distinct, Protocol{NSource: 5, NRcvr: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, pt := range pts {
		if pt.Samples != 4*5*5 {
			t.Fatalf("samples = %d, want 100", pt.Samples)
		}
		if pt.MeanRatio <= 0 || pt.MeanLinks <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
	if math.Abs(pts[0].MeanRatio-1) > 1e-9 {
		t.Fatalf("m=1 ratio = %v", pts[0].MeanRatio)
	}
}

func TestMeasureEnsembleUsesDistinctNetworks(t *testing.T) {
	// Networks are generated concurrently, so gen guards its record.
	var mu sync.Mutex
	seeds := map[int64]bool{}
	gen := func(seed int64) (*graph.Graph, error) {
		mu.Lock()
		seeds[seed] = true
		mu.Unlock()
		return topology.TransitStubSized(100, 3.6, seed)
	}
	if _, err := MeasureEnsemble(gen, 3, []int{2}, Distinct, Protocol{NSource: 2, NRcvr: 2, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 3 {
		t.Fatalf("generator seeds not distinct: %v", seeds)
	}
}

func TestMeasureEnsembleDeterministicAcrossWorkers(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) {
		return topology.TransitStubSized(120, 3.6, seed)
	}
	var ref []Point
	for _, workers := range []int{1, 2, 8} {
		pts, err := MeasureEnsemble(gen, 5, []int{1, 8, 30}, Distinct,
			Protocol{NSource: 4, NRcvr: 4, Seed: 11, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = pts
			continue
		}
		for i := range pts {
			if pts[i] != ref[i] {
				t.Fatalf("workers=%d point %d: %+v vs %+v", workers, i, pts[i], ref[i])
			}
		}
	}
}

func TestMeasureEnsembleSingleNetworkMatchesCurve(t *testing.T) {
	g, err := topology.TransitStubSized(120, 3.6, 77)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(seed int64) (*graph.Graph, error) { return g, nil }
	p := Protocol{NSource: 6, NRcvr: 6, Seed: 4}
	ens, err := MeasureEnsemble(gen, 1, []int{10}, Distinct, p)
	if err != nil {
		t.Fatal(err)
	}
	// The ensemble reseeds the protocol per network, so values differ from a
	// direct call, but structure must match.
	if ens[0].Samples != 36 || ens[0].MeanRatio <= 1 {
		t.Fatalf("point = %+v", ens[0])
	}
}

func TestMeasureEnsembleErrors(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) {
		return topology.TransitStubSized(100, 3.6, seed)
	}
	if _, err := MeasureEnsemble(nil, 2, []int{1}, Distinct, Protocol{NSource: 1, NRcvr: 1}); !valid.IsParam(err) {
		t.Fatalf("nil generator: err = %v, want a parameter error", err)
	}
	if _, err := MeasureEnsemble(gen, 0, []int{1}, Distinct, Protocol{NSource: 1, NRcvr: 1}); !valid.IsParam(err) {
		t.Fatalf("nNetworks=0: err = %v, want a parameter error", err)
	}
	if _, err := MeasureEnsemble(gen, 2, []int{1}, Distinct, Protocol{}); err == nil {
		t.Fatal("bad protocol must error")
	}
	failing := func(seed int64) (*graph.Graph, error) { return nil, errors.New("boom") }
	if _, err := MeasureEnsemble(failing, 2, []int{1}, Distinct, Protocol{NSource: 1, NRcvr: 1}); err == nil {
		t.Fatal("generator failure must propagate")
	}
}

func TestMeasureEnsembleReducesVariance(t *testing.T) {
	// Averaging across networks must not inflate the spread: the ensemble
	// mean of ratios at a fixed m should be stable across two disjoint
	// ensembles, more stable than two single-network runs.
	gen := func(seed int64) (*graph.Graph, error) {
		return topology.TransitStubSized(150, 3.6, seed)
	}
	run := func(seed int64, nets int) float64 {
		pts, err := MeasureEnsemble(gen, nets, []int{20}, Distinct, Protocol{NSource: 4, NRcvr: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return pts[0].MeanRatio
	}
	a1, a2 := run(1, 6), run(2, 6)
	diffEnsemble := math.Abs(a1 - a2)
	b1, b2 := run(3, 1), run(4, 1)
	diffSingle := math.Abs(b1 - b2)
	// Not a strict guarantee per draw, but with 6× the networks the ensemble
	// gap should not be dramatically larger than the single-network gap.
	if diffEnsemble > 3*diffSingle+0.5 {
		t.Fatalf("ensemble spread %.3f vs single %.3f", diffEnsemble, diffSingle)
	}
}
