package affinity

// Ablation benchmark for DESIGN.md §5 item 1: incremental O(depth)
// per-move MCMC bookkeeping vs recomputing the pairwise-distance sum and
// tree size from scratch (what a naive sampler would do after every move).

import (
	"context"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
)

// BenchmarkAblationMCMCIncremental measures the production move path.
func BenchmarkAblationMCMCIncremental(b *testing.B) {
	m, err := NewTreeModel(2, 12)
	if err != nil {
		b.Fatal(err)
	}
	c, err := m.NewChain(500, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkAblationMCMCIncrementalReject measures the move path where most
// proposals are rejected: strong affinity (β = 10) on a small group, after
// burn-in has clustered it, so the read-only Δ walk is nearly all the work.
func BenchmarkAblationMCMCIncrementalReject(b *testing.B) {
	m, err := NewTreeModel(2, 12)
	if err != nil {
		b.Fatal(err)
	}
	c, err := m.NewChain(20, 10, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Sweep()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
	b.ReportMetric(c.AcceptanceRate(), "accept")
}

// BenchmarkAffinitySweep9Medium measures the Figure 9 cell path end to end:
// one β row of the medium profile's sweep at D = 10 (16 log-spaced n up to
// 10000, 100 burn-in + 200 sample sweeps), fanned out over GOMAXPROCS.
func BenchmarkAffinitySweep9Medium(b *testing.B) {
	m, err := NewTreeModel(2, 10)
	if err != nil {
		b.Fatal(err)
	}
	ns := mcast.LogSpacedSizes(10000, 16)
	p := Params{BurnInSweeps: 100, SampleSweeps: 200, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Sweep9(context.Background(), m, []float64{1}, ns, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMCMCRecompute measures a from-scratch recomputation of
// the same bookkeeping (the per-move cost a non-incremental sampler pays).
func BenchmarkAblationMCMCRecompute(b *testing.B) {
	m, err := NewTreeModel(2, 12)
	if err != nil {
		b.Fatal(err)
	}
	c, err := m.NewChain(500, 1, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
		if err := c.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphChainStep measures the general-graph O(n) move.
func BenchmarkGraphChainStep(b *testing.B) {
	g := smallBenchGraph(b)
	c, err := NewGraphChain(g, 0, 200, 1, rng.New(2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

func smallBenchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	r := rng.New(9)
	gb := graph.NewBuilder(800)
	for v := 1; v < 800; v++ {
		_ = gb.AddEdge(v, r.Intn(v))
	}
	for i := 0; i < 1200; i++ {
		_ = gb.AddEdge(r.Intn(800), r.Intn(800))
	}
	return gb.Build()
}
