package affinity

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// The all-pairs distance matrix is built through the MS-BFS kernel, as a
// cache pre-fill or straight off a 64-lane slab (the test graph spans two
// slabs). Both must equal per-source g.BFS distances, and two chains built
// with the same seed must then walk the same trajectory step for step.
func TestGraphChainBatchByteIdentical(t *testing.T) {
	g := smallGraph(t)
	build := func(spts *graph.SPTCache) *GraphChain {
		t.Helper()
		c, err := NewGraphChainCached(g, 0, 12, 0.8, rng.New(5), spts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := build(nil)
	variants := map[string]*GraphChain{
		"slab":  ref,
		"cache": build(graph.NewSPTCache(1 << 30)),
	}
	for u := 0; u < g.N(); u++ {
		spt, err := g.BFS(u)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range variants {
			for v, d := range spt.Dist {
				if int32(c.dist[u][v]) != d {
					t.Fatalf("%s: dist[%d][%d] = %d, want BFS %d", name, u, v, c.dist[u][v], d)
				}
			}
		}
	}
	c := variants["cache"]
	for sweep := 0; sweep < 20; sweep++ {
		ref.Sweep()
		c.Sweep()
		if c.AvgPairDist() != ref.AvgPairDist() || c.TreeSize() != ref.TreeSize() {
			t.Fatalf("cache diverged at sweep %d: d̂=%v tree=%d, want d̂=%v tree=%d",
				sweep, c.AvgPairDist(), c.TreeSize(), ref.AvgPairDist(), ref.TreeSize())
		}
		got, want := c.Positions(), ref.Positions()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cache diverged at sweep %d: positions[%d] = %d, want %d", sweep, i, got[i], want[i])
			}
		}
	}
	for name, c := range variants {
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}
