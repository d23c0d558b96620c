package reach

import (
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

// measureRoutes runs MeasureAveragedCached on g through each way it can
// resolve trees — per-source BFS (forced by a zero slab cap), one MS-BFS
// slab, and a fresh SPT cache — and returns the results keyed by route.
func measureRoutes(t *testing.T, g *graph.Graph, nSources int, seed int64) map[string]*Reachability {
	t.Helper()
	prev := batchSlabCap
	defer func() { batchSlabCap = prev }()
	out := map[string]*Reachability{}
	for _, tc := range []struct {
		name string
		cap  int64
		spts *graph.SPTCache
	}{
		{"fallback", 0, nil},
		{"slab", graph.MaxBatchSlabBytes, nil},
		{"cache", graph.MaxBatchSlabBytes, graph.NewSPTCache(1 << 30)},
	} {
		batchSlabCap = tc.cap
		r, err := MeasureAveragedCached(g, nSources, seed, tc.spts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out[tc.name] = r
	}
	return out
}

// sameS fails the test unless got and want are bit-identical.
func sameS(t *testing.T, name string, got, want *Reachability) {
	t.Helper()
	if len(got.S) != len(want.S) {
		t.Fatalf("%s: %d radii, want %d", name, len(got.S), len(want.S))
	}
	for d := range want.S {
		if got.S[d] != want.S[d] {
			t.Fatalf("%s: S(%d) = %v, want %v", name, d, got.S[d], want.S[d])
		}
	}
}

// The route MeasureAveragedCached takes must not change a single bit of
// S(r): sources are pre-drawn from the same stream, and histogram counts are
// exact integers in float64. Compare the slab and cache routes against the
// per-source BFS fallback.
func TestMeasureAveragedBatchByteIdentical(t *testing.T) {
	g, err := topology.TransitStubSized(400, 3.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := measureRoutes(t, g, 25, 917)
	for _, name := range []string{"slab", "cache"} {
		sameS(t, name, got[name], got["fallback"])
	}
}
