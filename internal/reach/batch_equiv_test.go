package reach

import (
	"context"
	"errors"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/topology"
)

// route is one way MeasureAveragedCached can resolve trees: the slab cap it
// runs under and the SPT cache it is given.
type route struct {
	name string
	cap  int64
	spts *graph.SPTCache
}

// routes returns per-source BFS (forced by a zero slab cap), MS-BFS slabs,
// and a fresh SPT cache.
func routes() []route {
	return []route{
		{"fallback", 0, nil},
		{"slab", graph.MaxBatchSlabBytes, nil},
		{"cache", graph.MaxBatchSlabBytes, graph.NewSPTCache(1 << 30)},
	}
}

// measureRoutes runs MeasureAveragedCached on g through every route and
// returns the results keyed by route.
func measureRoutes(t *testing.T, g *graph.Graph, nSources int, seed int64) map[string]*Reachability {
	t.Helper()
	prev := batchSlabCap
	defer func() { batchSlabCap = prev }()
	out := map[string]*Reachability{}
	for _, tc := range routes() {
		batchSlabCap = tc.cap
		r, err := MeasureAveragedCached(context.Background(), g, nSources, seed, tc.spts)
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
// per-source BFS fallback, with one 64-source group and with several.
func TestMeasureAveragedBatchByteIdentical(t *testing.T) {
	g, err := topology.TransitStubSized(400, 3.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, nSources := range []int{25, 150} {
		got := measureRoutes(t, g, nSources, 917)
		for _, name := range []string{"slab", "cache"} {
			sameS(t, name, got[name], got["fallback"])
		}
	}
}

// A cancelled context stops MeasureAveragedCached before its first
// traversal on every route: it returns context.Canceled and leaves the SPT
// cache empty.
func TestMeasureAveragedCancelled(t *testing.T) {
	g, err := topology.TransitStubSized(400, 3.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := batchSlabCap
	defer func() { batchSlabCap = prev }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range routes() {
		batchSlabCap = tc.cap
		r, err := MeasureAveragedCached(ctx, g, 100, 917, tc.spts)
		if !errors.Is(err, context.Canceled) || r != nil {
			t.Fatalf("%s: got (%v, %v), want (nil, context.Canceled)", tc.name, r, err)
		}
		if tc.spts != nil {
			if st := tc.spts.Stats(); st.Entries != 0 || st.Misses != 0 {
				t.Fatalf("%s: cache holds %d trees (%d misses) after a cancelled measurement", tc.name, st.Entries, st.Misses)
			}
		}
	}
}
