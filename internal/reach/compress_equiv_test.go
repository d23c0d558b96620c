package reach

import (
	"testing"

	"mtreescale/internal/topology"
)

// The compressed CSR layout must leave S(r) byte-identical: the same sources
// are drawn (layout never changes N), and the BFS distances are equal
// node-for-node, so every histogram count matches exactly — per-source,
// cached, or through the MS-BFS slab.
func TestMeasureAveragedCompressedByteIdentical(t *testing.T) {
	g, err := topology.TransitStubSized(400, 3.6, 8)
	if err != nil {
		t.Fatal(err)
	}
	const nSources, seed = 25, 917
	want := measureRoutes(t, g, nSources, seed)["fallback"]
	cg, err := g.Compress(false)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range measureRoutes(t, cg, nSources, seed) {
		sameS(t, name, got, want)
	}
}
