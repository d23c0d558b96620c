package mcast

import (
	"mtreescale/internal/graph"
)

// This file is the engines' one way to resolve source trees: a sweep's trees
// are computed through the multi-source BFS kernel in 64-lane batches
// *before* the worker fan-out, instead of one BFS inside each source job.
// Every kernel produces the same canonical trees, so the route taken never
// changes a result — only how fast the trees appear.

// batchSlabCap is graph.MaxBatchSlabBytes; tests lower it to force the
// per-source fallback.
var batchSlabCap int64 = graph.MaxBatchSlabBytes

// sourceTrees holds a sweep's resolved source trees: lane i is the
// shortest-path tree of sources[i]. It is built once per sweep and then only
// read, so workers share it without synchronization.
type sourceTrees struct {
	g       *graph.Graph
	sources []int
	cached  bool            // trees live in graph.SharedSPTs
	batch   *graph.SPTBatch // pooled slab; nil when cached or over the cap
}

// resolveBatch resolves a sweep's source trees up front:
//   - Protocol.SPTCache on: graph.SharedSPTs is pre-filled via FillBatch
//     (misses computed in 64-lane MS-BFS groups, inserted under the same keys
//     a per-source fill would use), and tree reads from the cache.
//   - otherwise, when the (sources × nodes) slab fits batchSlabCap: one
//     pooled slab holds every tree, and tree hands out zero-copy lane views.
//   - otherwise tree runs one BFSInto per source, the size-selected fallback.
//
// The caller must release() the result after the worker pool drains.
func resolveBatch(g *graph.Graph, sources []int, p Protocol) (*sourceTrees, error) {
	st := &sourceTrees{g: g, sources: sources, cached: p.SPTCache}
	switch {
	case len(sources) == 0:
	case st.cached:
		if err := graph.SharedSPTs.FillBatch(g, sources); err != nil {
			return nil, err
		}
	case int64(len(sources))*int64(g.N())*8 <= batchSlabCap:
		b := graph.AcquireSPTBatch()
		if err := g.BatchSPTsInto(sources, b); err != nil {
			graph.ReleaseSPTBatch(b)
			return nil, err
		}
		st.batch = b
	}
	return st, nil
}

// tree returns lane's shortest-path tree: a lane view written into view, the
// cached tree, or a fresh BFS into buf. The result is read-only; a lane view
// has a nil Order, which the measurement loops never read. view and buf must
// be distinct, and view must never be handed to BFSInto, so a slab alias
// cannot leak into a later BFS through pooled scratch.
func (st *sourceTrees) tree(lane int, view, buf *graph.SPT) (*graph.SPT, error) {
	switch {
	case st.batch != nil:
		st.batch.Lane(lane, view)
		return view, nil
	case st.cached:
		return graph.SharedSPTs.Get(st.g, st.sources[lane])
	default:
		if err := st.g.BFSInto(st.sources[lane], buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
}

// release returns the slab to the pool. Nil-safe so engines can defer it
// unconditionally; no lane view may be used afterwards.
func (st *sourceTrees) release() {
	if st != nil && st.batch != nil {
		graph.ReleaseSPTBatch(st.batch)
		st.batch = nil
	}
}
