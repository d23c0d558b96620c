package graph

import (
	"fmt"
	"math"
	"slices"

	"mtreescale/internal/valid"
)

// This file implements the compressed-CSR layout behind the large-graph mode:
// adjacency stored as varint deltas (adjcodec.go), vertex ids and neighbor
// order unchanged. The BFS kernels read it through NeighborsInto, the same
// per-vertex branch as the flat layout, so a compressed graph is
// observationally identical to its source — only MemBytes and traversal
// speed differ.

// Compressed reports whether g stores its adjacency varint-delta encoded.
func (g *Graph) Compressed() bool { return g.cadj != nil }

// Compress returns a compressed copy of g: varint delta-encoded adjacency.
// relabel must be false; the degree-relabeled layout it once selected cost
// memory and time on every measured workload and was removed, so true is
// rejected with a parameter error. Compressing an already-compressed graph
// returns it unchanged. The original graph is untouched; callers building
// large graphs should drop their reference to it after compressing, bringing
// peak RSS to roughly the uncompressed CSR plus the (smaller) compressed one.
func (g *Graph) Compress(relabel bool) (*Graph, error) {
	if relabel {
		return nil, valid.Badf("graph: Compress(true): the degree-relabeled layout is not supported")
	}
	if g.cadj != nil {
		return g, nil
	}
	n := g.N()
	if n < 0 {
		n = 0
	}
	offsets := make([]int32, n+1)
	copy(offsets, g.offsets)
	coff := make([]uint32, n+1)
	// Seed capacity at ~1.25 B per directed entry; typical encodings land
	// near there, and append growth covers the rest.
	cadj := make([]byte, 0, len(g.adj)+len(g.adj)/4)
	var maxDeg int32
	for v := 0; v < n; v++ {
		neigh := g.adj[g.offsets[v]:g.offsets[v+1]]
		maxDeg = max(maxDeg, int32(len(neigh)))
		cadj = appendAdj(cadj, int32(v), neigh)
		if len(cadj) > math.MaxUint32 {
			return nil, fmt.Errorf("graph: compressed adjacency exceeds 4 GiB (%d directed entries)", len(g.adj))
		}
		coff[v+1] = uint32(len(cadj))
	}
	return &Graph{
		offsets: offsets,
		name:    g.name,
		cadj:    slices.Clip(cadj),
		coff:    coff,
		maxDeg:  maxDeg,
	}, nil
}

// MaxDegree returns the graph's maximum degree. For compressed graphs it is
// precomputed (kernels size their decode scratch with it); for flat graphs
// it is an O(N) scan.
func (g *Graph) MaxDegree() int {
	if g.cadj != nil {
		return int(g.maxDeg)
	}
	maxd := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	return maxd
}

// decodeNeighbors decodes v's sorted neighbor list into buf, growing it only
// when cap(buf) is below v's degree. It is the compressed side of
// NeighborsInto.
func (g *Graph) decodeNeighbors(v int, buf []int32) []int32 {
	deg := g.Degree(v)
	if cap(buf) < deg {
		buf = make([]int32, deg)
	}
	return decodeAdjInto(g.cadj[g.coff[v]:g.coff[v+1]], int32(v), deg, buf)
}
