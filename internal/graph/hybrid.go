package graph

import (
	"math/bits"
	"sync"
)

// This file implements the direction-optimizing BFS kernel (Beamer, Asanović,
// Patterson, SC'12): a level-synchronous traversal that runs conventional
// top-down steps while the frontier is small and switches to bottom-up steps
// — every *unvisited* node scans its own adjacency for a parent on the
// frontier — once the frontier carries more edges than the unexplored
// remainder. On the low-diameter topologies the paper measures (transit-stub,
// tiers, power-law), one or two middle BFS levels contain almost every node,
// and the bottom-up pass touches each of them through at most a handful of
// adjacency probes instead of scanning every frontier edge.
//
// Determinism: top-down steps scan the whole frontier and keep the
// lowest-index previous-level neighbor as each discovered node's parent;
// bottom-up steps scan unvisited nodes in index order and adopt the
// lowest-index parent on the previous level (CSR adjacency is sorted, so the
// first hit is the minimum). Dist arrays are identical to the reference
// queue BFS by construction (level-synchronous expansion visits exactly the
// distance-d set at step d), and Parent arrays are the same canonical
// lowest-index parents every kernel in this package produces — so the SPT is
// a pure function of (graph, source) independent of kernel routing.

const (
	// bfsAlpha triggers the top-down → bottom-up switch: the frontier's
	// incident edge count must exceed 1/bfsAlpha of the edges incident to
	// still-unexplored nodes (Beamer's α heuristic).
	bfsAlpha = 14
	// bfsBeta triggers the bottom-up → top-down switch back: the frontier
	// has shrunk below N/bfsBeta nodes (Beamer's β heuristic).
	bfsBeta = 24
)

// directionOptThreshold is the node count above which BFSInto routes to the
// direction-optimizing kernel. Below it the plain queue BFS wins: the bitset
// bookkeeping costs more than it saves on graphs that fit in L1/L2.
const directionOptThreshold = 2048

// bfsScratch holds the single-source kernels' bitsets and adjacency decode
// buffer between runs so steady-state traversal allocates nothing.
type bfsScratch struct {
	visited []uint64
	front   []uint64 // previous-level membership for bottom-up probes
	dec     []int32  // compressed-layout decode buffer, cap >= g.maxDeg
}

var bfsScratchPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// getBFSScratch takes a pooled scratch sized for a words-word bitset and
// g's decode width. The bitsets are returned dirty; callers zero what they
// use and put the scratch back when done.
func getBFSScratch(g *Graph, words int) *bfsScratch {
	sc := bfsScratchPool.Get().(*bfsScratch)
	if cap(sc.visited) < words {
		sc.visited = make([]uint64, words)
		sc.front = make([]uint64, words)
	}
	if cap(sc.dec) < int(g.maxDeg) {
		sc.dec = make([]int32, g.maxDeg)
	}
	return sc
}

// hybridBFSInto runs the direction-optimizing kernel. The caller (BFSInto)
// has already validated the source, sized Parent/Dist to N, filled both with
// Unreachable, truncated Order, and set t.Source.
func (g *Graph) hybridBFSInto(source int, t *SPT) {
	n := g.N()
	words := (n + 63) / 64
	sc := getBFSScratch(g, words)
	defer bfsScratchPool.Put(sc)
	visited := sc.visited[:words]
	front := sc.front[:words]
	dec := sc.dec
	for i := range visited {
		visited[i] = 0
	}

	t.Dist[source] = 0
	t.Parent[source] = int32(source)
	t.Order = append(t.Order, int32(source))
	visited[source>>6] |= 1 << (uint(source) & 63)

	// t.Order doubles as the frontier store: the nodes at distance d are
	// exactly Order[levelStart:levelEnd], in the order the kernel produced
	// them.
	levelStart, levelEnd := 0, 1
	frontierEdges := int64(g.Degree(source))
	unexploredEdges := int64(g.offsets[n]) - frontierEdges
	bottomUp := false
	for dist := int32(1); levelStart < levelEnd; dist++ {
		if !bottomUp {
			if frontierEdges > unexploredEdges/bfsAlpha {
				bottomUp = true
			}
		} else if int64(levelEnd-levelStart) < int64(n)/bfsBeta {
			bottomUp = false
		}
		var nextEdges int64
		if bottomUp {
			// Bottom-up step: every unvisited node v probes its sorted
			// adjacency for a neighbor on the previous level. Membership is
			// a dense bitset (built from the level's Order slice), so each
			// probe touches one bit instead of a 4-byte Dist word. Nodes
			// discovered earlier in this same step are only in `visited`,
			// never in `front`, so the step stays level-synchronous
			// regardless of scan order, and the first hit in the sorted
			// adjacency is the lowest-index parent.
			for i := range front {
				front[i] = 0
			}
			for _, u := range t.Order[levelStart:levelEnd] {
				front[u>>6] |= 1 << (uint(u) & 63)
			}
			for wi := 0; wi < words; wi++ {
				unv := ^visited[wi]
				if wi == words-1 && n&63 != 0 {
					unv &= (1 << (uint(n) & 63)) - 1
				}
				for unv != 0 {
					v := wi<<6 + bits.TrailingZeros64(unv)
					unv &= unv - 1
					for _, u := range g.NeighborsInto(v, dec) {
						if front[u>>6]&(1<<(uint(u)&63)) != 0 {
							t.Dist[v] = dist
							t.Parent[v] = u
							visited[wi] |= 1 << (uint(v) & 63)
							t.Order = append(t.Order, int32(v))
							nextEdges += int64(g.Degree(v))
							break
						}
					}
				}
			}
		} else {
			// Top-down step: expand the frontier through the visited
			// bitset (one bit per membership probe instead of a 4-byte
			// Dist load). The else-branch keeps parents canonical: every
			// previous-level neighbor of a node discovered this step is on
			// the frontier and therefore scanned, so the running minimum
			// settles on the lowest-index one.
			for i := levelStart; i < levelEnd; i++ {
				u := t.Order[i]
				for _, w := range g.NeighborsInto(int(u), dec) {
					if visited[w>>6]&(1<<(uint(w)&63)) == 0 {
						visited[w>>6] |= 1 << (uint(w) & 63)
						t.Dist[w] = dist
						t.Parent[w] = u
						t.Order = append(t.Order, w)
						nextEdges += int64(g.Degree(int(w)))
					} else if t.Dist[w] == dist && u < t.Parent[w] {
						t.Parent[w] = u
					}
				}
			}
		}
		levelStart = levelEnd
		levelEnd = len(t.Order)
		unexploredEdges -= nextEdges
		frontierEdges = nextEdges
	}
}
