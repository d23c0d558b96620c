// Package steiner implements the Kou-Markowsky-Berman (KMB) 2-approximation
// for Steiner trees on unweighted graphs. It is the cost-optimal baseline
// for multicast trees: the paper measures shortest-path (source-rooted)
// trees, which Wei-Estrin showed cost only slightly more than Steiner
// trees; this package lets the repository reproduce that comparison and
// test whether the Chuang-Sirbu exponent survives a near-optimal routing
// algorithm.
//
// KMB: (1) build the metric closure over the terminals, (2) take its
// minimum spanning tree, (3) expand MST edges into shortest paths, (4) take
// a spanning tree of the expanded subgraph, (5) prune non-terminal leaves.
// The result is within 2× (in fact 2−2/|Z|) of the optimal Steiner tree.
//
// The metric closure reads one shortest-path tree per terminal from a
// caller-supplied resolver, so a caller measuring many samples on one graph
// resolves every tree once (ext-steiner pre-fills all of them) and each
// sample costs Prim's O(t²) over its t terminals plus the expanded paths.
package steiner

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"mtreescale/internal/graph"
)

// MaxTerminals bounds the number of distinct terminals per tree; the metric
// closure costs one shortest-path tree and one distance row per terminal.
const MaxTerminals = 4096

// Edge is an undirected link with U < V.
type Edge struct{ U, V int32 }

// Resolver returns the shortest-path tree rooted at a node. The returned
// tree is only read. g.BFS is a resolver; so is a lookup into trees
// resolved once up front.
type Resolver func(source int) (*graph.SPT, error)

// Solver computes KMB Steiner trees on graphs of n nodes, reading terminal
// trees from its resolver. Its scratch (epoch-stamped per-node marks, the
// Prim arrays, the expanded arc list) is reused across calls, so a warmed
// Solver allocates nothing in Size. A Solver is not safe for concurrent
// use; give each goroutine its own.
type Solver struct {
	n       int
	resolve Resolver

	// Per-node marks: mark[v] == epoch means v is stamped in this call.
	epoch    int32
	terminal []int32 // v is a terminal (deduplicates receivers)
	visited  []int32 // v is reached by the spanning-tree BFS
	kept     []int32 // v survives pruning
	arcStart []int32 // index of v's first arc in arcs, for v in the union
	parent   []int32 // spanning-tree parent of a visited node

	// Per-terminal scratch, indexed like terminals.
	terminals []int32
	spts      []*graph.SPT
	inMST     []bool
	bestDist  []int32
	bestFrom  []int32
	mst       []mstEdge

	// arcs holds both directions of every expanded path edge, packed as
	// u<<32 | w, sorted so each node's neighbours are ascending.
	arcs  []uint64
	order []int32 // BFS queue of the spanning tree
}

// mstEdge is a closure MST edge as indices into terminals.
type mstEdge struct{ a, b int }

// NewSolver returns a Solver for graphs of n nodes whose terminal trees come
// from resolve.
func NewSolver(n int, resolve Resolver) *Solver {
	return &Solver{
		n:        n,
		resolve:  resolve,
		terminal: make([]int32, n),
		visited:  make([]int32, n),
		kept:     make([]int32, n),
		arcStart: make([]int32, n),
		parent:   make([]int32, n),
	}
}

// Size returns the number of links in the KMB approximate Steiner tree
// spanning the source and all receivers. Duplicate receivers are fine. All
// terminals must be mutually reachable.
func (s *Solver) Size(source int, receivers []int32) (int, error) {
	return s.solve(source, receivers, nil)
}

// Tree returns the edge set of the KMB approximate Steiner tree spanning the
// source and all receivers, sorted by (U, V).
func (s *Solver) Tree(source int, receivers []int32) ([]Edge, error) {
	var edges []Edge
	if _, err := s.solve(source, receivers, &edges); err != nil {
		return nil, err
	}
	slices.SortFunc(edges, func(a, b Edge) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
	return edges, nil
}

// stamp starts a new call epoch; the marks are only re-zeroed on the
// (practically unreachable) epoch wrap.
func (s *Solver) stamp() {
	if s.epoch == math.MaxInt32 {
		for _, m := range [][]int32{s.terminal, s.visited, s.kept} {
			clear(m)
		}
		s.epoch = 0
	}
	s.epoch++
}

// solve returns the link count of the KMB tree and, when edges is non-nil,
// appends the tree's links to it in no particular order.
func (s *Solver) solve(source int, receivers []int32, edges *[]Edge) (int, error) {
	if source < 0 || source >= s.n {
		return 0, fmt.Errorf("steiner: source %d out of range [0,%d)", source, s.n)
	}
	s.stamp()
	ep := s.epoch
	// Deduplicate terminals, keeping first-appearance order.
	s.terminal[source] = ep
	terminals := append(s.terminals[:0], int32(source))
	for _, r := range receivers {
		if r < 0 || int(r) >= s.n {
			s.terminals = terminals
			return 0, fmt.Errorf("steiner: receiver %d out of range [0,%d)", r, s.n)
		}
		if s.terminal[r] != ep {
			s.terminal[r] = ep
			terminals = append(terminals, r)
		}
	}
	s.terminals = terminals
	if len(terminals) > MaxTerminals {
		return 0, fmt.Errorf("steiner: %d terminals exceed limit %d", len(terminals), MaxTerminals)
	}
	if len(terminals) == 1 {
		return 0, nil
	}

	// 1. Metric closure: one resolved tree per terminal.
	t := len(terminals)
	s.spts = growTo(s.spts, t)
	for i, v := range terminals {
		spt, err := s.resolve(int(v))
		if err != nil {
			return 0, err
		}
		s.spts[i] = spt
		if i > 0 && spt.Dist[terminals[0]] == graph.Unreachable {
			return 0, fmt.Errorf("steiner: terminal %d unreachable from source", v)
		}
	}

	// 2. Prim's MST over the terminal closure (O(t²)); ties go to the lowest
	// terminal index.
	inMST := growTo(s.inMST, t)
	bestDist := growTo(s.bestDist, t)
	bestFrom := growTo(s.bestFrom, t)
	s.inMST, s.bestDist, s.bestFrom = inMST, bestDist, bestFrom
	row := s.spts[0].Dist
	inMST[0] = true
	for i := 1; i < t; i++ {
		inMST[i] = false
		bestDist[i] = row[terminals[i]]
		bestFrom[i] = 0
	}
	mst := s.mst[:0]
	for added := 1; added < t; added++ {
		next := -1
		for i := 1; i < t; i++ {
			if !inMST[i] && (next == -1 || bestDist[i] < bestDist[next]) {
				next = i
			}
		}
		if next == -1 || bestDist[next] == math.MaxInt32 {
			s.mst = mst
			return 0, fmt.Errorf("steiner: terminals not mutually reachable")
		}
		inMST[next] = true
		mst = append(mst, mstEdge{int(bestFrom[next]), next})
		row := s.spts[next].Dist
		for i := 1; i < t; i++ {
			if !inMST[i] {
				if d := row[terminals[i]]; d != graph.Unreachable && d < bestDist[i] {
					bestDist[i] = d
					bestFrom[i] = int32(next)
				}
			}
		}
	}
	s.mst = mst

	// 3. Expand MST edges into shortest paths: walk from terminals[e.b]
	// toward terminals[e.a] in e.a's tree, recording both arcs of each link.
	// Sorting packs each node's neighbours together in ascending order and
	// puts duplicate links side by side.
	arcs := s.arcs[:0]
	for _, e := range mst {
		spt := s.spts[e.a]
		v, root := terminals[e.b], terminals[e.a]
		for v != root {
			p := spt.Parent[v]
			arcs = append(arcs, pack(v, p), pack(p, v))
			v = p
		}
	}
	slices.Sort(arcs)
	arcs = slices.Compact(arcs)
	s.arcs = arcs
	for i := len(arcs) - 1; i >= 0; i-- {
		s.arcStart[arcs[i]>>32] = int32(i)
	}

	// 4. The expanded union is connected and spans all terminals; take its
	// spanning tree by BFS from the source, neighbours in ascending order.
	// Every node the BFS reaches (the source included) has an arc, so its
	// arcStart is set.
	src := int32(source)
	s.visited[src] = ep
	s.parent[src] = src
	order := append(s.order[:0], src)
	for head := 0; head < len(order); head++ {
		u := order[head]
		for i := int(s.arcStart[u]); i < len(arcs) && int32(arcs[i]>>32) == u; i++ {
			w := int32(uint32(arcs[i]))
			if s.visited[w] != ep {
				s.visited[w] = ep
				s.parent[w] = u
				order = append(order, w)
			}
		}
	}
	s.order = order

	// 5. Pruning non-terminal leaves to a fixed point keeps exactly the
	// nodes with a terminal in their subtree: the union of the tree paths
	// from every terminal up to the source.
	s.kept[src] = ep
	links := 0
	for _, v := range terminals[1:] {
		for s.kept[v] != ep {
			s.kept[v] = ep
			p := s.parent[v]
			if edges != nil {
				*edges = append(*edges, canon(v, p))
			}
			links++
			v = p
		}
	}
	return links, nil
}

// growTo returns buf resliced to length n, reallocating when it is short.
// Contents are not preserved.
func growTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

func pack(u, w int32) uint64 { return uint64(uint32(u))<<32 | uint64(uint32(w)) }

func canon(a, b int32) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{a, b}
}

// Validate checks that the edge list forms a tree spanning the source and
// every receiver using only edges of g. Tests and callers use it to audit
// Solver.Tree's output.
func Validate(g *graph.Graph, source int, receivers []int32, edges []Edge) error {
	adj := map[int32][]int32{}
	for _, e := range edges {
		if !g.HasEdge(int(e.U), int(e.V)) {
			return fmt.Errorf("steiner: edge (%d,%d) not in graph", e.U, e.V)
		}
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	// Connectivity from source over the edge set.
	visited := map[int32]bool{int32(source): true}
	stack := []int32{int32(source)}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[u] {
			if !visited[w] {
				visited[w] = true
				stack = append(stack, w)
			}
		}
	}
	for _, r := range receivers {
		if !visited[r] {
			return fmt.Errorf("steiner: receiver %d not spanned", r)
		}
	}
	// Tree check: |V| = |E| + 1 over touched nodes.
	nodes := map[int32]bool{}
	for _, e := range edges {
		nodes[e.U] = true
		nodes[e.V] = true
	}
	if len(edges) > 0 && len(nodes) != len(edges)+1 {
		return fmt.Errorf("steiner: %d nodes but %d edges — not a tree", len(nodes), len(edges))
	}
	return nil
}
