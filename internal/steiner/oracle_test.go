package steiner

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// oracleTree is the original map-based KMB implementation, kept verbatim
// (one fresh BFS per terminal, map-backed edge set, adjacency, parents and
// pruning) as the reference the Solver must match edge for edge.
func oracleTree(g *graph.Graph, source int, receivers []int32) ([]Edge, error) {
	if source < 0 || source >= g.N() {
		return nil, fmt.Errorf("steiner: source %d out of range [0,%d)", source, g.N())
	}
	// Deduplicate terminals.
	seen := map[int32]bool{int32(source): true}
	terminals := []int32{int32(source)}
	for _, r := range receivers {
		if r < 0 || int(r) >= g.N() {
			return nil, fmt.Errorf("steiner: receiver %d out of range [0,%d)", r, g.N())
		}
		if !seen[r] {
			seen[r] = true
			terminals = append(terminals, r)
		}
	}
	if len(terminals) > MaxTerminals {
		return nil, fmt.Errorf("steiner: %d terminals exceed limit %d", len(terminals), MaxTerminals)
	}
	if len(terminals) == 1 {
		return nil, nil
	}

	// 1. Metric closure: one BFS per terminal.
	spts := make([]*graph.SPT, len(terminals))
	for i, t := range terminals {
		spt, err := g.BFS(int(t))
		if err != nil {
			return nil, err
		}
		spts[i] = spt
		if i > 0 && spt.Dist[terminals[0]] == graph.Unreachable {
			return nil, fmt.Errorf("steiner: terminal %d unreachable from source", t)
		}
	}

	// 2. Prim's MST over the terminal closure (O(t²)).
	t := len(terminals)
	inMST := make([]bool, t)
	bestDist := make([]int32, t)
	bestFrom := make([]int, t)
	for i := range bestDist {
		bestDist[i] = math.MaxInt32
	}
	inMST[0] = true
	for i := 1; i < t; i++ {
		bestDist[i] = spts[0].Dist[terminals[i]]
		bestFrom[i] = 0
	}
	type mstEdge struct{ a, b int } // indices into terminals
	mst := make([]mstEdge, 0, t-1)
	for added := 1; added < t; added++ {
		next := -1
		for i := 0; i < t; i++ {
			if !inMST[i] && (next == -1 || bestDist[i] < bestDist[next]) {
				next = i
			}
		}
		if next == -1 || bestDist[next] == math.MaxInt32 {
			return nil, fmt.Errorf("steiner: terminals not mutually reachable")
		}
		inMST[next] = true
		mst = append(mst, mstEdge{bestFrom[next], next})
		for i := 0; i < t; i++ {
			if !inMST[i] {
				if d := spts[next].Dist[terminals[i]]; d != graph.Unreachable && d < bestDist[i] {
					bestDist[i] = d
					bestFrom[i] = next
				}
			}
		}
	}

	// 3. Expand MST edges into shortest paths; collect the edge union.
	edgeSet := map[Edge]bool{}
	for _, e := range mst {
		// Walk from terminals[e.b] toward terminals[e.a] in e.a's SPT.
		spt := spts[e.a]
		v := terminals[e.b]
		for v != terminals[e.a] {
			p := spt.Parent[v]
			edgeSet[canon(v, p)] = true
			v = p
		}
	}

	// 4+5. The expanded union is connected and spans all terminals; take a
	// spanning tree of it (BFS from the source over union edges) and prune
	// non-terminal leaves.
	adj := map[int32][]int32{}
	for e := range edgeSet {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	parent := map[int32]int32{int32(source): int32(source)}
	order := []int32{int32(source)}
	for head := 0; head < len(order); head++ {
		u := order[head]
		ns := adj[u]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] }) // deterministic
		for _, w := range ns {
			if _, ok := parent[w]; !ok {
				parent[w] = u
				order = append(order, w)
			}
		}
	}
	// Children counts for pruning.
	childCount := map[int32]int{}
	for v, p := range parent {
		if v != p {
			childCount[p]++
		}
	}
	removed := map[int32]bool{}
	// Iteratively remove non-terminal leaves.
	queue := make([]int32, 0)
	for v := range parent {
		if childCount[v] == 0 && !seen[v] {
			queue = append(queue, v)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if removed[v] || seen[v] || childCount[v] != 0 {
			continue
		}
		removed[v] = true
		p := parent[v]
		childCount[p]--
		if childCount[p] == 0 && !seen[p] && p != parent[p] {
			queue = append(queue, p)
		}
	}
	var out []Edge
	for v, p := range parent {
		if v == p || removed[v] {
			continue
		}
		out = append(out, canon(v, p))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out, nil
}

// sliceResolver resolves every tree of g once, through the MS-BFS cache
// fill ext-steiner uses, and serves them from a slice indexed by node.
func sliceResolver(t testing.TB, g *graph.Graph) Resolver {
	t.Helper()
	c := graph.NewSPTCache(1 << 30)
	all := make([]int, g.N())
	for v := range all {
		all[v] = v
	}
	if err := c.FillBatch(g, all); err != nil {
		t.Fatal(err)
	}
	spts := make([]*graph.SPT, g.N())
	for v := range spts {
		spt, err := c.Get(g, v)
		if err != nil {
			t.Fatal(err)
		}
		spts[v] = spt
	}
	return func(v int) (*graph.SPT, error) { return spts[v], nil }
}

// checkAgainstOracle asserts that s returns the oracle's edge set, that the
// edges form a valid Steiner tree, and that Size agrees with the edge count.
func checkAgainstOracle(t *testing.T, g *graph.Graph, s *Solver, source int, recv []int32) {
	t.Helper()
	want, err := oracleTree(g, source, recv)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	got, err := s.Tree(source, recv)
	if err != nil {
		t.Fatalf("solver: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("source %d recv %v: solver %d edges, oracle %d", source, recv, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("source %d recv %v: edge %d is %v, oracle %v", source, recv, i, got[i], want[i])
		}
	}
	if err := Validate(g, source, recv, got); err != nil {
		t.Fatal(err)
	}
	size, err := s.Size(source, recv)
	if err != nil {
		t.Fatal(err)
	}
	if size != len(got) {
		t.Fatalf("Size %d, Tree has %d edges", size, len(got))
	}
}

// fuzzGraph builds a small connected graph from bytes: data[0] picks the
// node count, the next bytes pick each node's spanning-tree parent, and the
// remaining byte pairs add extra edges (self-loops and duplicates are
// dropped by the builder).
func fuzzGraph(data []byte) *graph.Graph {
	n := 2
	if len(data) > 0 {
		n = 2 + int(data[0])%62
		data = data[1:]
	}
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		p := 0
		if v-1 < len(data) {
			p = int(data[v-1]) % v
		}
		_ = b.AddEdge(v, p)
	}
	rest := data[min(len(data), n-1):]
	for i := 0; i+1 < len(rest); i += 2 {
		_ = b.AddEdge(int(rest[i])%n, int(rest[i+1])%n)
	}
	return b.Build()
}

// FuzzKMBEquivalence checks the Solver against the map-based oracle on
// arbitrary small connected graphs, sources and receiver lists (duplicates
// included), with terminal trees from g.BFS and from the MS-BFS cache fill.
// Each Solver is reused for a second receiver set to exercise its scratch.
func FuzzKMBEquivalence(f *testing.F) {
	f.Add([]byte{}, []byte{1}, uint8(0))
	f.Add([]byte{8, 0, 1, 2, 3, 4, 5, 6}, []byte{7, 7, 3, 0}, uint8(0))
	f.Add([]byte{20, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}, []byte{1, 2, 3, 2, 1}, uint8(5))
	f.Add([]byte("a ring of nodes with chords and more chords"), []byte("receivers, with repeats"), uint8(17))
	f.Add([]byte{63, 9, 200, 31, 4, 77, 12, 90, 3, 3, 150, 22}, []byte{255, 254, 0, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(200))
	f.Fuzz(func(t *testing.T, graphBytes, recvBytes []byte, src uint8) {
		if len(graphBytes) > 512 {
			graphBytes = graphBytes[:512]
		}
		if len(recvBytes) > 256 {
			recvBytes = recvBytes[:256]
		}
		g := fuzzGraph(graphBytes)
		source := int(src) % g.N()
		recv := make([]int32, 0, len(recvBytes)+1)
		for _, b := range recvBytes {
			recv = append(recv, int32(b)%int32(g.N()))
		}
		if len(recv) > 0 {
			recv = append(recv, recv[0])
		}
		for _, s := range []*Solver{NewSolver(g.N(), g.BFS), NewSolver(g.N(), sliceResolver(t, g))} {
			checkAgainstOracle(t, g, s, source, recv)
			half := recv[:len(recv)/2]
			checkAgainstOracle(t, g, s, (source+1)%g.N(), half)
		}
	})
}

// TestSolverMatchesOracle runs the equivalence check on larger random graphs
// and a transit-stub topology than the fuzz seeds reach, with one reused
// Solver per graph.
func TestSolverMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randGraph(seed, 150, int(seed)*60)
		s := NewSolver(g.N(), sliceResolver(t, g))
		r := rng.New(seed + 100)
		for rep := 0; rep < 25; rep++ {
			m := 1 + r.Intn(60)
			recv := make([]int32, m)
			for i := range recv {
				recv[i] = int32(r.Intn(g.N()))
			}
			checkAgainstOracle(t, g, s, r.Intn(g.N()), recv)
		}
	}
}

// kmbFixture is a transit-stub topology with every tree resolved once and a
// 100-receiver set: the shape of one ext-steiner sample.
func kmbFixture(tb testing.TB) (*Solver, int, []int32) {
	tb.Helper()
	g, err := topology.TransitStubSized(1000, 3.6, 5)
	if err != nil {
		tb.Fatal(err)
	}
	smp, err := mcast.NewSampler(g.N(), 0, rng.New(3))
	if err != nil {
		tb.Fatal(err)
	}
	recv, err := smp.Distinct(100, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return NewSolver(g.N(), sliceResolver(tb, g)), 0, recv
}

func TestSolverZeroAlloc(t *testing.T) {
	s, source, recv := kmbFixture(t)
	if _, err := s.Size(source, recv); err != nil { // warm the scratch
		t.Fatal(err)
	}
	var err error
	allocs := testing.AllocsPerRun(50, func() {
		_, err = s.Size(source, recv)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("warmed Solver.Size allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkKMB measures one KMB tree (101 terminals on a 1000-node
// transit-stub graph) with terminal trees already resolved.
func BenchmarkKMB(b *testing.B) {
	s, source, recv := kmbFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Size(source, recv); err != nil {
			b.Fatal(err)
		}
	}
}
