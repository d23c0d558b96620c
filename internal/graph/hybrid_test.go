package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"mtreescale/internal/rng"
)

// kernelSPT runs one single-source kernel directly, regardless of the
// routing threshold, with the same slice preparation BFSInto performs.
func kernelSPT(g *Graph, source int, kernel func(*Graph, int, *SPT)) *SPT {
	spt := &SPT{
		Source: source,
		Parent: make([]int32, g.N()),
		Dist:   make([]int32, g.N()),
	}
	for i := range spt.Parent {
		spt.Parent[i] = Unreachable
		spt.Dist[i] = Unreachable
	}
	kernel(g, source, spt)
	return spt
}

// hybridSPT runs the direction-optimizing kernel directly.
func hybridSPT(t testing.TB, g *Graph, source int) *SPT {
	t.Helper()
	return kernelSPT(g, source, (*Graph).hybridBFSInto)
}

// checkAgainstReference asserts the hybrid kernel's contract on one graph and
// source: Dist identical to the queue BFS, valid parents, Order sorted by
// distance and containing exactly the reachable set.
func checkAgainstReference(t *testing.T, g *Graph, source int) {
	t.Helper()
	want, err := g.BFS(source) // below threshold in tests: queue BFS
	if err != nil {
		t.Fatal(err)
	}
	got := hybridSPT(t, g, source)
	for v := 0; v < g.N(); v++ {
		if got.Dist[v] != want.Dist[v] {
			t.Fatalf("source %d node %d: hybrid dist %d, reference %d",
				source, v, got.Dist[v], want.Dist[v])
		}
	}
	checkParentValidity(t, g, got)
	if len(got.Order) != len(want.Order) {
		t.Fatalf("hybrid reached %d nodes, reference %d", len(got.Order), len(want.Order))
	}
	if got.Order[0] != int32(source) {
		t.Fatalf("order must start at source, got %d", got.Order[0])
	}
	for i := 1; i < len(got.Order); i++ {
		if got.Dist[got.Order[i]] < got.Dist[got.Order[i-1]] {
			t.Fatal("hybrid order not sorted by distance")
		}
	}
}

// checkParentValidity asserts Dist[Parent[v]] == Dist[v]-1 over a real edge
// for every reachable non-source node — the shortest-path-tree invariant the
// satellite tests require.
func checkParentValidity(t *testing.T, g *Graph, spt *SPT) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		if spt.Dist[v] == Unreachable {
			if spt.Parent[v] != Unreachable {
				t.Fatalf("unreachable node %d has parent %d", v, spt.Parent[v])
			}
			continue
		}
		if v == spt.Source {
			continue
		}
		p := spt.Parent[v]
		if p == Unreachable {
			t.Fatalf("reachable node %d has no parent", v)
		}
		if spt.Dist[p] != spt.Dist[v]-1 {
			t.Fatalf("node %d: Dist[Parent]=%d, want Dist-1=%d", v, spt.Dist[p], spt.Dist[v]-1)
		}
		if !g.HasEdge(v, int(p)) {
			t.Fatalf("parent link (%d,%d) is not an edge", v, p)
		}
	}
}

func TestHybridBFSMatchesReferenceRandom(t *testing.T) {
	f := func(seed int64, nRaw uint8, extraRaw uint8, srcRaw uint8) bool {
		n := int(nRaw%120) + 2
		g := randomGraph(seed, n, int(extraRaw))
		src := int(srcRaw) % n
		want, err := g.BFS(src)
		if err != nil {
			return false
		}
		got := hybridSPT(t, g, src)
		for v := 0; v < n; v++ {
			if got.Dist[v] != want.Dist[v] {
				return false
			}
			if got.Dist[v] != Unreachable && v != src {
				p := got.Parent[v]
				if p == Unreachable || got.Dist[p] != got.Dist[v]-1 || !g.HasEdge(v, int(p)) {
					return false
				}
			}
		}
		return len(got.Order) == len(want.Order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridBFSStar(t *testing.T) {
	// A star forces a one-level explosion: the classic bottom-up win.
	const leaves = 300
	b := NewBuilder(leaves + 1)
	for v := 1; v <= leaves; v++ {
		_ = b.AddEdge(0, v)
	}
	g := b.Build()
	checkAgainstReference(t, g, 0)
	checkAgainstReference(t, g, 17) // from a leaf: depth 2 through the hub
}

func TestHybridBFSPath(t *testing.T) {
	// A path is the bottom-up worst case; the α heuristic must keep the
	// kernel top-down and still produce the exact distances.
	g := path(t, 500)
	checkAgainstReference(t, g, 0)
	checkAgainstReference(t, g, 250)
}

func TestHybridBFSDisconnected(t *testing.T) {
	b := NewBuilder(200)
	for v := 1; v < 100; v++ {
		_ = b.AddEdge(v-1, v) // component A: path 0..99
	}
	for v := 101; v < 200; v++ {
		_ = b.AddEdge(100, v) // component B: star at 100
	}
	g := b.Build()
	checkAgainstReference(t, g, 0)
	checkAgainstReference(t, g, 100)
	spt := hybridSPT(t, g, 100)
	if spt.Dist[0] != Unreachable || spt.Parent[0] != Unreachable {
		t.Fatal("other component must stay unreachable")
	}
	if spt.Reachable() != 100 {
		t.Fatalf("reachable = %d, want 100", spt.Reachable())
	}
}

func TestHybridBFSSingleNodeAndDense(t *testing.T) {
	checkAgainstReference(t, NewBuilder(1).Build(), 0)
	// Near-complete graph: diameter 1-2, bottom-up from the first level.
	const n = 80
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v += 1 + u%3 {
			_ = b.AddEdge(u, v)
		}
	}
	g := b.Build()
	for src := 0; src < n; src += 13 {
		checkAgainstReference(t, g, src)
	}
}

func TestHybridBFSLowestIndexParentInBottomUp(t *testing.T) {
	// Two routes of equal length: bottom-up must adopt the lowest-index
	// parent. Star-of-stars: hub 0 — mids 1,2 — leaf 3 attached to both
	// mids. From 0, the leaf is at distance 2 with candidate parents {1,2}.
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(1, 3)
	_ = b.AddEdge(2, 3)
	g := b.Build()
	spt := hybridSPT(t, g, 0)
	if spt.Parent[3] != 1 {
		t.Fatalf("bottom-up tie must pick lowest-index parent 1, got %d", spt.Parent[3])
	}
}

func TestHybridBFSDeterministicAcrossRuns(t *testing.T) {
	g := randomGraph(42, 5000, 15000)
	first := hybridSPT(t, g, 123)
	for run := 0; run < 3; run++ {
		again := hybridSPT(t, g, 123)
		for v := 0; v < g.N(); v++ {
			if first.Dist[v] != again.Dist[v] || first.Parent[v] != again.Parent[v] {
				t.Fatalf("run %d: node %d diverged (dist %d/%d parent %d/%d)",
					run, v, first.Dist[v], again.Dist[v], first.Parent[v], again.Parent[v])
			}
		}
		for i := range first.Order {
			if first.Order[i] != again.Order[i] {
				t.Fatalf("run %d: order diverged at %d", run, i)
			}
		}
	}
}

func TestBFSIntoRoutesToHybridAboveThreshold(t *testing.T) {
	// Dist and Parent do not depend on the kernel, but the within-level
	// Order does, so Order shows which kernel BFSInto ran.
	for _, tc := range []struct {
		n           int
		want, other func(*Graph, int, *SPT)
	}{
		{directionOptThreshold, (*Graph).hybridBFSInto, (*Graph).serialBFSInto},
		{directionOptThreshold - 1, (*Graph).serialBFSInto, (*Graph).hybridBFSInto},
	} {
		g := randomGraph(7, tc.n, 3*tc.n)
		var routed SPT
		if err := g.BFSInto(5, &routed); err != nil {
			t.Fatal(err)
		}
		want, other := kernelSPT(g, 5, tc.want), kernelSPT(g, 5, tc.other)
		if !slices.Equal(routed.Order, want.Order) || slices.Equal(routed.Order, other.Order) {
			t.Fatalf("N=%d: BFSInto ran the wrong kernel", tc.n)
		}
		checkSPTEqual(t, "routed", want, &routed)
	}
}

func TestHybridBFSHugeLevels(t *testing.T) {
	// Above-threshold end-to-end: tree sizes and distances on a graph big
	// enough that BFSInto actually routes to the hybrid kernel by default.
	g := randomGraph(9, 3000, 9000)
	if g.N() < directionOptThreshold {
		t.Fatalf("test graph too small to exercise routing (N=%d)", g.N())
	}
	var spt SPT
	if err := g.BFSInto(0, &spt); err != nil {
		t.Fatal(err)
	}
	ref := kernelSPT(g, 0, (*Graph).serialBFSInto)
	for v := 0; v < g.N(); v++ {
		if spt.Dist[v] != ref.Dist[v] {
			t.Fatalf("node %d: hybrid dist %d, reference %d", v, spt.Dist[v], ref.Dist[v])
		}
	}
	checkParentValidity(t, g, &spt)
}

// denseRandomGraph builds the dense/low-diameter benchmark workload: a
// spanning tree plus enough extra edges for an average degree near 2*extra/n.
func denseRandomGraph(seed int64, n, extra int) *Graph {
	return randomGraph(seed, n, extra)
}

// BenchmarkBFS50kSerial pins the reference queue BFS on the exact
// BenchmarkBFS50k workload — the ablation pair for the ≥1.5× kernel claim.
func BenchmarkBFS50kSerial(b *testing.B) {
	benchSerialBFS(b, randomGraph(1, 50000, 100000))
}

// benchSerialBFS times the reference kernel directly, bypassing BFSInto's
// size routing.
func benchSerialBFS(b *testing.B, g *Graph) {
	spt := &SPT{Parent: make([]int32, g.N()), Dist: make([]int32, g.N())}
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := r.Intn(g.N())
		spt.Order = spt.Order[:0]
		spt.Source = src
		for j := range spt.Parent {
			spt.Parent[j] = Unreachable
			spt.Dist[j] = Unreachable
		}
		g.serialBFSInto(src, spt)
	}
}

// BenchmarkBFS50kDense measures the hybrid kernel on a dense low-diameter
// graph (50k nodes, ~500k edges): the direction-optimizing sweet spot.
func BenchmarkBFS50kDense(b *testing.B) {
	g := denseRandomGraph(3, 50000, 450000)
	var spt SPT
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.BFSInto(r.Intn(g.N()), &spt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBFS50kDenseSerial is the queue-BFS ablation of the dense workload.
func BenchmarkBFS50kDenseSerial(b *testing.B) {
	benchSerialBFS(b, denseRandomGraph(3, 50000, 450000))
}
