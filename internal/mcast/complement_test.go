package mcast

import (
	"context"
	"slices"
	"testing"

	"mtreescale/internal/arena"
	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

// complementGraphs are the topologies of the complement oracle: random
// graphs with cycles, a random tree (deep leaves, long peels), a path, and a
// disconnected graph (a second component and an isolated node, so the rest
// holds unreachable sites and some sources reach almost nothing).
func complementGraphs() []*graph.Graph {
	disc := graph.NewBuilder(50)
	r := rng.New(7)
	for v := 1; v < 35; v++ {
		_ = disc.AddEdge(v, r.Intn(v))
	}
	for v := 36; v < 49; v++ {
		_ = disc.AddEdge(v, 35+r.Intn(v-35))
	}
	path := graph.NewBuilder(24)
	for v := 1; v < 24; v++ {
		_ = path.AddEdge(v-1, v)
	}
	return []*graph.Graph{
		randGraph(1, 60, 20),
		randGraph(2, 90, 0),
		path.Build(),
		disc.Build(),
	}
}

// checkComplement shuffles a sample of size m on a stream seeded with seed,
// counts buf[:m] by climbing (Measure and measurePacked) and from the rest
// buf[m:] (measureComplement), and fails unless all three agree. Where
// Distinct takes its Fisher-Yates path (4m >= M) the shuffle must also have
// drawn Distinct's receivers.
func checkComplement(t *testing.T, g *graph.Graph, source, m int, includeSource bool, seed int64) {
	t.Helper()
	spt, err := g.BFS(source)
	if err != nil {
		t.Fatal(err)
	}
	exclude := source
	if includeSource {
		exclude = -1
	}
	climb, err := NewSampler(g.N(), exclude, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := NewSampler(g.N(), exclude, rng.New(seed))
	buf := comp.shuffleCopy(m)
	recv := buf[:m]
	if 4*m >= comp.Population() {
		drawn, err := climb.Distinct(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(drawn, recv) {
			t.Fatalf("source %d m=%d: complement draw took %v, Distinct took %v", source, m, recv, drawn)
		}
	}
	pd := packTree(spt, nil)
	var ct complementTree
	ct.prepare(arena.New(), int32(source), pd, includeSource)
	c := NewTreeCounter(g.N())
	want := c.Measure(spt, recv)
	if got := c.measurePacked(int32(source), pd, recv); got != want {
		t.Fatalf("source %d m=%d: measurePacked %+v, Measure %+v", source, m, got, want)
	}
	if got := c.measureComplement(int32(source), pd, &ct, buf[m:]); got != want {
		t.Fatalf("source %d m=%d include=%v: measureComplement %+v, Measure %+v", source, m, includeSource, got, want)
	}
}

// TestComplementMatchesClimb checks every m in (M/2, M], the engine's
// complement range, and every smaller m too: the identity holds at any size,
// and only small samples leave a source with IncludeSource in a rest that
// holds its whole component, where the peel must stop below the source.
func TestComplementMatchesClimb(t *testing.T) {
	for gi, g := range complementGraphs() {
		n := g.N()
		for _, source := range []int{0, n / 2, n - 1, 35} {
			if source >= n {
				continue
			}
			for _, include := range []bool{false, true} {
				M := n - 1
				if include {
					M = n
				}
				for m := 1; m <= M; m++ {
					checkComplement(t, g, source, m, include, int64(1000*gi+m))
				}
			}
		}
	}
}

// FuzzComplementEquivalence builds a graph, source, sample size and stream
// from the fuzz bytes and asserts that the complement count equals the climb
// on the same draw. Byte layout: n = 2 + b[0]%48, source = b[1]%n,
// m = 1 + b[2]%M, b[3] bit 0 = IncludeSource and the rest seeds the stream,
// then (a, b) byte pairs are edges mod n. Any m is checked: the identity
// holds at every size, the engine only takes it past M/2.
func FuzzComplementEquivalence(f *testing.F) {
	f.Add([]byte{20, 0, 15, 0, 0, 1, 1, 2, 2, 3, 3, 4, 0, 5, 5, 6})
	f.Add([]byte{9, 3, 200, 1, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{47, 17, 40, 6, 1, 2, 2, 3, 9, 9, 30, 31, 31, 32, 0, 48})
	f.Add([]byte{0, 1, 0, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 4 {
			return
		}
		if len(b) > 512 {
			b = b[:512]
		}
		n := 2 + int(b[0])%48
		source := int(b[1]) % n
		include := b[3]&1 == 1
		M := n - 1
		if include {
			M = n
		}
		m := 1 + int(b[2])%M
		bld := graph.NewBuilder(n)
		for i := 4; i+1 < len(b); i += 2 {
			_ = bld.AddEdge(int(b[i])%n, int(b[i+1])%n)
		}
		checkComplement(t, bld.Build(), source, m, include, int64(b[3]>>1))
	})
}

func TestComplementSampleDoesNotAllocate(t *testing.T) {
	g := randGraph(3, 200, 60)
	spt, _ := g.BFS(5)
	pd := packTree(spt, nil)
	var ct complementTree
	ct.prepare(arena.New(), 5, pd, false)
	smp, _ := NewSampler(g.N(), 5, rng.New(9))
	c := NewTreeCounter(g.N())
	m := 150
	sample := func() {
		rest := smp.shuffleCopy(m)[m:]
		_ = c.measureComplement(5, pd, &ct, rest)
	}
	sample() // grow the sampler buffer once
	if n := testing.AllocsPerRun(50, sample); n != 0 {
		t.Fatalf("warmed complement sample allocates %.1f/op", n)
	}
}

// TestComplementPrepGated pins that the complement's per-source arrays are
// sized only for grids that reach past M/2: a grid that stops at M/2 (the
// large-graph and daemon curve shape) must leave them unallocated, so the
// prep cannot silently become eager.
func TestComplementPrepGated(t *testing.T) {
	g := randGraph(4, 80, 30)
	p := Protocol{NSource: 2, NRcvr: 3, Seed: 11, Workers: 1}
	M := g.N() - 1
	cases := []struct {
		name  string
		mode  Mode
		sizes []int
		sized bool
	}{
		{"distinct-to-half", Distinct, []int{1, 5, M / 2}, false},
		{"replacement-past-half", WithReplacement, []int{1, M, 2 * M}, false},
		{"distinct-past-half", Distinct, []int{1, M/2 + 1}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := resolveBatch(g, drawSources(g, p), p)
			if err != nil {
				t.Fatal(err)
			}
			defer st.release()
			acc := newCurvePartial(p.NSource, len(tc.sizes), 0, p.NSource)
			sc := newSourceScratch()
			sc.counter = NewTreeCounter(g.N())
			for lane := 0; lane < p.NSource; lane++ {
				if err := sc.measureIndependent(context.Background(), g, lane, lane, tc.sizes, tc.mode, p, st, acc); err != nil {
					t.Fatal(err)
				}
			}
			if sized := sc.ct.kids != nil || sc.ct.left != nil; sized != tc.sized {
				t.Fatalf("complement arrays sized = %v, want %v (grid %v, M=%d)", sized, tc.sized, tc.sizes, M)
			}
		})
	}
}
