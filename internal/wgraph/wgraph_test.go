package wgraph

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"mtreescale/internal/graph"
	"mtreescale/internal/rng"
)

func unitWeights(u, v int) float64 { return 1 }

func buildPath(t testing.TB, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestNewValidation(t *testing.T) {
	g := buildPath(t, 3)
	if _, err := New(nil, unitWeights); err == nil {
		t.Fatal("nil graph must error")
	}
	if _, err := New(g, nil); err == nil {
		t.Fatal("nil weight fn must error")
	}
	if _, err := New(g, func(u, v int) float64 { return -1 }); err == nil {
		t.Fatal("negative weight must error")
	}
	if _, err := New(g, func(u, v int) float64 { return math.NaN() }); err == nil {
		t.Fatal("NaN weight must error")
	}
	if _, err := New(g, func(u, v int) float64 { return math.Inf(1) }); err == nil {
		t.Fatal("Inf weight must error")
	}
}

func TestDijkstraUnitWeightsMatchesBFS(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%80) + 2
		r := rng.New(seed)
		b := graph.NewBuilder(n)
		for v := 1; v < n; v++ {
			_ = b.AddEdge(v, r.Intn(v))
		}
		for i := 0; i < n; i++ {
			_ = b.AddEdge(r.Intn(n), r.Intn(n))
		}
		g := b.Build()
		wg, err := New(g, unitWeights)
		if err != nil {
			return false
		}
		bfs, err := g.BFS(0)
		if err != nil {
			return false
		}
		wspt, err := wg.Dijkstra(0)
		if err != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if bfs.Dist[v] == graph.Unreachable {
				if !wspt.Unreachable(v) {
					return false
				}
				continue
			}
			if math.Abs(wspt.Dist[v]-float64(bfs.Dist[v])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	// Triangle: 0-1 heavy (10), 0-2 (1), 2-1 (1): shortest 0→1 goes via 2.
	b := graph.NewBuilder(3)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(0, 2)
	_ = b.AddEdge(1, 2)
	g := b.Build()
	wg, err := New(g, func(u, v int) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 0) {
			return 10
		}
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	wspt, err := wg.Dijkstra(0)
	if err != nil {
		t.Fatal(err)
	}
	if wspt.Dist[1] != 2 {
		t.Fatalf("dist(0,1) = %v, want 2 via node 2", wspt.Dist[1])
	}
	if wspt.Parent[1] != 2 {
		t.Fatalf("parent(1) = %d, want 2", wspt.Parent[1])
	}
}

func TestDijkstraErrors(t *testing.T) {
	g := buildPath(t, 3)
	wg, _ := New(g, unitWeights)
	if _, err := wg.Dijkstra(-1); err == nil {
		t.Fatal("bad source must error")
	}
	if _, err := wg.Dijkstra(3); err == nil {
		t.Fatal("bad source must error")
	}
}

func TestTreeCostPath(t *testing.T) {
	g := buildPath(t, 6)
	wg, _ := New(g, func(u, v int) float64 { return 2.5 })
	wspt, _ := wg.Dijkstra(0)
	cost, links := wg.TreeCost(wspt, []int32{5})
	if links != 5 || math.Abs(cost-12.5) > 1e-9 {
		t.Fatalf("cost=%v links=%d", cost, links)
	}
	// Shared prefix: two receivers on the same ray count links once.
	cost2, links2 := wg.TreeCost(wspt, []int32{3, 5})
	if links2 != 5 || math.Abs(cost2-12.5) > 1e-9 {
		t.Fatalf("shared prefix cost=%v links=%d", cost2, links2)
	}
	// Garbage receivers ignored.
	cost3, links3 := wg.TreeCost(wspt, []int32{-1, 99})
	if cost3 != 0 || links3 != 0 {
		t.Fatalf("garbage: cost=%v links=%d", cost3, links3)
	}
}

func TestUnicastCost(t *testing.T) {
	g := buildPath(t, 4)
	wg, _ := New(g, func(u, v int) float64 { return 3 })
	wspt, _ := wg.Dijkstra(0)
	cost, reach := wg.UnicastCost(wspt, []int32{1, 3})
	if reach != 2 || math.Abs(cost-12) > 1e-9 {
		t.Fatalf("cost=%v reach=%d", cost, reach)
	}
}

func TestArcWeight(t *testing.T) {
	g := buildPath(t, 3)
	wg, _ := New(g, func(u, v int) float64 { return float64(u + v) })
	// Node 1's neighbors are sorted: [0, 2]; weights 1, 3.
	if wg.ArcWeight(1, 0) != 1 || wg.ArcWeight(1, 1) != 3 {
		t.Fatalf("arc weights: %v %v", wg.ArcWeight(1, 0), wg.ArcWeight(1, 1))
	}
}

func TestWaxmanGeo(t *testing.T) {
	gg, err := WaxmanGeo(300, 0.5, 0.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gg.G.N() < 100 || !gg.G.Connected() {
		t.Fatalf("giant component: N=%d", gg.G.N())
	}
	if len(gg.X) != gg.G.N() || len(gg.Y) != gg.G.N() {
		t.Fatal("coordinates misaligned")
	}
	// Every weight must equal the Euclidean distance of its endpoints.
	for u := 0; u < gg.G.N(); u++ {
		for i, v := range gg.G.Neighbors(u) {
			want := math.Hypot(gg.X[u]-gg.X[v], gg.Y[u]-gg.Y[v])
			if math.Abs(gg.ArcWeight(u, i)-want) > 1e-12 {
				t.Fatalf("weight (%d,%d) = %v, want %v", u, v, gg.ArcWeight(u, i), want)
			}
		}
	}
}

func TestWaxmanGeoErrors(t *testing.T) {
	if _, err := WaxmanGeo(0, 0.5, 0.5, 1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := WaxmanGeo(10, 2, 0.5, 1); err == nil {
		t.Fatal("alpha>1 must error")
	}
	if _, err := WaxmanGeo(10, 0.5, 0, 1); err == nil {
		t.Fatal("beta=0 must error")
	}
}

func TestMeasureWeightedCurve(t *testing.T) {
	gg, err := WaxmanGeo(250, 0.6, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{1, 5, 20, 60}
	pts, err := MeasureWeightedCurve(context.Background(), gg, sizes, 8, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range pts {
		if pt.Samples == 0 {
			t.Fatalf("no samples at %d", pt.Size)
		}
		if pt.MeanHopRatio <= 0 || pt.MeanCostRatio <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
		if i > 0 && pt.MeanHopRatio <= pts[i-1].MeanHopRatio {
			t.Fatal("hop ratio must increase with m")
		}
		if i > 0 && pt.MeanCostRatio <= pts[i-1].MeanCostRatio {
			t.Fatal("cost ratio must increase with m")
		}
	}
	// m=1: both ratios are exactly 1.
	if math.Abs(pts[0].MeanHopRatio-1) > 1e-9 || math.Abs(pts[0].MeanCostRatio-1) > 1e-9 {
		t.Fatalf("m=1 ratios: %+v", pts[0])
	}
}

func TestMeasureWeightedCurveErrors(t *testing.T) {
	gg, err := WaxmanGeo(100, 0.6, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureWeightedCurve(context.Background(), gg, []int{1}, 0, 1, 1); err == nil {
		t.Fatal("nSource=0 must error")
	}
	if _, err := MeasureWeightedCurve(context.Background(), gg, []int{0}, 1, 1, 1); err == nil {
		t.Fatal("size 0 must error")
	}
	if _, err := MeasureWeightedCurve(context.Background(), gg, []int{gg.G.N()}, 1, 1, 1); err == nil {
		t.Fatal("m = N must error")
	}
}

func TestMeasureWeightedCurveCancelled(t *testing.T) {
	gg, err := WaxmanGeo(100, 0.6, 0.25, 5)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasureWeightedCurve(ctx, gg, []int{1, 5}, 4, 4, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}
}

func TestWeightedAndHopExponentsClose(t *testing.T) {
	// The headline weighted result: the scaling exponent of the
	// length-weighted ratio tracks the hop-count exponent.
	if testing.Short() {
		t.Skip("short mode")
	}
	gg, err := WaxmanGeo(400, 0.6, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{2, 4, 8, 16, 32, 64, 128}
	pts, err := MeasureWeightedCurve(context.Background(), gg, sizes, 12, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	slope := func(get func(WeightedPoint) float64) float64 {
		var sx, sy, sxx, sxy, n float64
		for _, pt := range pts {
			x, y := math.Log(float64(pt.Size)), math.Log(get(pt))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			n++
		}
		return (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
	hop := slope(func(p WeightedPoint) float64 { return p.MeanHopRatio })
	cost := slope(func(p WeightedPoint) float64 { return p.MeanCostRatio })
	if math.Abs(hop-cost) > 0.12 {
		t.Fatalf("hop exponent %.3f vs cost exponent %.3f diverge", hop, cost)
	}
	if hop < 0.5 || hop > 1 {
		t.Fatalf("hop exponent %.3f implausible", hop)
	}
}

func TestMeasureWeightedCurveDeterministic(t *testing.T) {
	gg, err := WaxmanGeo(150, 0.6, 0.25, 9)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MeasureWeightedCurve(context.Background(), gg, []int{2, 10}, 4, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureWeightedCurve(context.Background(), gg, []int{2, 10}, 4, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic point %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestWaxmanGeoDeterministic(t *testing.T) {
	a, err := WaxmanGeo(120, 0.5, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := WaxmanGeo(120, 0.5, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.G.N() != b.G.N() || a.G.M() != b.G.M() {
		t.Fatal("same seed must give same graph")
	}
	for i := range a.X {
		if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] {
			t.Fatal("coordinates differ")
		}
	}
}
