package mcast

import (
	"math"
	"testing"

	"mtreescale/internal/graph"
)

// The golden tables pin the engines' seeded streams: every float field of
// every point of small fixed sweeps, as its IEEE-754 bit pattern. A change
// to a sample, a seed derivation or a summation order fails here, whichever
// engine path it enters through. Every sweep runs on the slab and the
// fallback route, which must agree bit for bit. Regenerating a table is a
// declared change to a seeded stream, never a test fix.

// goldenPoint is a Point with its float fields as math.Float64bits.
type goldenPoint struct {
	size, samples                 int
	ratio, stdErr, links, unicast uint64
}

func goldenOfPoint(pt Point) goldenPoint {
	return goldenPoint{
		size: pt.Size, samples: pt.Samples,
		ratio: math.Float64bits(pt.MeanRatio), stdErr: math.Float64bits(pt.RatioStdErr),
		links: math.Float64bits(pt.MeanLinks), unicast: math.Float64bits(pt.MeanUnicast),
	}
}

// goldenShared is a SharedPoint with its float fields as math.Float64bits.
type goldenShared struct {
	size, samples         int
	src, shared, overhead uint64
}

func goldenOfShared(pt SharedPoint) goldenShared {
	return goldenShared{
		size: pt.Size, samples: pt.Samples,
		src: math.Float64bits(pt.MeanSourceTree), shared: math.Float64bits(pt.MeanSharedTree),
		overhead: math.Float64bits(pt.MeanOverhead),
	}
}

var goldenRoutes = []route{routeSlab, routeFallback}

// goldenCurveSizes is deliberately unsorted, so the nested engine's cut
// ordering is pinned too.
var goldenCurveSizes = []int{12, 1, 40, 4}

func goldenCurveProtocol() Protocol {
	return Protocol{NSource: 5, NRcvr: 4, Seed: 1999, Workers: 3}
}

var goldenCurveTable = []struct {
	name          string
	mode          Mode
	includeSource bool
	nested        bool
	want          []goldenPoint
}{
	{name: "distinct", mode: Distinct, includeSource: false, nested: false, want: []goldenPoint{
		{size: 12, samples: 20, ratio: 0x401db187843cc430, stdErr: 0x3fb9076faa97ed70, links: 0x4033b33333333333, unicast: 0x40053bbbbbbbbbbc},
		{size: 1, samples: 20, ratio: 0x3ff0000000000000, stdErr: 0x0000000000000000, links: 0x400399999999999a, unicast: 0x400399999999999a},
		{size: 40, samples: 20, ratio: 0x4031ad1acec27eaf, stdErr: 0x3fc7556ce0584d33, links: 0x404759999999999a, unicast: 0x400528f5c28f5c29},
		{size: 4, samples: 20, ratio: 0x40090efd722aead5, stdErr: 0x3fbb75e2267f62f2, links: 0x402099999999999a, unicast: 0x400519999999999a},
	}},
	{name: "with-replacement", mode: WithReplacement, includeSource: false, nested: false, want: []goldenPoint{
		{size: 12, samples: 20, ratio: 0x401bf1e096464b4e, stdErr: 0x3fca1cdad5134e27, links: 0x4032333333333333, unicast: 0x4005088888888888},
		{size: 1, samples: 20, ratio: 0x3ff0000000000000, stdErr: 0x0000000000000000, links: 0x400399999999999a, unicast: 0x400399999999999a},
		{size: 40, samples: 20, ratio: 0x402c0810a8cc460a, stdErr: 0x3fc8b7e13b7d903f, links: 0x404239999999999a, unicast: 0x4004d47ae147ae15},
		{size: 4, samples: 20, ratio: 0x400aa51ae6a07356, stdErr: 0x3fb76ca048a9bf84, links: 0x402299999999999a, unicast: 0x40064ccccccccccd},
	}},
	{name: "include-source", mode: Distinct, includeSource: true, nested: false, want: []goldenPoint{
		{size: 12, samples: 20, ratio: 0x401d6f8f7fc2c1e0, stdErr: 0x3fc1f2369599bf21, links: 0x4032c00000000000, unicast: 0x4004666666666666},
		{size: 1, samples: 20, ratio: 0x3ff0000000000000, stdErr: 0x0000000000000000, links: 0x400599999999999a, unicast: 0x400599999999999a},
		{size: 40, samples: 20, ratio: 0x4031aedf305de75e, stdErr: 0x3fce961e2883901e, links: 0x4046f33333333333, unicast: 0x4004cccccccccccd},
		{size: 4, samples: 20, ratio: 0x400acc7b53581e3d, stdErr: 0x3fb48f0029f42d4b, links: 0x4021cccccccccccd, unicast: 0x400519999999999a},
	}},
	{name: "nested-distinct", mode: Distinct, includeSource: false, nested: true, want: []goldenPoint{
		{size: 12, samples: 20, ratio: 0x401f12ac27066242, stdErr: 0x3fbded9e79a43c31, links: 0x4034400000000000, unicast: 0x4004dddddddddddd},
		{size: 1, samples: 20, ratio: 0x3ff0000000000000, stdErr: 0x0000000000000000, links: 0x4003333333333333, unicast: 0x4003333333333333},
		{size: 40, samples: 20, ratio: 0x40319496cd3d1fbd, stdErr: 0x3fc7fe515b7efeb4, links: 0x4047466666666666, unicast: 0x40053ae147ae147b},
		{size: 4, samples: 20, ratio: 0x400a7c0fe63ae603, stdErr: 0x3fb9534b7bc14428, links: 0x4020b33333333333, unicast: 0x4004333333333333},
	}},
	{name: "nested-with-replacement", mode: WithReplacement, includeSource: false, nested: true, want: []goldenPoint{
		{size: 12, samples: 20, ratio: 0x401df4aab1fdd75d, stdErr: 0x3fc36fe886ad71d2, links: 0x4033733333333333, unicast: 0x4004cccccccccccc},
		{size: 1, samples: 20, ratio: 0x3ff0000000000000, stdErr: 0x0000000000000000, links: 0x4004000000000000, unicast: 0x4004000000000000},
		{size: 40, samples: 20, ratio: 0x402c49891d5f3146, stdErr: 0x3fc7a3983d18f9b5, links: 0x4042666666666666, unicast: 0x4004d47ae147ae15},
		{size: 4, samples: 20, ratio: 0x400a97bcf97bcf98, stdErr: 0x3fbba138b67231c7, links: 0x4020800000000000, unicast: 0x4003cccccccccccd},
	}},
}

func TestGoldenCurve(t *testing.T) {
	g := randGraph(101, 60, 90)
	for _, tc := range goldenCurveTable {
		for _, r := range goldenRoutes {
			t.Run(tc.name+"/"+r.String(), func(t *testing.T) {
				p := useRoute(t, r, goldenCurveProtocol())
				p.IncludeSource, p.Nested = tc.includeSource, tc.nested
				pts, err := MeasureCurve(g, goldenCurveSizes, tc.mode, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(pts) != len(tc.want) {
					t.Fatalf("%d points, want %d", len(pts), len(tc.want))
				}
				for i, pt := range pts {
					if got := goldenOfPoint(pt); got != tc.want[i] {
						t.Errorf("point %d:\n got %#v\nwant %#v", i, got, tc.want[i])
					}
				}
			})
		}
	}
}

var goldenSharedSizes = []int{1, 5, 20}

var goldenSharedTable = []struct {
	strategy CoreStrategy
	want     []goldenShared
}{
	{strategy: CoreRandom, want: []goldenShared{
		{size: 1, samples: 20, src: 0x4007333333333333, shared: 0x4015666666666666, overhead: 0x40002aaaaaaaaaab},
		{size: 5, samples: 20, src: 0x402599999999999a, shared: 0x4028800000000000, overhead: 0x3ff2792a56230e69},
		{size: 20, samples: 20, src: 0x403c666666666666, shared: 0x403d266666666666, overhead: 0x3ff080c54879b92a},
	}},
	{strategy: CoreSource, want: []goldenShared{
		{size: 1, samples: 20, src: 0x4007333333333333, shared: 0x4007333333333333, overhead: 0x3ff0000000000000},
		{size: 5, samples: 20, src: 0x402599999999999a, shared: 0x402599999999999a, overhead: 0x3ff0000000000000},
		{size: 20, samples: 20, src: 0x403c666666666666, shared: 0x403c666666666666, overhead: 0x3ff0000000000000},
	}},
	{strategy: CoreCenter, want: []goldenShared{
		{size: 1, samples: 20, src: 0x4007333333333333, shared: 0x4011cccccccccccd, overhead: 0x3ff9777777777778},
		{size: 5, samples: 20, src: 0x402599999999999a, shared: 0x4027666666666666, overhead: 0x3ff193f36dc27f10},
		{size: 20, samples: 20, src: 0x403c666666666666, shared: 0x403d19999999999a, overhead: 0x3ff06c720ecf016a},
	}},
}

func TestGoldenSharedCurve(t *testing.T) {
	g := randGraph(103, 60, 90)
	for _, tc := range goldenSharedTable {
		for _, r := range goldenRoutes {
			t.Run(tc.strategy.String()+"/"+r.String(), func(t *testing.T) {
				p := useRoute(t, r, Protocol{NSource: 5, NRcvr: 4, Seed: 1999, Workers: 3})
				pts, err := MeasureSharedCurve(g, goldenSharedSizes, tc.strategy, p)
				if err != nil {
					t.Fatal(err)
				}
				if len(pts) != len(tc.want) {
					t.Fatalf("%d points, want %d", len(pts), len(tc.want))
				}
				for i, pt := range pts {
					if got := goldenOfShared(pt); got != tc.want[i] {
						t.Errorf("point %d:\n got %#v\nwant %#v", i, got, tc.want[i])
					}
				}
			})
		}
	}
}

var goldenEnsembleSizes = []int{1, 5, 20}

var goldenEnsemble = []goldenPoint{
	{size: 1, samples: 36, ratio: 0x3ff0000000000000, stdErr: 0x0000000000000000, links: 0x4006000000000000, unicast: 0x4006000000000000},
	{size: 5, samples: 36, ratio: 0x400e63a9009be710, stdErr: 0x3fb7db46f46d4b51, links: 0x402538e38e38e38e, unicast: 0x40069f49f49f49f5},
	{size: 20, samples: 36, ratio: 0x4024c0d00825749e, stdErr: 0x3fca168cca76ff2e, links: 0x403c871c71c71c72, unicast: 0x4006444444444444},
}

func TestGoldenEnsemble(t *testing.T) {
	gen := func(seed int64) (*graph.Graph, error) { return randGraph(seed, 50, 70), nil }
	for _, r := range goldenRoutes {
		t.Run(r.String(), func(t *testing.T) {
			p := useRoute(t, r, Protocol{NSource: 4, NRcvr: 3, Seed: 1999, Workers: 2})
			pts, err := MeasureEnsemble(gen, 3, goldenEnsembleSizes, Distinct, p)
			if err != nil {
				t.Fatal(err)
			}
			if len(pts) != len(goldenEnsemble) {
				t.Fatalf("%d points, want %d", len(pts), len(goldenEnsemble))
			}
			for i, pt := range pts {
				if got := goldenOfPoint(pt); got != goldenEnsemble[i] {
					t.Errorf("point %d:\n got %#v\nwant %#v", i, got, goldenEnsemble[i])
				}
			}
		})
	}
}
