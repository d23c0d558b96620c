package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, // 10 samples beyond p99.9
		{9999, 99, true},    // p99.9 would leave 9
		{4096, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{40, 75, true},
		{39, 0, false},
		{10, 0, false},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && tc.n-rank(tc.n, got) < 10 {
			t.Errorf("tailPercentile(%d) = p%v leaves %d samples beyond it", tc.n, got, tc.n-rank(tc.n, got))
		}
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := percentile(xs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(xs, 20); got != 1 {
		t.Errorf("p20 = %v, want 1", got)
	}
	if xs[0] != 5 {
		t.Error("median or percentile reordered its input")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "bench.root", Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Name: "graph.a", Start: ms(1), End: ms(3)},
		{ID: 3, Parent: 1, Name: "graph.b", Start: ms(2), End: ms(5)},  // overlaps 2
		{ID: 4, Parent: 1, Name: "mcast.c", Start: ms(7), End: ms(12)}, // runs past the parent
		{ID: 5, Parent: 3, Name: "topology.d", Start: ms(3), End: ms(4)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: ms(10 - 4 - 3), 2: ms(2), 3: ms(2), 4: ms(5), 5: ms(1)}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	layers := layerSelf(spans)
	if layers["graph"] != ms(4) || layers["bench"] != ms(3) || layers["topology"] != ms(1) {
		t.Errorf("layerSelf = %v", layers)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer("test")
	_ = tr.do("bench.root", func() error {
		return tr.do("graph.child", func() error { return nil })
	})
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID || tr.spans[0].Parent != 0 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	var none *tracer
	called := false
	if err := none.do("x.y", func() error { called = true; return nil }); err != nil || !called {
		t.Error("nil tracer must still run the call")
	}
}

func newTestRun(t *testing.T, seed int64) *run {
	return &run{workload: "suite-medium", seed: seed, state: t.TempDir(), values: map[string]float64{}, samples: map[string]int{}}
}

func TestCorruptedDigestCountsAsFailure(t *testing.T) {
	r := newTestRun(t, 7)
	var first digests
	good := digests{"a.csv": "11", "a.txt": "22"}
	if err := r.checkOutputs(good, &first); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("first run failed %d checks: %v", r.failed, r.failures)
	}
	bad := digests{"a.csv": "11", "a.txt": "23"}
	if err := r.checkOutputs(bad, &first); err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 {
		t.Fatalf("corrupted digest: failed = %d, want 1 (%v)", r.failed, r.failures)
	}

	// A later run with the same seed compares against the recorded digests.
	r2 := newTestRun(t, 7)
	r2.state = r.state
	var first2 digests
	if err := r2.checkOutputs(bad, &first2); err != nil {
		t.Fatal(err)
	}
	if r2.failed != 1 {
		t.Fatalf("run against run: failed = %d, want 1", r2.failed)
	}
}

func TestPinnedDigests(t *testing.T) {
	var pinned map[string]digests
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		t.Fatal(err)
	}
	want := pinned["suite-medium"]
	if len(want) == 0 {
		t.Fatal("no pinned suite-medium digests")
	}
	got := digests{}
	for k, v := range want {
		got[k] = v
	}
	r := newTestRun(t, defaultSeed)
	var first digests
	if err := r.checkOutputs(got, &first); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("pinned digests failed: %v", r.failures)
	}
	got["fig9a.csv"] = "0000"
	delete(got, "fig8.gp")
	r = newTestRun(t, defaultSeed)
	first = nil
	if err := r.checkOutputs(got, &first); err != nil {
		t.Fatal(err)
	}
	if r.failed != 2 {
		t.Fatalf("corrupted and missing pinned file: failed = %d, want 2 (%v)", r.failed, r.failures)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json declares exactly the
// workloads and metrics the harness produces.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, harness %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no function in workloads", w.Name)
		}
	}
	for _, set := range []struct {
		decl []def
		have []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.decl) != len(set.have) {
			t.Errorf("BENCHMARK.json declares %d metrics, harness reports %d", len(set.decl), len(set.have))
			continue
		}
		for i, d := range set.decl {
			if d.Name != set.have[i].name || d.Unit != set.have[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s/%s, harness %s/%s", i, d.Name, d.Unit, set.have[i].name, set.have[i].unit)
			}
		}
	}
}
