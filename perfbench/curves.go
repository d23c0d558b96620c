package main

import (
	"context"
	"os"
	"path/filepath"

	"mtreescale/internal/experiments"
	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// curveIDs are the experiments of the curves-paper workload, with the
// topologies each sweeps (experiments.runFig1).
var curveIDs = []struct {
	id    string
	names func() []string
}{
	{"fig1a", topology.GeneratedNames},
	{"fig1b", topology.RealNames},
}

// runCurves is the curves-paper workload: the fig1a/fig1b L(m) protocol at
// the paper profile (100 sources × 100 receiver sets, 24 sizes, full-scale
// topologies), each result encoded to csv/gp/txt. Topology generation is
// set-up; the SPT cache is emptied before every pass.
func runCurves(r *run) error {
	p := experiments.Paper()
	p.Seed = r.seed
	var graphs [][]*graph.Graph
	err := r.setups(5, func() error {
		topology.ResetCache()
		graphs = graphs[:0]
		for _, c := range curveIDs {
			var gs []*graph.Graph
			for _, name := range c.names() {
				g, err := topology.GenerateCachedOpt(name, 0, p.Scale, p.LargeGraph)
				if err != nil {
					return err
				}
				gs = append(gs, g)
			}
			graphs = append(graphs, gs)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ids := []string{curveIDs[0].id, curveIDs[1].id}
	o := &outputPasses{r: r, name: "curves", ids: ids, p: p, reset: graph.SharedSPTs.Clear}
	if !r.traced {
		if err := r.loop(1, o.pass); err != nil {
			return err
		}
		return r.record(o.walls, o.allocs)
	}

	if err := o.pass(0); err != nil {
		return err
	}
	if err := tracedCurves(r, p, graphs, &o.first); err != nil {
		return err
	}
	r.traceMetrics(o.walls[0], total(r.tr.spans, "bench.curves").Seconds())
	return nil
}

// tracedCurves runs the workload under spans. Before each experiment the
// harness resolves every source tree the experiment will draw into the SPT
// cache with one graph.FillBatch span per topology; the experiments.<id>
// span that follows then finds every tree cached, so its time is tree
// accumulation. The cache counters confirm that no tree was built inside
// the experiment.
func tracedCurves(r *run, p experiments.Profile, graphs [][]*graph.Graph, first *digests) error {
	graph.SharedSPTs.Clear()
	settle()
	dir := filepath.Join(r.work, "curves-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var sources, edgeVisits, trees float64
	err := r.tr.do("bench.curves", func() error {
		for ci, c := range curveIDs {
			for gi, g := range graphs[ci] {
				srcs := curveSources(g, rng.Split(p.Seed, int64(gi)), p.NSource)
				sources += float64(len(srcs))
				edgeVisits += float64(len(srcs)) * 2 * float64(g.M())
				trees += float64(p.NSource * p.NRcvr * len(mcast.LogSpacedSizes(capSize(p, g.N()-1), p.GridPoints)))
				if err := r.tr.do("graph.FillBatch", func() error { return graph.SharedSPTs.FillBatch(g, srcs) }); err != nil {
					return err
				}
			}
			before := graph.SharedSPTs.Stats()
			var stats []experiments.RunStats
			err := r.tr.do("experiments."+c.id, func() error {
				var err error
				stats, err = experiments.RunManyCtx(context.Background(), []string{c.id}, p, experiments.ScheduleOptions{Parallel: 1})
				return err
			})
			if err != nil {
				return err
			}
			after := graph.SharedSPTs.Stats()
			r.check(after.Misses == before.Misses, "%s: %d trees built inside the experiment after the pre-fill", c.id, after.Misses-before.Misses)
			if err := writeResult(r.tr, dir, stats[0].Result); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	got, err := digestDir(dir)
	if err != nil {
		return err
	}
	if err := r.checkOutputs(got, first); err != nil {
		return err
	}
	spans := r.tr.spans
	spt := total(spans, "graph.FillBatch").Seconds()
	acc := total(spans, "experiments.fig1a").Seconds() + total(spans, "experiments.fig1b").Seconds()
	r.set("experiments.fig1a_s", total(spans, "experiments.fig1a").Seconds(), 1)
	r.set("experiments.fig1b_s", total(spans, "experiments.fig1b").Seconds(), 1)
	r.set("graph.spt_flat_s", spt, len(durations(spans, "graph.FillBatch")))
	r.set("graph.spt_sources", sources, 1)
	r.set("graph.spt_edges_per_s", edgeVisits/spt, 1)
	r.set("mcast.accumulate_s", acc, 2)
	r.set("mcast.trees", trees, 1)
	r.set("mcast.trees_per_s", trees/acc, 1)
	r.set("plot.encode_s", total(spans, "plot.encode").Seconds(), 2)
	r.set("atomicio.write_s", total(spans, "atomicio.write").Seconds(), len(durations(spans, "atomicio.write")))
	st := graph.SharedSPTs.Stats()
	r.set("graph.sptcache_hit_ratio", hitRatio(st.Hits, st.Misses), int(st.Hits+st.Misses))
	var gmb float64
	for _, gs := range graphs {
		for _, g := range gs {
			gmb += float64(g.MemBytes()) / (1 << 20)
		}
	}
	r.set("topology.graph_mb", gmb, 8)
	r.set("topology.generate_s", r.values["setup_s"], r.samples["setup_s"])
	return nil
}

// curveSources draws the n sources mcast.MeasureCurve draws under protocol
// seed: n draws from the seed's child stream -1. experiments.runFig1 seeds
// the curve of its gi-th topology with rng.Split(profile seed, gi).
func curveSources(g *graph.Graph, seed int64, n int) []int {
	src := rng.NewChild(seed, -1)
	out := make([]int, n)
	for i := range out {
		out[i] = src.Intn(g.N())
	}
	return out
}
