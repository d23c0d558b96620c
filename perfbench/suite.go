package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mtreescale/internal/affinity"
	"mtreescale/internal/experiments"
	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/topology"
)

// resetCaches empties the process-wide topology and SPT caches, the state a
// fresh mtsim process starts from.
func resetCaches() {
	topology.ResetCache()
	graph.SharedSPTs.Clear()
}

// hitRatio is hits ÷ lookups, 0 when there were none.
func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// suiteOut runs ids under p on one scheduler worker, as
// `mtsim -experiment all -parallel 1 -out dir` does, and writes every result
// into dir. It returns the per-experiment statistics.
func suiteOut(r *run, ids []string, p experiments.Profile, dir string) ([]experiments.RunStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	stats, err := experiments.RunManyCtx(context.Background(), ids, p, experiments.ScheduleOptions{Parallel: 1})
	for _, st := range stats {
		r.check(st.Err == nil && st.Result != nil, "%s: %v", st.ID, st.Err)
	}
	if err != nil {
		return nil, err
	}
	for _, st := range stats {
		if err := writeResult(nil, dir, st.Result); err != nil {
			return nil, err
		}
	}
	return stats, nil
}

// outputPasses is the measured pass of a workload that writes experiment
// results: reset state (untimed), run ids under p into a fresh directory
// (timed), then check the output digests. It collects each pass's wall time
// and heap allocation.
type outputPasses struct {
	r             *run
	name          string
	ids           []string
	p             experiments.Profile
	reset         func()
	first         digests
	walls, allocs []float64
}

func (o *outputPasses) pass(i int) error {
	o.reset()
	dir := filepath.Join(o.r.work, fmt.Sprintf("%s-%d", o.name, i))
	sec, mb, err := timed(func() error {
		_, err := suiteOut(o.r, o.ids, o.p, dir)
		return err
	})
	if err != nil {
		return err
	}
	o.walls, o.allocs = append(o.walls, sec), append(o.allocs, mb)
	got, err := digestDir(dir)
	if err != nil {
		return err
	}
	if err := o.r.checkOutputs(got, &o.first); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// runSuite is the suite-medium workload: every experiment at the medium
// profile, sequentially, from cold caches, with every result encoded to
// csv/gp/txt. Set-up is a warm-up pass of the same suite at the quick
// profile, so lazy runtime set-up is not charged to the measured pass.
func runSuite(r *run) error {
	ids := experiments.IDs()
	q := experiments.Quick()
	q.Seed = r.seed
	warm := 0
	err := r.setups(3, func() error {
		resetCaches()
		warm++
		_, err := suiteOut(r, ids, q, filepath.Join(r.work, fmt.Sprintf("warm-%d", warm)))
		return err
	})
	if err != nil {
		return err
	}
	p := experiments.Medium()
	p.Seed = r.seed
	o := &outputPasses{r: r, name: "suite", ids: ids, p: p, reset: resetCaches}
	if !r.traced {
		if err := r.loop(1, o.pass); err != nil {
			return err
		}
		return r.record(o.walls, o.allocs)
	}

	// Traced run: one untraced pass for the overhead baseline and the cache
	// counters, then the traced pass, then the fig9 cell replay.
	if err := o.pass(0); err != nil {
		return err
	}
	topoStats, sptStats := topology.CacheInfo(), graph.SharedSPTs.Stats()
	r.set("topology.cache_hit_ratio", hitRatio(topoStats.Hits, topoStats.Misses), int(topoStats.Hits+topoStats.Misses))
	r.set("graph.sptcache_hit_ratio", hitRatio(sptStats.Hits, sptStats.Misses), int(sptStats.Hits+sptStats.Misses))
	results, err := tracedSuite(r, ids, p, &o.first)
	if err != nil {
		return err
	}
	if err := replayFig9(r, p, results); err != nil {
		return err
	}
	r.traceMetrics(o.walls[0], total(r.tr.spans, "bench.suite").Seconds())
	return nil
}

// layerExperiments are the experiments reported one by one; the rest are
// summed into experiments.rest_s.
var layerExperiments = map[string]bool{
	"table1": true, "fig1a": true, "fig1b": true, "fig9a": true, "fig9b": true,
	"ext-steiner": true, "ext-affinity-graph": true, "churn-steady": true, "churn-repair": true,
}

// allocExperiments report their heap allocation.
var allocExperiments = []string{"ext-steiner", "ext-weighted", "table1", "fig1b"}

// tracedSuite runs the suite once more under spans: topology generation
// for the standard topologies first (the experiments then hit the cache),
// then one experiments.<id> span per experiment followed by its encode and
// write spans. It returns the results by id.
func tracedSuite(r *run, ids []string, p experiments.Profile, first *digests) (map[string]*experiments.Result, error) {
	resetCaches()
	settle()
	dir := filepath.Join(r.work, "suite-traced")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	results := map[string]*experiments.Result{}
	alloc := map[string]float64{}
	var graphMB float64
	err := r.tr.do("bench.suite", func() error {
		for _, name := range topology.StandardNames() {
			err := r.tr.do("topology.generate", func() error {
				g, err := topology.GenerateCachedOpt(name, 0, p.Scale, p.LargeGraph)
				if err == nil {
					graphMB += float64(g.MemBytes()) / (1 << 20)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		for _, id := range ids {
			var stats []experiments.RunStats
			_, mb, err := timed(func() error {
				return r.tr.do("experiments."+id, func() error {
					var err error
					stats, err = experiments.RunManyCtx(context.Background(), []string{id}, p, experiments.ScheduleOptions{Parallel: 1})
					return err
				})
			})
			if err != nil {
				return err
			}
			alloc[id] = mb
			results[id] = stats[0].Result
			if err := writeResult(r.tr, dir, stats[0].Result); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	got, err := digestDir(dir)
	if err != nil {
		return nil, err
	}
	if err := r.checkOutputs(got, first); err != nil {
		return nil, err
	}
	spans := r.tr.spans
	var rest float64
	for _, id := range ids {
		sec := total(spans, "experiments."+id).Seconds()
		if layerExperiments[id] {
			r.set("experiments."+id+"_s", sec, 1)
		} else {
			rest += sec
		}
	}
	r.set("experiments.rest_s", rest, len(ids)-len(layerExperiments))
	for _, id := range allocExperiments {
		r.set("experiments."+id+"_alloc_mb", alloc[id], 1)
	}
	r.set("topology.generate_s", total(spans, "topology.generate").Seconds(), len(topology.StandardNames()))
	r.set("topology.graph_mb", graphMB, len(topology.StandardNames()))
	r.set("plot.encode_s", total(spans, "plot.encode").Seconds(), len(ids))
	r.set("atomicio.write_s", total(spans, "atomicio.write").Seconds(), len(durations(spans, "atomicio.write")))
	return results, nil
}

// fig9Betas is the β sweep of Figure 9 (experiments.runFig9).
var fig9Betas = []float64{-10, -1, -0.1, 0, 0.1, 1, 10}

// replayFig9 replays every fig9a/fig9b MCMC cell one at a time through
// affinity.EstimateTreeSize with the seeds affinity.Sweep9 derives, timing
// each cell, and checks each estimate against the traced run's figure.
func replayFig9(r *run, p experiments.Profile, results map[string]*experiments.Result) error {
	var cells []float64
	var proposals, accepted float64
	err := r.tr.do("bench.fig9-replay", func() error {
		for _, fig := range []struct {
			id    string
			depth int
		}{{"fig9a", 10}, {"fig9b", 12}} {
			depth := fig9Depth(fig.depth, p.Scale)
			m, err := affinity.NewTreeModel(2, depth)
			if err != nil {
				return err
			}
			ns := mcast.LogSpacedSizes(capSize(p, 10000), p.GridPoints)
			base := affinity.Params{BurnInSweeps: p.MCMCBurnIn, SampleSweeps: p.MCMCSamples, Seed: rng.Split(p.Seed, int64(depth))}
			series := results[fig.id].Figure.Series
			for bi, beta := range fig9Betas {
				for ni, n := range ns {
					q := base
					q.Seed = rng.Split(base.Seed, int64(bi*1000003+ni))
					var est affinity.Estimate
					t0 := time.Now()
					err := r.tr.do("affinity.EstimateTreeSize", func() error {
						var err error
						est, err = affinity.EstimateTreeSize(m, n, beta, q)
						return err
					})
					if err != nil {
						return err
					}
					cells = append(cells, time.Since(t0).Seconds())
					steps := float64((p.MCMCBurnIn + p.MCMCSamples) * n)
					proposals += steps
					accepted += est.AcceptanceRate * steps
					want := series[bi].Y[ni]
					r.check(est.MeanTreeSize/float64(n) == want, "%s β=%g n=%d: replayed %v, figure %v", fig.id, beta, n, est.MeanTreeSize/float64(n), want)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	sweep := sum(cells)
	r.set("affinity.sweep_s", sweep, len(cells))
	r.set("affinity.cell_p50_s", median(cells), len(cells))
	r.set("affinity.cell_max_s", percentile(cells, 100), len(cells))
	r.set("affinity.proposals", proposals, len(cells))
	r.set("affinity.proposals_per_s", proposals/sweep, len(cells))
	r.set("affinity.accept_ratio", accepted/proposals, len(cells))
	r.set("affinity.replay_ratio", sweep/(r.values["experiments.fig9a_s"]+r.values["experiments.fig9b_s"]), len(cells))
	return nil
}

// fig9Depth shrinks the tree depth with the profile scale, as runFig9 does.
func fig9Depth(depth int, scale float64) int {
	if scale < 0.2 {
		depth -= 4
	} else if scale < 0.75 {
		depth -= 2
	}
	return max(depth, 4)
}

// capSize applies the profile's MaxGroupSize cap.
func capSize(p experiments.Profile, n int) int {
	if p.MaxGroupSize > 0 && n > p.MaxGroupSize {
		return p.MaxGroupSize
	}
	return n
}
