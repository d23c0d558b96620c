package main

import (
	"bytes"
	"context"
	"encoding/json"

	"mtreescale/internal/graph"
	"mtreescale/internal/mcast"
	"mtreescale/internal/reach"
	"mtreescale/internal/topology"
)

// bfs-large sizes: a 1M-node transit-stub graph, one L(m) curve with 64
// sources and a few receiver sets per size, and S(r) from 32 sources.
const (
	bfsNodes     = 1_000_000
	bfsDegree    = 4.0
	bfsSources   = 64
	bfsRcvr      = 4
	bfsMaxSize   = 10_000
	bfsSizes     = 12
	bfsReachSrcs = 32
)

// runBFS is the bfs-large workload: the curve and S(r) on the same graph in
// the flat and the compressed CSR layout. Building and compressing the
// graph is set-up. The two layouts must give byte-identical results.
func runBFS(r *run) error {
	var layouts []*graph.Graph // the flat graph, then its compressed layout
	err := r.setups(3, func() error {
		layouts = nil
		settle()
		g, err := topology.TransitStubStreamed(bfsNodes, bfsDegree, r.seed)
		if err != nil {
			return err
		}
		c, err := g.Compress(false)
		if err != nil {
			return err
		}
		layouts = []*graph.Graph{g, c}
		return nil
	})
	if err != nil {
		return err
	}
	sizes := mcast.LogSpacedSizes(bfsMaxSize, bfsSizes)
	prot := mcast.Protocol{NSource: bfsSources, NRcvr: bfsRcvr, Seed: r.seed, BatchBFS: true}

	var walls, allocs []float64
	// pass measures both layouts and checks that they agree.
	pass := func(tr *tracer) error {
		var outs [][]byte
		for _, g := range layouts {
			var pts []mcast.Point
			var s *reach.Reachability
			err := tr.do("mcast.MeasureCurve", func() error {
				var err error
				pts, err = mcast.MeasureCurveCtx(context.Background(), g, sizes, mcast.Distinct, prot)
				return err
			})
			if err != nil {
				return err
			}
			// S(r) through the MS-BFS batch path, the one the experiments
			// take: every profile turns BatchBFS on.
			err = tr.do("graph.reach", func() error {
				var err error
				s, err = reach.MeasureAveragedBatch(g, bfsReachSrcs, r.seed, nil, true)
				return err
			})
			if err != nil {
				return err
			}
			if tr != nil {
				// The traced pass also times the curve's multi-source BFS
				// on its own, after the calls above so that they run as in
				// the untraced passes.
				err := tr.do("graph.BatchSPTs", func() error {
					b := graph.AcquireSPTBatch()
					defer graph.ReleaseSPTBatch(b)
					return g.BatchSPTsInto(curveSources(g, prot.Seed, prot.NSource), b)
				})
				if err != nil {
					return err
				}
			}
			b, err := json.Marshal(struct {
				Points []mcast.Point
				S      []float64
			}{pts, s.S})
			if err != nil {
				return err
			}
			outs = append(outs, b)
		}
		r.check(bytes.Equal(outs[0], outs[1]), "bfs-large: flat and compressed results differ")
		return nil
	}
	iter := func(int) error {
		sec, mb, err := timed(func() error { return pass(nil) })
		walls, allocs = append(walls, sec), append(allocs, mb)
		return err
	}
	if !r.traced {
		if err := r.loop(1, iter); err != nil {
			return err
		}
		return r.record(walls, allocs)
	}

	if err := iter(0); err != nil {
		return err
	}
	settle()
	if err := r.tr.do("bench.bfs", func() error { return pass(r.tr) }); err != nil {
		return err
	}
	spans := r.tr.spans
	batches := durations(spans, "graph.BatchSPTs")
	curves := durations(spans, "mcast.MeasureCurve")
	r.set("graph.spt_flat_s", batches[0], 1)
	r.set("graph.spt_compressed_s", batches[1], 1)
	r.set("graph.spt_sources", float64(len(batches)*bfsSources), len(batches))
	r.set("graph.spt_edges_per_s", float64(len(batches)*bfsSources)*2*float64(layouts[0].M())/(batches[0]+batches[1]), len(batches))
	r.set("graph.reach_s", total(spans, "graph.reach").Seconds(), len(durations(spans, "graph.reach")))
	// Derived: the curve call resolves its trees through the same batch
	// kernel, so accumulation is the curve time minus the timed batch.
	r.set("mcast.accumulate_s", curves[0]+curves[1]-batches[0]-batches[1], len(curves))
	trees := float64(len(curves) * bfsSources * bfsRcvr * len(sizes))
	r.set("mcast.trees", trees, len(curves))
	r.set("mcast.trees_per_s", trees/r.values["mcast.accumulate_s"], len(curves))
	var gmb float64
	for _, g := range layouts {
		gmb += float64(g.MemBytes()) / (1 << 20)
	}
	r.set("topology.graph_mb", gmb, len(layouts))
	r.set("topology.generate_s", r.values["setup_s"], r.samples["setup_s"])
	// The traced pass adds one explicit batch per layout; the overhead
	// compares like with like by leaving those spans out.
	traced := total(spans, "bench.bfs").Seconds() - batches[0] - batches[1]
	r.traceMetrics(walls[0], traced)
	return nil
}
