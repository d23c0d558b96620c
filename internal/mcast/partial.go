package mcast

import (
	"context"
	"math"
	"sort"

	"mtreescale/internal/graph"
	"mtreescale/internal/valid"
)

// This file holds the engines. Each quantity — the §2 curve, the
// shared-tree comparison and the footnote-4 ensemble — is measured by
// exactly one function, its Measure*PartialCtx, over a block of its
// population: sources [SrcLo, SrcHi) for the curves, networks
// [NetLo, NetHi) for the ensemble. The public MeasureX(Ctx) entry points
// measure the whole range [0, N) as one block and reduce it alone; the
// cluster layer measures sibling blocks on different workers, ships them as
// JSON and reduces them together. Blocks hold per-(source, size) partial
// sums in contiguous slabs, and every reduction folds them in global source
// (or network) order, so the float result never depends on how a sweep was
// split or scheduled.
//
// Two sharding axes are NOT offered, deliberately:
//
//   - curve segments (splitting the sizes grid): a source's sampler stream
//     is consumed across the whole grid in order, so a later segment would
//     observe different draws than the unsharded run — not byte-identical;
//   - repetition blocks: same argument, per (source, size).

// CurvePartial carries the per-(source, size) partial sums of a curve sweep
// for the global source block [SrcLo, SrcHi) in slabs indexed
// [(si-SrcLo)*K + k]. Distinct sources never share a cell, so the source
// workers fill it without locking. All float values survive a JSON round
// trip exactly (encoding/json emits shortest-round-trip float64), so a
// partial shipped over HTTP reduces byte-identically to one kept in memory.
type CurvePartial struct {
	// NSource and K pin the protocol shape the partial was measured under;
	// ReduceCurvePartials rejects mismatched partials.
	NSource int `json:"n_source"`
	K       int `json:"k"`
	// SrcLo and SrcHi delimit the global source block, 0 <= lo < hi <= NSource.
	SrcLo int `json:"src_lo"`
	SrcHi int `json:"src_hi"`

	RatioSum   []float64 `json:"ratio_sum"`
	RatioSq    []float64 `json:"ratio_sq"`
	LinkSum    []float64 `json:"link_sum"`
	UnicastSum []float64 `json:"unicast_sum"`
	Samples    []int     `json:"samples"`
}

// newCurvePartial allocates the zeroed slabs of source block [lo, hi): one
// float64 slab cut four ways and one int slab.
func newCurvePartial(nSource, K, lo, hi int) *CurvePartial {
	n := (hi - lo) * K
	slab := make([]float64, 4*n)
	return &CurvePartial{
		NSource: nSource, K: K, SrcLo: lo, SrcHi: hi,
		RatioSum:   slab[0:n],
		RatioSq:    slab[n : 2*n],
		LinkSum:    slab[2*n : 3*n],
		UnicastSum: slab[3*n : 4*n],
		Samples:    make([]int, n),
	}
}

// add records one sample for block lane (si - SrcLo) at size index k.
func (a *CurvePartial) add(lane, k int, ratio, links, unicast float64) {
	i := lane*a.K + k
	a.RatioSum[i] += ratio
	a.RatioSq[i] += ratio * ratio
	a.LinkSum[i] += links
	a.UnicastSum[i] += unicast
	a.Samples[i]++
}

// reduceCurve folds blocks that tile [0, NSource) in order into one Point
// per size. Every size sums its cells in global source order, so the float
// result is the same however the sweep was split.
func reduceCurve(sizes []int, blocks []*CurvePartial) []Point {
	points := make([]Point, len(sizes))
	for k := range sizes {
		var links, unicast, ratioSum, ratioSq float64
		n := 0
		for _, b := range blocks {
			for i := k; i < len(b.Samples); i += b.K {
				links += b.LinkSum[i]
				unicast += b.UnicastSum[i]
				ratioSum += b.RatioSum[i]
				ratioSq += b.RatioSq[i]
				n += b.Samples[i]
			}
		}
		points[k] = Point{Size: sizes[k], Samples: n}
		if n > 0 {
			mean := ratioSum / float64(n)
			points[k].MeanRatio = mean
			points[k].MeanLinks = links / float64(n)
			points[k].MeanUnicast = unicast / float64(n)
			if n > 1 {
				variance := (ratioSq - float64(n)*mean*mean) / float64(n-1)
				if variance < 0 {
					variance = 0 // float cancellation guard
				}
				points[k].RatioStdErr = math.Sqrt(variance / float64(n))
			}
		}
	}
	return points
}

// validateBlock checks a shard's [lo, hi) block against the population n.
func validateBlock(lo, hi, n int, what string) error {
	if lo < 0 || hi > n || lo >= hi {
		return valid.Badf("mcast: %s block [%d, %d) out of [0, %d)", what, lo, hi, n)
	}
	return nil
}

// MeasureCurvePartialCtx measures the source block [srcLo, srcHi) of the
// curve sweep MeasureCurveCtx(ctx, g, sizes, mode, p) runs over [0, NSource).
// The full source sequence is drawn and sliced — not re-drawn per block —
// and each source keeps its global RNG stream, so a block's cells are the
// same whichever blocks its sweep was split into. Protocol.Nested selects
// the inner loop: the nested-growth one (nested.go) or the independent-sets
// one.
func MeasureCurvePartialCtx(ctx context.Context, g *graph.Graph, sizes []int, mode Mode, p Protocol, srcLo, srcHi int) (*CurvePartial, error) {
	ctx = orBackground(ctx)
	if err := validateCurveArgs(g, sizes, mode, p); err != nil {
		return nil, err
	}
	if err := validateBlock(srcLo, srcHi, p.NSource, "source"); err != nil {
		return nil, err
	}
	st, err := resolveBatch(g, drawSources(g, p)[srcLo:srcHi], p)
	if err != nil {
		return nil, err
	}
	defer st.release()
	acc := newCurvePartial(p.NSource, len(sizes), srcLo, srcHi)
	measure := func(lane int) error {
		return measureSourceIndependent(ctx, g, srcLo+lane, lane, sizes, mode, p, st, acc)
	}
	if p.Nested {
		cuts := sizeCuts(sizes)
		maxSize := cuts[len(cuts)-1].size
		measure = func(lane int) error {
			return measureSourceNested(ctx, g, srcLo+lane, lane, cuts, maxSize, mode, p, st, acc)
		}
	}
	if err := RunWorkersN(ctx, p.EffectiveWorkers(), srcHi-srcLo, measure); err != nil {
		return nil, err
	}
	return acc, nil
}

// ReduceCurvePartials reduces source-block partials into the final curve.
// The partials must tile [0, NSource) exactly — contiguous, non-overlapping,
// complete — and agree on the protocol shape; the order of the argument
// slice does not matter. The fold visits every cell in global source order,
// so any tiling of a sweep reduces to the same bits as the whole-range
// block MeasureCurveCtx reduces.
func ReduceCurvePartials(sizes []int, parts []*CurvePartial) ([]Point, error) {
	if len(parts) == 0 {
		return nil, valid.Badf("mcast: no curve partials to reduce")
	}
	ordered := make([]*CurvePartial, len(parts))
	copy(ordered, parts)
	for _, pt := range ordered {
		if pt == nil {
			return nil, valid.Badf("mcast: nil curve partial")
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].SrcLo < ordered[j].SrcLo })
	nSource, k := ordered[0].NSource, ordered[0].K
	if k != len(sizes) {
		return nil, valid.Badf("mcast: partial has K=%d, want %d grid points", k, len(sizes))
	}
	next := 0
	for _, pt := range ordered {
		if pt.NSource != nSource || pt.K != k {
			return nil, valid.Badf("mcast: mismatched curve partial shape (NSource %d vs %d, K %d vs %d)", pt.NSource, nSource, pt.K, k)
		}
		if pt.SrcLo != next {
			return nil, valid.Badf("mcast: source blocks do not tile: want block starting at %d, got [%d, %d)", next, pt.SrcLo, pt.SrcHi)
		}
		if err := validateBlock(pt.SrcLo, pt.SrcHi, nSource, "source"); err != nil {
			return nil, err
		}
		cells := (pt.SrcHi - pt.SrcLo) * k
		if len(pt.RatioSum) != cells || len(pt.RatioSq) != cells ||
			len(pt.LinkSum) != cells || len(pt.UnicastSum) != cells || len(pt.Samples) != cells {
			return nil, valid.Badf("mcast: curve partial [%d, %d) has wrong slab size", pt.SrcLo, pt.SrcHi)
		}
		next = pt.SrcHi
	}
	if next != nSource {
		return nil, valid.Badf("mcast: source blocks cover [0, %d), want [0, %d)", next, nSource)
	}
	return reduceCurve(sizes, ordered), nil
}

// SharedPartial is CurvePartial's shape for the shared-tree comparison:
// per-(source, size) partial sums of source-tree size, shared-tree size and
// the per-sample overhead ratio for the block [SrcLo, SrcHi).
type SharedPartial struct {
	NSource int `json:"n_source"`
	K       int `json:"k"`
	SrcLo   int `json:"src_lo"`
	SrcHi   int `json:"src_hi"`

	SrcSum  []float64 `json:"src_sum"`
	ShrSum  []float64 `json:"shr_sum"`
	OvhSum  []float64 `json:"ovh_sum"`
	Samples []int     `json:"samples"`
}

func newSharedPartial(nSource, K, lo, hi int) *SharedPartial {
	n := (hi - lo) * K
	slab := make([]float64, 3*n)
	return &SharedPartial{
		NSource: nSource, K: K, SrcLo: lo, SrcHi: hi,
		SrcSum:  slab[0:n],
		ShrSum:  slab[n : 2*n],
		OvhSum:  slab[2*n : 3*n],
		Samples: make([]int, n),
	}
}

func (a *SharedPartial) add(lane, k int, src, shr, overhead float64) {
	i := lane*a.K + k
	a.SrcSum[i] += src
	a.ShrSum[i] += shr
	a.OvhSum[i] += overhead
	a.Samples[i]++
}

// reduceShared is reduceCurve for the shared-tree comparison: blocks tile
// [0, NSource) in order, and every size sums its cells in source order.
func reduceShared(sizes []int, blocks []*SharedPartial) []SharedPoint {
	out := make([]SharedPoint, len(sizes))
	for k := range out {
		out[k].Size = sizes[k]
		for _, b := range blocks {
			for i := k; i < len(b.Samples); i += b.K {
				out[k].MeanSourceTree += b.SrcSum[i]
				out[k].MeanSharedTree += b.ShrSum[i]
				out[k].MeanOverhead += b.OvhSum[i]
				out[k].Samples += b.Samples[i]
			}
		}
		if out[k].Samples > 0 {
			n := float64(out[k].Samples)
			out[k].MeanSourceTree /= n
			out[k].MeanSharedTree /= n
			out[k].MeanOverhead /= n
		}
	}
	return out
}

// MeasureSharedCurvePartialCtx measures the source block [srcLo, srcHi) of
// the shared-tree sweep MeasureSharedCurveCtx runs over [0, NSource). The
// full (source, core) pair sequence is drawn and sliced, and a CoreCenter
// strategy recomputes the same deterministic center for every block, so a
// block's cells never depend on the split.
func MeasureSharedCurvePartialCtx(ctx context.Context, g *graph.Graph, sizes []int, strategy CoreStrategy, p Protocol, srcLo, srcHi int) (*SharedPartial, error) {
	ctx = orBackground(ctx)
	if err := validateSharedArgs(g, sizes, p); err != nil {
		return nil, err
	}
	if err := validateBlock(srcLo, srcHi, p.NSource, "source"); err != nil {
		return nil, err
	}
	sources, cores, err := drawSharedPairs(g, strategy, p)
	if err != nil {
		return nil, err
	}
	// Source and core trees resolve together: lane i is sources[srcLo+i],
	// lane nBlock+i is cores[srcLo+i].
	nBlock := srcHi - srcLo
	combined := make([]int, 0, 2*nBlock)
	combined = append(combined, sources[srcLo:srcHi]...)
	combined = append(combined, cores[srcLo:srcHi]...)
	st, err := resolveBatch(g, combined, p)
	if err != nil {
		return nil, err
	}
	defer st.release()
	acc := newSharedPartial(p.NSource, len(sizes), srcLo, srcHi)
	err = RunWorkersN(ctx, p.EffectiveWorkers(), nBlock, func(lane int) error {
		return measureSourceShared(ctx, g, srcLo+lane, lane, nBlock, sizes, p, st, acc)
	})
	if err != nil {
		return nil, err
	}
	return acc, nil
}

// ReduceSharedPartials reduces shared-curve source blocks under the same
// tiling rules and source-order fold as ReduceCurvePartials.
func ReduceSharedPartials(sizes []int, parts []*SharedPartial) ([]SharedPoint, error) {
	if len(parts) == 0 {
		return nil, valid.Badf("mcast: no shared partials to reduce")
	}
	ordered := make([]*SharedPartial, len(parts))
	copy(ordered, parts)
	for _, pt := range ordered {
		if pt == nil {
			return nil, valid.Badf("mcast: nil partial")
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].SrcLo < ordered[j].SrcLo })
	nSource, k := ordered[0].NSource, ordered[0].K
	if k != len(sizes) {
		return nil, valid.Badf("mcast: partial has K=%d, want %d grid points", k, len(sizes))
	}
	next := 0
	for _, pt := range ordered {
		if pt.NSource != nSource || pt.K != k {
			return nil, valid.Badf("mcast: mismatched shared partial shape (NSource %d vs %d, K %d vs %d)", pt.NSource, nSource, pt.K, k)
		}
		if pt.SrcLo != next {
			return nil, valid.Badf("mcast: source blocks do not tile: want block starting at %d, got [%d, %d)", next, pt.SrcLo, pt.SrcHi)
		}
		if err := validateBlock(pt.SrcLo, pt.SrcHi, nSource, "source"); err != nil {
			return nil, err
		}
		cells := (pt.SrcHi - pt.SrcLo) * k
		if len(pt.SrcSum) != cells || len(pt.ShrSum) != cells ||
			len(pt.OvhSum) != cells || len(pt.Samples) != cells {
			return nil, valid.Badf("mcast: shared partial [%d, %d) has wrong slab size", pt.SrcLo, pt.SrcHi)
		}
		next = pt.SrcHi
	}
	if next != nSource {
		return nil, valid.Badf("mcast: source blocks cover [0, %d), want [0, %d)", next, nSource)
	}
	return reduceShared(sizes, ordered), nil
}

// EnsemblePartial carries the per-network curves of the topology-ensemble
// block [NetLo, NetHi): PerNet[i] is the full curve of network NetLo+i.
// Ensembles shard at network granularity — each instance derives its
// generation and measurement seeds from its global index — so a block's
// curves never depend on the split.
type EnsemblePartial struct {
	NNetworks int `json:"n_networks"`
	NetLo     int `json:"net_lo"`
	NetHi     int `json:"net_hi"`

	PerNet [][]Point `json:"per_net"`
}

// MeasureEnsemblePartialCtx measures the network block [netLo, netHi) of
// the ensemble sweep MeasureEnsembleCtx runs over [0, nNetworks).
func MeasureEnsemblePartialCtx(ctx context.Context, gen func(seed int64) (*graph.Graph, error), nNetworks int, sizes []int, mode Mode, p Protocol, netLo, netHi int) (*EnsemblePartial, error) {
	ctx = orBackground(ctx)
	if gen == nil {
		return nil, valid.Badf("mcast: nil generator")
	}
	if nNetworks < 1 {
		return nil, valid.Badf("mcast: nNetworks must be >= 1, got %d", nNetworks)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := validateBlock(netLo, netHi, nNetworks, "network"); err != nil {
		return nil, err
	}
	perNet, err := measureEnsembleNets(ctx, gen, netLo, netHi, sizes, mode, p)
	if err != nil {
		return nil, err
	}
	return &EnsemblePartial{NNetworks: nNetworks, NetLo: netLo, NetHi: netHi, PerNet: perNet}, nil
}

// ReduceEnsemblePartials reduces network-block partials with the
// network-order weighted fold of reduceEnsemble; the blocks must tile
// [0, NNetworks) exactly.
func ReduceEnsemblePartials(sizes []int, parts []*EnsemblePartial) ([]Point, error) {
	if len(parts) == 0 {
		return nil, valid.Badf("mcast: no ensemble partials to reduce")
	}
	ordered := make([]*EnsemblePartial, len(parts))
	copy(ordered, parts)
	for _, pt := range ordered {
		if pt == nil {
			return nil, valid.Badf("mcast: nil partial")
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].NetLo < ordered[j].NetLo })
	nNetworks := ordered[0].NNetworks
	next := 0
	for _, pt := range ordered {
		if pt.NNetworks != nNetworks {
			return nil, valid.Badf("mcast: mismatched ensemble size (%d vs %d)", pt.NNetworks, nNetworks)
		}
		if pt.NetLo != next {
			return nil, valid.Badf("mcast: network blocks do not tile: want block starting at %d, got [%d, %d)", next, pt.NetLo, pt.NetHi)
		}
		if err := validateBlock(pt.NetLo, pt.NetHi, nNetworks, "network"); err != nil {
			return nil, err
		}
		if len(pt.PerNet) != pt.NetHi-pt.NetLo {
			return nil, valid.Badf("mcast: ensemble partial [%d, %d) has %d curves", pt.NetLo, pt.NetHi, len(pt.PerNet))
		}
		for i, pts := range pt.PerNet {
			if len(pts) != len(sizes) {
				return nil, valid.Badf("mcast: network %d curve has %d points, want %d", pt.NetLo+i, len(pts), len(sizes))
			}
		}
		next = pt.NetHi
	}
	if next != nNetworks {
		return nil, valid.Badf("mcast: network blocks cover [0, %d), want [0, %d)", next, nNetworks)
	}
	return reduceEnsemble(sizes, ordered), nil
}
