package mcast

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"mtreescale/internal/arena"
	"mtreescale/internal/chaos"
	"mtreescale/internal/graph"
	"mtreescale/internal/panicsafe"
	"mtreescale/internal/rng"
	"mtreescale/internal/valid"
)

// Protocol is the Monte-Carlo measurement protocol of §2 of the paper:
// NSource random sources (drawn with replacement), and for each source and
// each group size, NRcvr random receiver sets.
type Protocol struct {
	// NSource is the number of source draws (paper default 100).
	NSource int
	// NRcvr is the number of receiver sets per source and group size
	// (paper default 100).
	NRcvr int
	// Seed makes the whole sweep deterministic.
	Seed int64
	// IncludeSource lets the source site also be drawn as a receiver.
	// The paper excludes it (receivers are *other* sites).
	IncludeSource bool
	// Workers bounds the number of concurrent source workers; 0 means
	// GOMAXPROCS. The pool never runs more workers than there are source
	// jobs, so the effective concurrency is min(Workers, NSource) — see
	// EffectiveWorkers. Requesting more is not an error, just headroom
	// that cannot be used.
	Workers int
	// Nested makes the curve engine grow one receiver sequence per
	// (source, repetition) link by link and read it off at every grid size
	// (nested.go), instead of drawing an independent receiver set per
	// (source, size, repetition). Statistically equivalent to the
	// independent-sets protocol and roughly GridPoints× cheaper; the
	// paper-faithful reference path is Nested == false.
	Nested bool
	// SPTCache resolves source trees through the process-wide
	// graph.SharedSPTs cache (pre-filled in 64-lane MS-BFS batches), so
	// experiments that draw the same sources on the same (topology-cached)
	// graph reuse trees instead of re-running BFS. Without it, a sweep's
	// trees live in one pooled slab for the sweep's duration. Results are
	// byte-identical either way. Leave false for transient graphs that
	// should not pin cache budget.
	SPTCache bool
	// BatchBFS is ignored: source trees always resolve through the
	// multi-source BFS kernel, falling back to per-source BFS only when a
	// sweep's slab would exceed graph.MaxBatchSlabBytes.
	//
	// Deprecated: no code reads this field.
	BatchBFS bool
}

// Validate checks protocol sanity. Failures wrap valid.ErrParam, so a
// serving boundary can classify them as bad requests. Workers > NSource is
// accepted (the pool clamps, it does not fail): worker count is a resource
// hint, and rejecting it would make the same protocol valid or invalid
// depending on an unrelated sample-size field.
func (p Protocol) Validate() error {
	if p.NSource <= 0 || p.NRcvr <= 0 {
		return valid.Badf("mcast: protocol needs NSource > 0 and NRcvr > 0 (got %d, %d)", p.NSource, p.NRcvr)
	}
	if p.Workers < 0 {
		return valid.Badf("mcast: negative worker count %d", p.Workers)
	}
	return nil
}

// EffectiveWorkers returns the number of source workers the engines will
// actually run for this protocol: Workers (or GOMAXPROCS when 0), clamped to
// NSource because the pool parallelizes over source jobs and extra workers
// would sit idle.
func (p Protocol) EffectiveWorkers() int {
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p.NSource && p.NSource > 0 {
		workers = p.NSource
	}
	return workers
}

// DefaultProtocol is the paper's 100×100 protocol.
func DefaultProtocol(seed int64) Protocol {
	return Protocol{NSource: 100, NRcvr: 100, Seed: seed}
}

// Point is the aggregated observation for one group size.
type Point struct {
	// Size is the group size: m (distinct mode) or n (replacement mode).
	Size int
	// MeanRatio is the average of L/ū over all samples — the y-value of
	// the paper's Figure 1 (before taking logs).
	MeanRatio float64
	// RatioStdErr is the standard error of MeanRatio.
	RatioStdErr float64
	// MeanLinks is the average delivery-tree size L.
	MeanLinks float64
	// MeanUnicast is the average per-sample unicast path length ū.
	MeanUnicast float64
	// Samples is the number of Monte-Carlo samples aggregated.
	Samples int
}

// Mode selects between the paper's two receiver-drawing protocols.
type Mode int

const (
	// Distinct draws exactly m distinct receiver sites: the L(m) protocol.
	Distinct Mode = iota
	// WithReplacement draws n sites with replacement: the L̄(n) protocol.
	WithReplacement
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Distinct:
		return "distinct"
	case WithReplacement:
		return "with-replacement"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// MeasureCurve runs the full §2 protocol on g for every group size in sizes
// and returns one aggregated Point per size, in input order.
//
// The computation parallelizes over sources; results are deterministic for a
// fixed Protocol regardless of scheduling, because each source draw has its
// own derived RNG stream and partial sums are reduced in source order.
func MeasureCurve(g *graph.Graph, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	return MeasureCurveCtx(context.Background(), g, sizes, mode, p)
}

// MeasureCurveCtx is MeasureCurve under a cancellation context: the worker
// pool observes ctx at grid-point granularity, abandons the sweep promptly
// after cancellation, and returns ctx's error. A nil ctx means Background.
// It is the whole source range [0, NSource) measured as one block and
// reduced alone (partial.go).
func MeasureCurveCtx(ctx context.Context, g *graph.Graph, sizes []int, mode Mode, p Protocol) ([]Point, error) {
	part, err := MeasureCurvePartialCtx(ctx, g, sizes, mode, p, 0, p.NSource)
	if err != nil {
		return nil, err
	}
	return ReduceCurvePartials(sizes, []*CurvePartial{part})
}

// orBackground normalizes a nil context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// validateCurveArgs checks the arguments of a curve sweep.
func validateCurveArgs(g *graph.Graph, sizes []int, mode Mode, p Protocol) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if mode != Distinct && mode != WithReplacement {
		return valid.Badf("mcast: unknown mode %v", mode)
	}
	if g.N() < 2 {
		return valid.Badf("mcast: graph too small (N=%d)", g.N())
	}
	if len(sizes) == 0 {
		return valid.Badf("mcast: empty group-size grid")
	}
	maxPop := g.N()
	if !p.IncludeSource {
		maxPop--
	}
	for _, s := range sizes {
		if s <= 0 {
			return valid.Badf("mcast: group size %d must be positive", s)
		}
		if mode == Distinct && s > maxPop {
			return valid.Badf("mcast: m=%d exceeds receiver population %d", s, maxPop)
		}
	}
	return nil
}

// drawSources pre-draws the protocol's source sequence deterministically.
func drawSources(g *graph.Graph, p Protocol) []int {
	srcRand := rng.NewChild(p.Seed, -1)
	sources := make([]int, p.NSource)
	for i := range sources {
		sources[i] = srcRand.Intn(g.N())
	}
	return sources
}

// runSourceWorkers fans p.NSource source jobs out over the protocol's worker
// pool. The jobs channel is buffered to NSource so a worker that returns
// early on error can never strand the feed loop mid-send (the deadlock a
// failing source used to cause with an unbuffered channel).
//
// Robustness: workers check ctx before picking up each source job (the inner
// measurement loops additionally poll it at grid-point granularity), and
// every job runs under panicsafe.Do, so a panicking source job surfaces as
// an ordinary error from the engine instead of killing the process.
func runSourceWorkers(ctx context.Context, p Protocol, job func(si int) error) error {
	return RunWorkersN(ctx, p.EffectiveWorkers(), p.NSource, job)
}

// RunWorkersN is the worker pool behind runSourceWorkers, generalized to an
// arbitrary job count so the engines can fan out over just their source
// block and the affinity package can fan out its Figure 9 cells.
// Jobs are dispatched in index order; workers is clamped to nJobs. Each job
// runs under panicsafe.Do after a ctx check; the first failing worker's
// error is returned, preferring a real failure over a cancellation error.
func RunWorkersN(ctx context.Context, workers, nJobs int, job func(i int) error) error {
	if workers > nJobs {
		workers = nJobs
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int, nJobs)
	for si := 0; si < nJobs; si++ {
		jobs <- si
	}
	close(jobs)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si := range jobs {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				// Failpoint "mcast.worker": latency rules stall a source job
				// (a straggling worker), error rules abort the engine like a
				// failing measurement, panic rules exercise panicsafe below.
				if err := chaos.Maybe("mcast.worker"); err != nil {
					errs[w] = err
					return
				}
				if err := panicsafe.Do(func() error { return job(si) }); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Prefer a real measurement failure over a bare cancellation error so
	// the caller sees the root cause when both raced.
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if err == context.Canceled || err == context.DeadlineExceeded {
			ctxErr = err
			continue
		}
		return err
	}
	// ctxErr is nil when every job completed before cancellation was
	// observed — the sweep is whole, so report success.
	return ctxErr
}

// sourceScratch is the per-worker reusable state of the curve engines: the
// shortest-path tree, the tree counter, the sampler (Reset per source), and
// the receiver buffer. Pooling it means steady-state measurement performs no
// per-source allocation beyond the RNG stream.
type sourceScratch struct {
	spt     graph.SPT // fallback BFS buffer
	spt2    graph.SPT // fallback BFS buffer for the shared-curve core tree
	view    graph.SPT // slab lane view; aliases a slab, never fed to BFSInto
	view2   graph.SPT // core lane view for the shared-curve engine
	pd, pd2 []int64   // packed (dist, parent) words for the fused loops
	counter *TreeCounter
	smp     Sampler
	recv    []int32
	// ar backs pd/pd2 and the sampler scratch with recycled slabs, so
	// sweeping graphs of different scales (the large-graph regime's 1M/10M
	// interleavings) re-slabs instead of re-allocating. The counter keeps
	// plain make: its epoch array must be zeroed on growth either way.
	ar *arena.Arena
}

var scratchPool = sync.Pool{New: func() any {
	sc := &sourceScratch{ar: arena.New()}
	sc.smp.ar = sc.ar
	return sc
}}

func getScratch(n int) *sourceScratch {
	sc := scratchPool.Get().(*sourceScratch)
	if sc.counter == nil || len(sc.counter.visited) < n {
		sc.counter = NewTreeCounter(n)
	}
	return sc
}

// growPacked sizes a packed-word buffer for packTree through the arena.
func (sc *sourceScratch) growPacked(pd []int64, n int) []int64 {
	return sc.ar.GrowInt64(pd, n)
}

// prepare resolves lane's shortest-path tree through st and resets the
// sampler for the source. The returned SPT is read-only.
//
// si is the source's global protocol index (it keys the per-source RNG
// stream); lane is its slot in st, si - SrcLo.
func (sc *sourceScratch) prepare(g *graph.Graph, si, lane int, p Protocol, st *sourceTrees) (*graph.SPT, error) {
	spt, err := st.tree(lane, &sc.view, &sc.spt)
	if err != nil {
		return nil, err
	}
	exclude := spt.Source
	if p.IncludeSource {
		exclude = -1
	}
	if err := sc.smp.Reset(g.N(), exclude, rng.NewChild(p.Seed, int64(si))); err != nil {
		return nil, err
	}
	return spt, nil
}

// measureSourceIndependent runs the paper-faithful §2 inner loop for one
// source: an independent receiver set per (size, repetition), observing ctx
// at every grid point so cancellation interrupts even a single huge source.
// The tree is packed once per source and every sample measured through the
// fused packed walk (exact-integer equivalent of counter.Measure).
//
// si is the global source index (RNG identity); lane is the tree and
// accumulator slot, si - SrcLo.
func measureSourceIndependent(ctx context.Context, g *graph.Graph, si, lane int, sizes []int, mode Mode, p Protocol, st *sourceTrees, acc *CurvePartial) error {
	sc := getScratch(g.N())
	defer scratchPool.Put(sc)
	spt, err := sc.prepare(g, si, lane, p, st)
	if err != nil {
		return err
	}
	sc.pd = packTree(spt, sc.growPacked(sc.pd, len(spt.Parent)))
	for k, size := range sizes {
		if err := ctx.Err(); err != nil {
			return err
		}
		for rep := 0; rep < p.NRcvr; rep++ {
			switch mode {
			case Distinct:
				sc.recv, err = sc.smp.Distinct(size, sc.recv)
			case WithReplacement:
				sc.recv, err = sc.smp.WithReplacement(size, sc.recv)
			default:
				err = fmt.Errorf("mcast: unknown mode %v", mode)
			}
			if err != nil {
				return err
			}
			meas := sc.counter.measurePacked(int32(spt.Source), sc.pd, sc.recv)
			if meas.Receivers == 0 {
				continue // source in a tiny component; skip sample
			}
			acc.add(lane, k, meas.Ratio(), float64(meas.Links), meas.AvgUnicast())
		}
	}
	return nil
}

// LogSpacedSizes returns up to count distinct group sizes spanning [1, max],
// approximately geometrically spaced — the x-grid of the paper's log-scale
// figures.
func LogSpacedSizes(max, count int) []int {
	if max < 1 || count < 1 {
		return nil
	}
	if count > max {
		count = max
	}
	out := make([]int, 0, count)
	last := 0
	for i := 0; i < count; i++ {
		var v int
		if count == 1 {
			v = max
		} else {
			v = int(math.Pow(float64(max), float64(i)/float64(count-1)) + 0.5)
		}
		if v <= last {
			v = last + 1
		}
		if v > max {
			break
		}
		out = append(out, v)
		last = v
	}
	return out
}
