package affinity

import (
	"context"
	"math"
	"runtime"
	"sort"

	"mtreescale/internal/mcast"
	"mtreescale/internal/rng"
	"mtreescale/internal/stats"
	"mtreescale/internal/valid"
)

// Estimate is the Monte-Carlo estimate of L̄_β(n) for one (β, n) pair.
type Estimate struct {
	Beta float64
	N    int
	// MeanTreeSize is the weighted-average delivery-tree size L̄_β(n).
	MeanTreeSize float64
	// StdErr is a naive (autocorrelation-ignoring) standard error of
	// MeanTreeSize; use it for trend checks only.
	StdErr float64
	// MeanPairDist is the average d̂ over sampled configurations.
	MeanPairDist float64
	// AcceptanceRate is the chain's overall Metropolis acceptance rate.
	AcceptanceRate float64
	// Samples is the number of post-burn-in samples.
	Samples int
}

// Params controls the sampler.
type Params struct {
	// BurnInSweeps discarded before measuring. Default 50.
	BurnInSweeps int
	// SampleSweeps measured. Default 200.
	SampleSweeps int
	// Thin takes one sample every Thin sweeps. Default 1.
	Thin int
	// Seed drives the chain deterministically.
	Seed int64
}

func (p *Params) normalize() error {
	if p.BurnInSweeps == 0 {
		p.BurnInSweeps = 50
	}
	if p.SampleSweeps == 0 {
		p.SampleSweeps = 200
	}
	if p.Thin == 0 {
		p.Thin = 1
	}
	if p.BurnInSweeps < 0 || p.SampleSweeps < 1 || p.Thin < 1 {
		return valid.Badf("affinity: invalid sampler params %+v", *p)
	}
	return nil
}

// checkBeta rejects the affinity strengths no chain can sample: NaN poisons
// every Metropolis acceptance ratio (comparisons with NaN are all false, so
// the chain silently freezes), and ±Inf overflows exp() in the acceptance
// rule. Finite β of either sign is legal — negative β is the dispersion
// regime.
func checkBeta(beta float64) error {
	if math.IsNaN(beta) {
		return valid.Badf("affinity: beta is NaN")
	}
	if math.IsInf(beta, 0) {
		return valid.Badf("affinity: beta is infinite (%v)", beta)
	}
	return nil
}

// EstimateTreeSize samples L̄_β(n) on a k-ary tree with receivers at all
// non-root sites (Figure 9's setup).
func EstimateTreeSize(m *TreeModel, n int, beta float64, p Params) (Estimate, error) {
	return estimateTreeSize(context.Background(), m, n, beta, p)
}

// estimateTreeSize is EstimateTreeSize under a context polled once per
// sweep; a cancelled chain returns ctx.Err().
func estimateTreeSize(ctx context.Context, m *TreeModel, n int, beta float64, p Params) (Estimate, error) {
	if err := p.normalize(); err != nil {
		return Estimate{}, err
	}
	chain, err := m.NewChain(n, beta, rng.New(p.Seed))
	if err != nil {
		return Estimate{}, err
	}
	sweep := func() error {
		if err := ctx.Err(); err != nil {
			return err
		}
		chain.Sweep()
		return nil
	}
	for i := 0; i < p.BurnInSweeps; i++ {
		if err := sweep(); err != nil {
			return Estimate{}, err
		}
	}
	var sizeW, distW stats.Welford
	for i := 0; i < p.SampleSweeps; i++ {
		for t := 0; t < p.Thin; t++ {
			if err := sweep(); err != nil {
				return Estimate{}, err
			}
		}
		sizeW.Add(float64(chain.TreeSize()))
		distW.Add(chain.AvgPairDist())
	}
	if err := chain.CheckInvariants(); err != nil {
		return Estimate{}, err
	}
	return Estimate{
		Beta:           beta,
		N:              n,
		MeanTreeSize:   sizeW.Mean(),
		StdErr:         sizeW.StdErr(),
		MeanPairDist:   distW.Mean(),
		AcceptanceRate: chain.AcceptanceRate(),
		Samples:        sizeW.N(),
	}, nil
}

// Sweep9 runs the Figure 9 protocol: for each β and each group size n,
// estimate L̄_β(n)/n. Returns estimates indexed [beta][n].
//
// Every cell has its own seed, rng.Split(p.Seed, bi*1000003+ni), so the cells
// run on the mcast worker pool (GOMAXPROCS workers, largest n first, since
// cell cost grows with n) and the result is identical for any worker count.
// Each cell writes only its own slot; when cells fail, the error of the first
// failing cell in [beta][n] order is returned. Cancelling ctx stops every
// chain within one sweep and returns ctx.Err().
func Sweep9(ctx context.Context, m *TreeModel, betas []float64, ns []int, p Params) ([][]Estimate, error) {
	out := make([][]Estimate, len(betas))
	for bi := range out {
		out[bi] = make([]Estimate, len(ns))
	}
	cells := make([]int, len(betas)*len(ns))
	for c := range cells {
		cells[c] = c
	}
	sort.SliceStable(cells, func(i, j int) bool { return ns[cells[i]%len(ns)] > ns[cells[j]%len(ns)] })
	errs := make([]error, len(cells))
	err := mcast.RunWorkersN(ctx, runtime.GOMAXPROCS(0), len(cells), func(j int) error {
		c := cells[j]
		bi, ni := c/len(ns), c%len(ns)
		q := p
		q.Seed = rng.Split(p.Seed, int64(bi*1000003+ni))
		out[bi][ni], errs[c] = estimateTreeSize(ctx, m, ns[ni], betas[bi], q)
		return nil
	})
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
