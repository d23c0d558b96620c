package affinity

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mtreescale/internal/rng"
)

// uphillDraws tallies refStep's uphill decisions by whether reject's bracket
// settles them (fast) or they fall through to math.Exp (exact).
type uphillDraws struct{ fast, exact int }

// refStep is the full-walk Metropolis move Step replaced, kept as the
// oracle: apply the move along both root paths, read Δ off pairSum, decide
// with math.Exp, and walk both paths again to revert a rejection. Step must
// make the same decisions from the same random draws and leave the same
// state behind. Each uphill draw is counted in tally.
func refStep(c *Chain, tally *uphillDraws) {
	c.proposed++
	i := c.rand.Intn(c.n)
	from := c.positions[i]
	to := int32(c.siteBase + c.rand.Intn(c.siteCount))
	if to == from {
		c.accepted++
		return
	}
	oldPair := c.pairSum
	c.addPath(from, -1)
	c.addPath(to, +1)
	c.positions[i] = to
	if c.beta == 0 || c.n < 2 {
		c.accepted++
		return
	}
	pairs := float64(int64(c.n) * int64(c.n-1) / 2)
	deltaD := float64(c.pairSum-oldPair) / pairs
	if deltaD <= 0 && c.beta > 0 || deltaD >= 0 && c.beta < 0 {
		c.accepted++ // downhill for this β: always accept
		return
	}
	u, x := c.rand.Float64(), -c.beta*deltaD
	if u < 1+x-rejectMargin || u >= 1+x+x*x/2+rejectMargin {
		tally.fast++
	} else {
		tally.exact++
	}
	if u < math.Exp(x) {
		c.accepted++
		return
	}
	// Reject: revert.
	c.addPath(to, -1)
	c.addPath(from, +1)
	c.positions[i] = from
}

// sameChainState reports the first field in which two chains differ.
func sameChainState(a, b *Chain) error {
	switch {
	case !slices.Equal(a.positions, b.positions):
		return fmt.Errorf("positions %v, oracle %v", a.positions, b.positions)
	case a.pairSum != b.pairSum:
		return fmt.Errorf("pairSum %d, oracle %d", a.pairSum, b.pairSum)
	case a.treeLinks != b.treeLinks:
		return fmt.Errorf("treeLinks %d, oracle %d", a.treeLinks, b.treeLinks)
	case !slices.Equal(a.cnt, b.cnt):
		return fmt.Errorf("link counts differ")
	case a.accepted != b.accepted || a.proposed != b.proposed:
		return fmt.Errorf("accepted/proposed %d/%d, oracle %d/%d", a.accepted, a.proposed, b.accepted, b.proposed)
	}
	return nil
}

// stepLockstep runs Step on got and refStep on want, which were built from
// identical seeds, comparing the whole chain state after every step and
// re-deriving got's from scratch every checkEvery steps. It returns the
// oracle's uphill-draw tally.
func stepLockstep(t *testing.T, name string, got, want *Chain, ra, rb *rng.Rand, steps, checkEvery int) uphillDraws {
	t.Helper()
	var tally uphillDraws
	for s := 0; s < steps; s++ {
		got.Step()
		refStep(want, &tally)
		if err := sameChainState(got, want); err != nil {
			t.Fatalf("%s step %d: %v", name, s, err)
		}
		if s%checkEvery == 0 || s == steps-1 {
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s step %d: %v", name, s, err)
			}
		}
	}
	// Equal next draws pin the number of draws consumed.
	if ra.Uint64() != rb.Uint64() {
		t.Fatalf("%s: random streams diverged", name)
	}
	return tally
}

// TestStepMatchesFullWalkOracle runs Step and refStep in lockstep from
// identical seeds over k, depth, site set, β of both signs and n from a single
// receiver to more receivers than sites, comparing the whole chain state and
// re-deriving it from scratch after every step. It then runs the Figure 9
// shape (k = 2, all sites, every Figure 9 β) at n = 500 and 2000, where |x|
// is small and nearly every uphill draw is settled by reject's bracket, and
// requires the bracket to have settled most of them.
func TestStepMatchesFullWalkOracle(t *testing.T) {
	betas := []float64{-10, -1, -0.1, 0, 0.1, 1, 10}
	for _, shape := range []struct{ k, depth int }{{2, 1}, {2, 4}, {2, 7}, {3, 3}, {4, 3}} {
		m, err := NewTreeModel(shape.k, shape.depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, leaf := range []bool{false, true} {
			build := m.NewChain
			sites := m.Sites()
			if leaf {
				build, sites = m.NewLeafChain, m.Leaves()
			}
			for _, n := range []int{1, 2, 5, sites + 3} {
				for bi, beta := range betas {
					name := fmt.Sprintf("k=%d/D=%d/leaf=%v/n=%d/β=%g", shape.k, shape.depth, leaf, n, beta)
					seed := int64(1000*shape.k + 100*shape.depth + 10*n + bi)
					ra, rb := rng.New(seed), rng.New(seed)
					got, err := build(n, beta, ra)
					if err != nil {
						t.Fatal(err)
					}
					want, err := build(n, beta, rb)
					if err != nil {
						t.Fatal(err)
					}
					stepLockstep(t, name, got, want, ra, rb, 40*n+200, 1)
				}
			}
		}
	}
	m, err := NewTreeModel(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var fig9 uphillDraws
	for _, n := range []int{500, 2000} {
		for bi, beta := range betas {
			name := fmt.Sprintf("fig9/k=2/D=8/n=%d/β=%g", n, beta)
			seed := int64(90000 + 10*n + bi)
			ra, rb := rng.New(seed), rng.New(seed)
			got, err := m.NewChain(n, beta, ra)
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.NewChain(n, beta, rb)
			if err != nil {
				t.Fatal(err)
			}
			tally := stepLockstep(t, name, got, want, ra, rb, 10*n, n)
			fig9.fast += tally.fast
			fig9.exact += tally.exact
		}
	}
	if total := fig9.fast + fig9.exact; fig9.fast < total*9/10 {
		t.Fatalf("fig9 shapes: bracket settled %d of %d uphill draws, want at least 90%%", fig9.fast, total)
	}
	t.Logf("fig9 shapes: bracket settled %d of %d uphill draws", fig9.fast, fig9.fast+fig9.exact)
}
