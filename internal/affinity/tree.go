// Package affinity implements §5 of the paper: receiver placements biased
// toward clustering (affinity, β > 0) or spreading out (disaffinity,
// β < 0). Configurations α of n receivers are weighted
//
//	W_α(β) ∝ exp(−β·d̂(α))
//
// where d̂(α) is the mean pairwise shortest-path distance between receivers
// (Equation 32). The package samples this distribution with a Metropolis
// chain and reports the weighted mean delivery-tree size L̄_β(n) plotted in
// Figure 9.
//
// On k-ary trees every move is O(depth): receiver counts are maintained per
// link, which gives both the pairwise-distance sum (Σ_links c·(n−c)) and the
// tree size (#links with c > 0) incrementally. A proposal walks the tree
// once, read-only, recording the links it would change; an accepted move is
// applied from that record. The Metropolis test compares the uniform draw
// with the bracket 1+x < eˣ ≤ 1+x+x²/2 first and calls math.Exp only for a
// draw that lands inside it, which makes the same decision math.Exp alone
// would.
package affinity

import (
	"fmt"
	"math"

	"mtreescale/internal/rng"
	"mtreescale/internal/valid"
)

// TreeModel is the k-ary tree substrate for the fast chain. Sites are all
// non-root nodes by default, matching §5.4 ("for the simulations ... we
// allow receivers to be at all sites"); NewLeafChain restricts sites to the
// leaves, the setting of the §5.2-5.3 closed forms.
type TreeModel struct {
	K, Depth int
	// parent[v] is the tree parent of node v (parent[0] = -1).
	parent []int32
	// depth[v] is the level of node v.
	depth []int32
	// firstLeaf is the id of the first depth-D node.
	firstLeaf int
}

// NewTreeModel builds the complete k-ary tree of the given shape.
func NewTreeModel(k, depth int) (*TreeModel, error) {
	if k < 2 {
		return nil, fmt.Errorf("affinity: tree model needs k >= 2, got %d", k)
	}
	if depth < 1 {
		return nil, fmt.Errorf("affinity: tree model needs depth >= 1, got %d", depth)
	}
	total := 0
	levelSize := 1
	for l := 0; l <= depth; l++ {
		total += levelSize
		if total < 0 || total > 1<<28 {
			return nil, fmt.Errorf("affinity: tree k=%d depth=%d too large", k, depth)
		}
		levelSize *= k
	}
	m := &TreeModel{K: k, Depth: depth, parent: make([]int32, total), depth: make([]int32, total)}
	// Leaves are the last k^D nodes in level order.
	leaves := 1
	for i := 0; i < depth; i++ {
		leaves *= k
	}
	m.firstLeaf = total - leaves
	m.parent[0] = -1
	// Level-order layout identical to topology.NewKAryTree.
	levelStart := 0
	levelSize = 1
	for l := 0; l < depth; l++ {
		nextStart := levelStart + levelSize
		for i := 0; i < levelSize; i++ {
			p := levelStart + i
			for c := 0; c < k; c++ {
				child := nextStart + i*k + c
				m.parent[child] = int32(p)
				m.depth[child] = int32(l + 1)
			}
		}
		levelStart = nextStart
		levelSize *= k
	}
	return m, nil
}

// Nodes returns the total node count, root included.
func (m *TreeModel) Nodes() int { return len(m.parent) }

// Sites returns the number of receiver sites (all non-root nodes).
func (m *TreeModel) Sites() int { return len(m.parent) - 1 }

// Parent returns the parent of node v (-1 for the root).
func (m *TreeModel) Parent(v int) int { return int(m.parent[v]) }

// Leaves returns the number of leaf sites, k^D.
func (m *TreeModel) Leaves() int { return len(m.parent) - m.firstLeaf }

// Chain is a Metropolis sampler over receiver configurations on a TreeModel.
// It is not safe for concurrent use.
type Chain struct {
	m    *TreeModel
	beta float64
	n    int
	rand *rng.Rand
	// Receiver sites are [siteBase, siteBase+siteCount): all non-root nodes
	// for NewChain, the leaves for NewLeafChain.
	siteBase, siteCount int

	// positions[i] is the site (node id, 1..Nodes-1) of receiver i.
	positions []int32
	// cnt[v] is the number of receivers at or below node v, i.e. the
	// receiver count of the link (v, parent(v)). cnt[0] is unused.
	cnt []int32
	// pairSum is Σ_links cnt·(n−cnt) = Σ_{i<j} d(r_i, r_j).
	pairSum int64
	// treeLinks is the number of links with cnt > 0 — the delivery-tree
	// size L for the current configuration.
	treeLinks int
	// path records the links a proposal would change: path[:Depth] holds
	// the from side below the LCA, path[Depth:] the to side. Step fills it
	// during the Δ walk and applies an accepted move from it.
	path []int32

	accepted, proposed int64
}

// NewChain creates a chain of n receivers at inverse-clustering strength
// beta, with receiver sites at all non-root nodes (§5.4's setting). Initial
// positions are uniform over sites (the β = 0 equilibrium).
func (m *TreeModel) NewChain(n int, beta float64, r *rng.Rand) (*Chain, error) {
	return m.newChain(n, beta, r, 1, m.Sites())
}

// NewLeafChain creates a chain whose receiver sites are the k^D leaves —
// the setting of the §5.2-5.3 extreme-affinity closed forms.
func (m *TreeModel) NewLeafChain(n int, beta float64, r *rng.Rand) (*Chain, error) {
	return m.newChain(n, beta, r, m.firstLeaf, m.Leaves())
}

func (m *TreeModel) newChain(n int, beta float64, r *rng.Rand, siteBase, siteCount int) (*Chain, error) {
	if n < 1 {
		return nil, valid.Badf("affinity: chain needs n >= 1, got %d", n)
	}
	if err := checkBeta(beta); err != nil {
		return nil, err
	}
	if r == nil {
		return nil, valid.Badf("affinity: chain needs a random source")
	}
	c := &Chain{
		m:         m,
		beta:      beta,
		n:         n,
		rand:      r,
		siteBase:  siteBase,
		siteCount: siteCount,
		positions: make([]int32, n),
		cnt:       make([]int32, m.Nodes()),
		path:      make([]int32, 2*m.Depth),
	}
	for i := range c.positions {
		site := int32(siteBase + r.Intn(siteCount))
		c.positions[i] = site
		c.addPath(site, +1)
	}
	return c, nil
}

// addPath walks from site to the root adjusting link counts by delta,
// keeping pairSum and treeLinks consistent.
func (c *Chain) addPath(site int32, delta int32) {
	n64 := int64(c.n)
	for v := site; v > 0; v = c.m.parent[v] {
		old := int64(c.cnt[v])
		c.pairSum -= old * (n64 - old)
		c.cnt[v] += delta
		now := int64(c.cnt[v])
		c.pairSum += now * (n64 - now)
		switch {
		case old == 0 && now > 0:
			c.treeLinks++
		case old > 0 && now == 0:
			c.treeLinks--
		}
	}
}

// TreeSize returns the current delivery-tree size L(α).
func (c *Chain) TreeSize() int { return c.treeLinks }

// AvgPairDist returns d̂(α), the mean pairwise receiver distance; 0 when
// n < 2.
func (c *Chain) AvgPairDist() float64 {
	if c.n < 2 {
		return 0
	}
	pairs := int64(c.n) * int64(c.n-1) / 2
	return float64(c.pairSum) / float64(pairs)
}

// Beta returns the chain's affinity parameter.
func (c *Chain) Beta() float64 { return c.beta }

// N returns the number of receivers.
func (c *Chain) N() int { return c.n }

// AcceptanceRate returns the fraction of proposals accepted so far (1 before
// any proposal).
func (c *Chain) AcceptanceRate() float64 {
	if c.proposed == 0 {
		return 1
	}
	return float64(c.accepted) / float64(c.proposed)
}

// Step proposes moving one uniformly chosen receiver to a uniformly chosen
// site and accepts with the Metropolis probability min(1, e^{−β·Δd̂}).
//
// Δ pairSum is computed read-only along the two exclusive segments from→LCA
// and to→LCA: a link whose count goes c→c−1 contributes 2c−n−1, one going
// c→c+1 contributes n−2c−1, and the links above the LCA see −1 then +1 and
// cancel. The walk records both segments in c.path, so an accepted move
// updates the link counts from that record instead of walking again, and a
// rejection costs the one read-only walk.
//
// An uphill move draws u = Float64() and is rejected when u >= e^x, x =
// −β·Δd̂ < 0. reject settles that from the bracket 1+x < eˣ ≤ 1+x+x²/2 and
// calls math.Exp only for a draw within 2⁻³⁰ of it, so every decision is the
// one math.Exp alone would make.
func (c *Chain) Step() {
	c.proposed++
	i := c.rand.Intn(c.n)
	from := c.positions[i]
	to := int32(c.siteBase + c.rand.Intn(c.siteCount))
	if to == from {
		c.accepted++
		return
	}
	// Climb the deeper end to the other's level, then both in lockstep
	// until they meet at the LCA, so no level branches on which end moves.
	parent, depth, cnt, path := c.m.parent, c.m.depth, c.cnt, c.path
	n := int64(c.n)
	var delta int64
	a, b := from, to
	down, up := 0, c.m.Depth
	da, db := depth[a], depth[b]
	for ; da > db; da-- {
		delta += 2*int64(cnt[a]) - n - 1
		path[down] = a
		down++
		a = parent[a]
	}
	for ; db > da; db-- {
		delta += n - 2*int64(cnt[b]) - 1
		path[up] = b
		up++
		b = parent[b]
	}
	for a != b {
		// (2·cnt[a]−n−1) + (n−2·cnt[b]−1)
		delta += 2*int64(cnt[a]-cnt[b]) - 2
		path[down] = a
		path[up] = b
		down++
		up++
		a, b = parent[a], parent[b]
	}
	if c.beta != 0 && c.n >= 2 {
		pairs := float64(n * (n - 1) / 2)
		deltaD := float64(delta) / pairs
		uphill := deltaD > 0 && c.beta > 0 || deltaD < 0 && c.beta < 0
		if uphill && reject(c.rand.Float64(), -c.beta*deltaD) {
			return
		}
	}
	c.accepted++
	links := c.treeLinks
	for _, v := range path[:down] {
		cnt[v]--
		if cnt[v] == 0 {
			links--
		}
	}
	for _, v := range path[c.m.Depth:up] {
		if cnt[v] == 0 {
			links++
		}
		cnt[v]++
	}
	c.treeLinks = links
	c.pairSum += delta
	c.positions[i] = to
}

// rejectMargin is the slack around the bracket 1+x < eˣ ≤ 1+x+x²/2. For
// x ≤ −2 the widened bracket covers all of [0, 1), so only −2 < x < 0 is
// ever settled by it. There both bounds are computed to within a few 2⁻⁵³
// and math.Exp to within one ulp, far inside the margin, so a draw outside
// the widened bracket is decided exactly as math.Exp would decide it.
const rejectMargin = 0x1p-30

// reject reports whether a Metropolis draw u ∈ [0, 1) rejects an uphill move
// with log acceptance probability x < 0, i.e. whether u >= math.Exp(x). For
// x < 0, 1+x < eˣ ≤ 1+x+x²/2, so most draws are settled by the bracket and
// only one within rejectMargin of it pays for math.Exp.
func reject(u, x float64) bool {
	lo := 1 + x
	if u < lo-rejectMargin {
		return false
	}
	if u >= lo+x*x/2+rejectMargin {
		return true
	}
	return u >= math.Exp(x)
}

// Sweep performs n Steps (one proposal per receiver on average).
func (c *Chain) Sweep() {
	for i := 0; i < c.n; i++ {
		c.Step()
	}
}

// CheckInvariants recomputes link counts, pair sum and tree size from
// scratch and compares them to the incremental state. Tests and long runs
// use it to guard against bookkeeping drift.
func (c *Chain) CheckInvariants() error {
	cnt := make([]int32, c.m.Nodes())
	for _, site := range c.positions {
		for v := site; v > 0; v = c.m.parent[v] {
			cnt[v]++
		}
	}
	var pairSum int64
	links := 0
	n64 := int64(c.n)
	for v := 1; v < len(cnt); v++ {
		if cnt[v] != c.cnt[v] {
			return fmt.Errorf("affinity: cnt[%d] = %d, recomputed %d", v, c.cnt[v], cnt[v])
		}
		if cnt[v] > 0 {
			links++
		}
		pairSum += int64(cnt[v]) * (n64 - int64(cnt[v]))
	}
	if links != c.treeLinks {
		return fmt.Errorf("affinity: treeLinks = %d, recomputed %d", c.treeLinks, links)
	}
	if pairSum != c.pairSum {
		return fmt.Errorf("affinity: pairSum = %d, recomputed %d", c.pairSum, pairSum)
	}
	return nil
}

// Positions returns a copy of the current receiver placement.
func (c *Chain) Positions() []int32 {
	return append([]int32(nil), c.positions...)
}
