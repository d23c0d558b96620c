package mcast

import (
	"mtreescale/internal/arena"
	"mtreescale/internal/graph"
)

// This file holds the packed-tree fast paths of the measurement loops. An
// SPT stores Dist and Parent as two parallel int32 arrays, so every step of
// a tree climb costs two random loads. The engines instead pack both into
// one int64 word per node,
//
//	pd[v] = int64(Dist[v])<<32 | int64(uint32(Parent[v]))
//
// and the hot loops do one load per step: the distance is pd[v]>>32
// (arithmetic shift, so the -1 of an unreachable node survives — pd[v] < 0
// iff v is unreachable) and the parent is int32(uint32(pd[v])). Packing is
// O(N) once per source and is repaid over NRcvr×GridPoints climbs.
//
// The packed walks compute exactly the integers (links, hop sums, receiver
// counts) of TreeCounter.Measure / Add / SharedTreeSize — same visited-epoch
// scheme, same climb order — so engine results are byte-identical whether or
// not these paths run.
//
// Receiver slices come from the Sampler, whose site population is built from
// node IDs in [0, N), so the loops index pd without range guards; the
// unreachable check doubles as the only per-receiver branch.
//
// A sample is counted one of two ways. The climb (measurePacked) walks up
// from the m receivers and costs about the tree size, which nears N once m
// is a large share of the population M. measureComplement instead reads the
// M−m sites the draw left behind: the delivery tree is every reachable
// non-source node except those whose whole SPT subtree is undrawn, and the
// receiver count and hop sum are the population totals minus the rest's.
// The independent-sets engine takes the complement for Distinct samples with
// 2m > M, where the rest is the smaller side. Both count the same node set
// and the same sums, so the integers — and every float built from them —
// are identical whichever path runs.

// packTree packs spt's Dist and Parent into one int64-per-node array,
// reusing dst's storage when large enough.
func packTree(spt *graph.SPT, dst []int64) []int64 {
	n := len(spt.Dist)
	if cap(dst) < n {
		dst = make([]int64, n)
	}
	dst = dst[:n]
	parent := spt.Parent
	for v, d := range spt.Dist {
		dst[v] = int64(d)<<32 | int64(uint32(parent[v]))
	}
	return dst
}

// climb4 marks the ancestor paths of four climb cursors under one epoch and
// returns the number of newly marked nodes (tree links added). A tree climb
// is a loop-carried chain of random loads (v = parent(v)), so a single climb
// runs at L1 load latency; advancing four independent climbs per round keeps
// four loads in flight and hides most of that latency.
//
// Interleaving does not change the integers: each round checks visited before
// marking, so every node is marked (and counted) at most once, and a cursor
// only parks when it reaches a node some climb has already marked — whose
// remaining ancestor path that climb goes on to mark. The final marked set is
// the ancestor-closed union of the cursors' root paths, exactly the set the
// one-at-a-time loop marks. Callers park unused lanes on an already-marked
// node (e.g. the root) to leave them inert.
func climb4(pd []int64, visited []int32, epoch int32, r0, r1, r2, r3 int32) int {
	links := 0
	for {
		live := false
		if visited[r0] != epoch {
			visited[r0] = epoch
			links++
			r0 = int32(uint32(pd[r0]))
			live = true
		}
		if visited[r1] != epoch {
			visited[r1] = epoch
			links++
			r1 = int32(uint32(pd[r1]))
			live = true
		}
		if visited[r2] != epoch {
			visited[r2] = epoch
			links++
			r2 = int32(uint32(pd[r2]))
			live = true
		}
		if visited[r3] != epoch {
			visited[r3] = epoch
			links++
			r3 = int32(uint32(pd[r3]))
			live = true
		}
		if !live {
			return links
		}
	}
}

// measurePacked is the fused packed equivalent of Measure: one pass over the
// receivers computes the delivery-tree size, the unicast hop sum and the
// reachable count together. Receivers are climbed four at a time (climb4);
// the short tail falls back to the one-at-a-time loop.
func (c *TreeCounter) measurePacked(source int32, pd []int64, receivers []int32) Measurement {
	if len(pd) > len(c.visited) {
		c.visited = make([]int32, len(pd))
		c.epoch = 0
	}
	c.epoch++
	epoch, visited := c.epoch, c.visited
	var m Measurement
	visited[source] = epoch
	i, n := 0, len(receivers)
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := receivers[i], receivers[i+1], receivers[i+2], receivers[i+3]
		w0, w1, w2, w3 := pd[r0], pd[r1], pd[r2], pd[r3]
		// An unreachable receiver parks its lane on the source, which is
		// always marked, so the lane is born inert.
		if w0 < 0 {
			r0 = source
		} else {
			m.UnicastHops += w0 >> 32
			m.Receivers++
		}
		if w1 < 0 {
			r1 = source
		} else {
			m.UnicastHops += w1 >> 32
			m.Receivers++
		}
		if w2 < 0 {
			r2 = source
		} else {
			m.UnicastHops += w2 >> 32
			m.Receivers++
		}
		if w3 < 0 {
			r3 = source
		} else {
			m.UnicastHops += w3 >> 32
			m.Receivers++
		}
		m.Links += climb4(pd, visited, epoch, r0, r1, r2, r3)
	}
	for ; i < n; i++ {
		r := receivers[i]
		w := pd[r]
		if w < 0 {
			continue // unreachable (or the paper's degenerate tiny component)
		}
		m.UnicastHops += w >> 32
		m.Receivers++
		for v := r; visited[v] != epoch; {
			visited[v] = epoch
			m.Links++
			v = int32(uint32(pd[v]))
		}
	}
	return m
}

// complementTree is the per-source state of measureComplement: the SPT
// child counts and the totals of the tree that spans every site. The site
// population must be every node but, optionally, the source — the
// Sampler.Reset population — so that each reachable non-source node is either
// a receiver or in the rest.
type complementTree struct {
	kids  []int32 // kids[v]: reachable SPT children of v
	left  []int32 // left[q]: children of rest node q not yet peeled
	sites int     // reachable sites
	hops  int64   // Σ dist over the reachable sites
	links int     // reachable non-source nodes
}

// prepare fills ct for the packed tree pd rooted at source in one O(N) pass;
// sourceIsSite is Protocol.IncludeSource. The arrays come from ar.
func (ct *complementTree) prepare(ar *arena.Arena, source int32, pd []int64, sourceIsSite bool) {
	n := len(pd)
	ct.kids = ar.GrowInt32(ct.kids, n)
	ct.left = ar.GrowInt32(ct.left, n)
	kids := ct.kids
	clear(kids)
	reach := 0
	var hops int64
	for v, w := range pd {
		if w < 0 {
			continue
		}
		reach++
		hops += w >> 32
		if int32(v) != source {
			kids[int32(uint32(w))]++
		}
	}
	ct.links = reach - 1
	ct.sites = reach
	if !sourceIsSite {
		ct.sites--
	}
	ct.hops = hops
}

// measureComplement returns the Measurement of the receivers a Distinct draw
// took, given the sites it left behind (rest) and ct prepared for the same
// source and pd. One pass marks the rest under a fresh visited epoch, sums
// its reachable count and hops, and loads each rest node's remaining-children
// counter from ct.kids, so left[q] is valid exactly where visited[q] carries
// the epoch. A second pass peels upward from each reachable childless rest
// node: a node is off the tree iff it is in the rest and all its children
// are off the tree, so a parent is peeled when its counter reaches zero.
// Leaves start a peel and inner nodes are reached only through their last
// child, so each off-tree node is counted once. Cost is O(len(rest)).
func (c *TreeCounter) measureComplement(source int32, pd []int64, ct *complementTree, rest []int32) Measurement {
	if len(pd) > len(c.visited) {
		c.visited = make([]int32, len(pd))
		c.epoch = 0
	}
	c.epoch++
	epoch, visited, kids, left := c.epoch, c.visited, ct.kids, ct.left
	restReach := 0
	var restHops int64
	for _, q := range rest {
		visited[q] = epoch
		left[q] = kids[q]
		if w := pd[q]; w >= 0 {
			restReach++
			restHops += w >> 32
		}
	}
	off := 0
	for _, q := range rest {
		if kids[q] != 0 || pd[q] < 0 || q == source {
			continue
		}
		for v := q; ; {
			off++
			p := int32(uint32(pd[v]))
			// The source is never a link, even when it is in the rest.
			if p == source || visited[p] != epoch {
				break
			}
			left[p]--
			if left[p] != 0 {
				break
			}
			v = p
		}
	}
	return Measurement{
		Links:       ct.links - off,
		UnicastHops: ct.hops - restHops,
		Receivers:   ct.sites - restReach,
	}
}

// treeSizePacked is the packed equivalent of TreeSize, with the same
// four-wide climb as measurePacked.
func (c *TreeCounter) treeSizePacked(source int32, pd []int64, receivers []int32) int {
	if len(pd) > len(c.visited) {
		c.visited = make([]int32, len(pd))
		c.epoch = 0
	}
	c.epoch++
	epoch, visited := c.epoch, c.visited
	links := 0
	visited[source] = epoch
	i, n := 0, len(receivers)
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := receivers[i], receivers[i+1], receivers[i+2], receivers[i+3]
		if pd[r0] < 0 {
			r0 = source
		}
		if pd[r1] < 0 {
			r1 = source
		}
		if pd[r2] < 0 {
			r2 = source
		}
		if pd[r3] < 0 {
			r3 = source
		}
		links += climb4(pd, visited, epoch, r0, r1, r2, r3)
	}
	for ; i < n; i++ {
		r := receivers[i]
		if pd[r] < 0 {
			continue
		}
		for v := r; visited[v] != epoch; {
			visited[v] = epoch
			links++
			v = int32(uint32(pd[v]))
		}
	}
	return links
}

// sharedTreeSizePacked is the packed equivalent of SharedTreeSize: the
// core-rooted tree is climbed from the group's source and from every
// receiver under one epoch.
func (c *TreeCounter) sharedTreeSizePacked(core int32, pd []int64, source int32, receivers []int32) int {
	if len(pd) > len(c.visited) {
		c.visited = make([]int32, len(pd))
		c.epoch = 0
	}
	c.epoch++
	epoch, visited := c.epoch, c.visited
	links := 0
	visited[core] = epoch
	if source >= 0 && int(source) < len(pd) && pd[source] >= 0 {
		for v := source; visited[v] != epoch; {
			visited[v] = epoch
			links++
			v = int32(uint32(pd[v]))
		}
	}
	i, n := 0, len(receivers)
	for ; i+4 <= n; i += 4 {
		r0, r1, r2, r3 := receivers[i], receivers[i+1], receivers[i+2], receivers[i+3]
		if pd[r0] < 0 {
			r0 = core
		}
		if pd[r1] < 0 {
			r1 = core
		}
		if pd[r2] < 0 {
			r2 = core
		}
		if pd[r3] < 0 {
			r3 = core
		}
		links += climb4(pd, visited, epoch, r0, r1, r2, r3)
	}
	for ; i < n; i++ {
		r := receivers[i]
		if pd[r] < 0 {
			continue
		}
		for v := r; visited[v] != epoch; {
			visited[v] = epoch
			links++
			v = int32(uint32(pd[v]))
		}
	}
	return links
}
