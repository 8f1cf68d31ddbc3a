package core

import (
	"math"
	"slices"
	"sync"
)

// planCols is one rank's view, for one survey, of what the plan says about
// each local adjacency entry on its own, laid out like the graph's CSR arena
// — entry j of local vertex vi sits at off[vi]+j. off and the timestamp
// columns ts and gap are the snapshot's (graph.DODGr.Offsets and Times):
// the first planned survey on a snapshot builds them for its accessor, and
// every later survey with the same accessor reads them as they are. The
// survey builds only ok, and only when the plan has an edge filter. With
// them the candidate test of a wedge (p,q,r) is
//
//	ok[k] && |ts[k] − ts[j]| ≤ delta        (j = entry of q, k = entry of r)
//
// on flat slices: no closure call, no generic dictionary, no copy of the
// edge metadata. And a wedge batch at entry j has no candidate within δ at
// all when gap[j] > delta, a test that reads one word whatever the batch's
// length — the dry run's answer for nearly every batch under a narrow δ.
//
// A rank takes its columns at the top of its first phase body, before its
// first ygm call: handlers run only inside the owning rank's ygm calls, so no
// handler can read a column that is not taken yet, and no barrier or message
// is needed to say so. They stay valid for the life of the Survey (the graph
// is immutable), so repeated Runs reuse them.
type planCols struct {
	built bool
	// delta is the plan's δ, or noDelta without one (every pair passes).
	delta uint64
	off   []int32
	// ts and gap are the snapshot's timestamp columns for the plan's
	// accessor; nil without a δ.
	ts, gap []uint64
	// ok is the single-edge filter: every WhereEdge predicate and the
	// sliding window on the entry's own timestamp. nil without an edge
	// filter (every entry passes).
	ok []bool
	// parked has one bit per entry, set by the dry run for every wedge batch
	// it proposed volume for. The push-pull push phase tests it before
	// asking whether the batch's target declined: a batch that was never
	// proposed cannot have been declined.
	parked []uint64
}

const noDelta = math.MaxUint64

func (c *planCols) park(i int)          { c.parked[i>>6] |= 1 << (i & 63) }
func (c *planCols) isParked(i int) bool { return c.parked[i>>6]&(1<<(i&63)) != 0 }

func absDiff(a, b uint64) uint64 {
	if a < b {
		return b - a
	}
	return a - b
}

// passes is the candidate test: entry k survives in a wedge batch whose own
// entry (the (p,q) edge) has timestamp tq.
func (c *planCols) passes(k int, tq uint64) bool {
	return (c.ok == nil || c.ok[k]) && (c.ts == nil || absDiff(c.ts[k], tq) <= c.delta)
}

// cut reports, in O(1), that the wedge batch at entry j is dead: its own
// (p,q) entry fails the edge filter, or no later entry of its out-list — its
// candidates — is within δ of it (gap[j] > delta).
func (c *planCols) cut(j int) bool {
	return (c.ok != nil && !c.ok[j]) || (c.gap != nil && c.gap[j] > c.delta)
}

// dead reports whether the wedge batch at entry j, whose candidates are the
// entries (j, end) of the same out-list, has no surviving candidate or fails
// the edge filter itself. Without an edge filter cut is exact; with one, the
// filter can reject every candidate the gap admits, so cut is a
// necessary-condition test run before the scan.
func (c *planCols) dead(j, end int) bool {
	return c.cut(j) || (c.ok != nil && !c.anyAlive(j, end))
}

// anyAlive scans the batch at entry j for a surviving candidate, stopping
// at the first; the plan has an edge filter. It is written over re-sliced
// columns with its operands in locals because the indexed form (calling
// passes) ran at half the speed.
func (c *planCols) anyAlive(j, end int) bool {
	ok := c.ok[j+1 : end]
	if c.ts == nil {
		return slices.Contains(ok, true)
	}
	tq, delta := c.ts[j], c.delta
	for k, t := range c.ts[j+1 : end] {
		if ok[k] && absDiff(t, tq) <= delta {
			return true
		}
	}
	return false
}

// survivors appends to keep the suffix-relative indices of the batch's
// surviving candidates.
func (c *planCols) survivors(keep []int32, j, end int) []int32 {
	switch {
	case c.ok == nil:
		tq, delta := c.ts[j], c.delta
		for k, t := range c.ts[j+1 : end] {
			if absDiff(t, tq) <= delta {
				keep = append(keep, int32(k))
			}
		}
	case c.ts == nil:
		for k, ok := range c.ok[j+1 : end] {
			if ok {
				keep = append(keep, int32(k))
			}
		}
	default:
		tq, delta, ok := c.ts[j], c.delta, c.ok[j+1:end]
		for k, t := range c.ts[j+1 : end] {
			if ok[k] && absDiff(t, tq) <= delta {
				keep = append(keep, int32(k))
			}
		}
	}
	return keep
}

// countOK is the edge-filtered length of local vertex vi's adjacency list —
// what a pull reply for it would carry.
func (c *planCols) countOK(vi int32) int {
	n := 0
	for _, ok := range c.ok[c.off[vi]:c.off[vi+1]] {
		if ok {
			n++
		}
	}
	return n
}

// reqRef locates a (p, q) wedge source on the requesting rank: the local
// vertex index of p and the adjacency position of q within Adj⁺ᵐ(p).
type reqRef struct {
	vert int32
	pos  int32
}

// targSlot is what a source rank knows about one target vertex q: the push
// volume it proposed, the wedge sources parked for q (a chain through
// surveyScratch.reqs in dry-run order; indices are 1-based, 0 ends the
// chain), and whether q's owner declined the pull.
type targSlot struct {
	vol        uint64
	head, tail int32
	declined   bool
}

type reqNode struct {
	ref  reqRef
	next int32
}

// pullGrant is one granted pull: local vertex vert goes to source rank src.
type pullGrant struct {
	vert, src int32
}

// surveyScratch is the part of a rank's survey state whose types do not
// depend on the graph's metadata types (but for pulled): the push-pull
// negotiation tables, the buffers behind the survey's own columns (ok and
// parked) and the survivor list. All of it is flat or cleared in place, and
// it is pooled across surveys (taken at a Survey's first Run, returned by
// Close), so a query on a graph that has been queried before allocates
// nothing proportional to |E|. It never holds a snapshot column: those stay
// with the snapshot.
type surveyScratch struct {
	targ   map[uint64]targSlot // source side: target vertex → slot
	reqs   []reqNode
	grants []pullGrant // target side, in arrival order until pullPhase sorts it
	keep   []int32     // surviving-candidate indices of the batch being built
	// pulled is onPull's decoded reply, a *[]pullEntry[EM]: behind an
	// interface because one pool serves surveys of every metadata type (a
	// scratch last used with another EM just starts a new slice).
	pulled any
	ok     []bool
	parked []uint64
}

var scratchPool = sync.Pool{New: func() any {
	return &surveyScratch{targ: make(map[uint64]targSlot)}
}}

// reset readies the scratch for a Run. A built ok column is kept.
func (sc *surveyScratch) reset() {
	clear(sc.targ)
	sc.reqs = sc.reqs[:0]
	sc.grants = sc.grants[:0]
	clear(sc.parked)
}

// parkWedge records wedge source ref for target q with vol more edges of
// proposed push volume.
func (sc *surveyScratch) parkWedge(q uint64, ref reqRef, vol uint64) {
	sc.reqs = append(sc.reqs, reqNode{ref: ref})
	n := int32(len(sc.reqs))
	slot := sc.targ[q]
	if slot.tail == 0 {
		slot.head = n
	} else {
		sc.reqs[slot.tail-1].next = n
	}
	slot.tail = n
	slot.vol += vol
	sc.targ[q] = slot
}
