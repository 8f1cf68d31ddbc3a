package graph

import (
	"cmp"
	"slices"

	"tripoll/internal/serialize"
)

// Triangle-span index storage: the structural half of internal/truss's
// maintained index. Per live-window edge it keeps the merged timestamp and
// the span-bucketed support — how many triangles through the edge have a
// given timestamp envelope [Lo, Hi]. Bucketing by envelope (rather than a
// flat count) is what lets a single maintained structure answer
// span-truss queries for *any* window [from, until] and close-within δ:
// a triangle contributes to the window iff from ≤ Lo ∧ Hi ≤ until ∧
// Hi−Lo ≤ δ, all decidable from the bucket key alone.
//
// The store itself is single-threaded and process-local; the distributed
// maintenance discipline (collective publication of rank-local deltas so
// every process holds an identical store) lives in internal/truss.

// TriSpan is the closed timestamp envelope [Lo, Hi] of a triangle: the
// min and max of its three edge timestamps.
type TriSpan struct {
	Lo, Hi uint64
}

// spanBucket is one support bucket: N triangles with envelope TriSpan.
type spanBucket struct {
	TriSpan
	N uint64
}

// TriSpanStore is the columnar triangle-span store. Every undirected edge
// it has been told about (canonical First < Second) owns a slot, and the
// slot's fields are parallel columns: the pair, the merged timestamp,
// whether the edge is a member (inserted and not expired), and its support
// buckets as one run ascending by (Lo, Hi).
//
// order lists the slots ascending by pair. Slots created since the last
// read wait in pending, and the next read sorts just those and merges them
// in; the read itself is then one pass over order, with no map range and
// nothing else sorted. slot is the point lookup behind InsertEdge,
// AddSupport, Timestamp and SupportIn.
//
// A slot with buckets but no membership (support delivered for an edge
// InsertEdge never recorded, or that expired) answers SupportIn but is not
// an edge: EdgesIn and ReadWindow do not list it. A slot with neither is a
// tombstone: reads pass over it, a later InsertEdge or AddSupport on its
// pair revives it in place, and once tombstones outnumber the other slots
// they are compacted away (StreamShard's discipline).
//
// Reads settle pending slots, so no method, reads included, is safe for
// concurrent use.
type TriSpanStore struct {
	pair   []serialize.Pair[uint64, uint64]
	ts     []uint64
	member []bool
	runs   [][]spanBucket

	order   []int32
	pending []int32
	slot    map[serialize.Pair[uint64, uint64]]int32

	edges, buckets, dead int
}

// NewTriSpanStore returns an empty store.
func NewTriSpanStore() *TriSpanStore {
	return &TriSpanStore{slot: make(map[serialize.Pair[uint64, uint64]]int32)}
}

// CanonPair returns the canonical undirected key for {u, v}.
func CanonPair(u, v uint64) serialize.Pair[uint64, uint64] {
	if u > v {
		u, v = v, u
	}
	return serialize.Pair[uint64, uint64]{First: u, Second: v}
}

func comparePair(a, b serialize.Pair[uint64, uint64]) int {
	if c := cmp.Compare(a.First, b.First); c != 0 {
		return c
	}
	return cmp.Compare(a.Second, b.Second)
}

func compareSpan(b spanBucket, sp TriSpan) int {
	if c := cmp.Compare(b.Lo, sp.Lo); c != 0 {
		return c
	}
	return cmp.Compare(b.Hi, sp.Hi)
}

// firstLoAtLeast returns the index of the first bucket of run with Lo ≥ t.
func firstLoAtLeast(run []spanBucket, t uint64) int {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if run[m].Lo < t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (st *TriSpanStore) isDead(s int32) bool { return !st.member[s] && len(st.runs[s]) == 0 }

// newSlot appends a slot for k. It is born a tombstone; the caller fills it.
func (st *TriSpanStore) newSlot(k serialize.Pair[uint64, uint64]) int32 {
	s := int32(len(st.pair))
	st.pair = append(st.pair, k)
	st.ts = append(st.ts, 0)
	st.member = append(st.member, false)
	st.runs = append(st.runs, nil)
	st.pending = append(st.pending, s)
	st.slot[k] = s
	st.dead++
	return s
}

// InsertEdge records edge {u, v} with timestamp ts. A re-insertion of a
// live edge merges timestamps through merge (nil keeps the stored value,
// mirroring StreamShard.Insert); insertion after expiry is a fresh edge.
func (st *TriSpanStore) InsertEdge(u, v, ts uint64, merge func(a, b uint64) uint64) {
	k := CanonPair(u, v)
	s, ok := st.slot[k]
	switch {
	case !ok:
		s = st.newSlot(k)
	case st.member[s]:
		if merge != nil {
			st.ts[s] = merge(st.ts[s], ts)
		}
		return
	}
	if st.isDead(s) {
		st.dead--
	}
	st.member[s], st.ts[s] = true, ts
	st.edges++
}

// Timestamp returns the stored timestamp of edge {u, v} and whether the
// edge is live.
func (st *TriSpanStore) Timestamp(u, v uint64) (uint64, bool) {
	if s, ok := st.slot[CanonPair(u, v)]; ok && st.member[s] {
		return st.ts[s], true
	}
	return 0, false
}

// AddSupport bumps the [lo, hi] bucket on the three edges of triangle
// {p, q, r} by delta (negative deltas subtract; a bucket reaching zero is
// removed, and one that is absent is not created).
func (st *TriSpanStore) AddSupport(p, q, r, lo, hi uint64, delta int64) {
	sp := TriSpan{Lo: lo, Hi: hi}
	for _, k := range [3]serialize.Pair[uint64, uint64]{CanonPair(p, q), CanonPair(p, r), CanonPair(q, r)} {
		s, ok := st.slot[k]
		if !ok {
			if delta <= 0 {
				continue
			}
			s = st.newSlot(k)
		}
		st.bump(s, sp, delta)
	}
	st.maybeCompact()
}

func (st *TriSpanStore) bump(s int32, sp TriSpan, delta int64) {
	run := st.runs[s]
	i, found := slices.BinarySearchFunc(run, sp, compareSpan)
	if !found {
		if delta <= 0 {
			return
		}
		if st.isDead(s) {
			st.dead--
		}
		st.runs[s] = slices.Insert(run, i, spanBucket{TriSpan: sp, N: uint64(delta)})
		st.buckets++
		return
	}
	if n := int64(run[i].N) + delta; n > 0 {
		run[i].N = uint64(n)
		return
	}
	st.buckets--
	if len(run) == 1 {
		st.runs[s] = nil
		if !st.member[s] {
			st.dead++
		}
		return
	}
	st.runs[s] = slices.Delete(run, i, i+1)
}

// ExpireBefore drops every edge timestamped below the cutoff and every
// support bucket whose envelope opens below it. A triangle survives the
// watermark iff all three of its edges do, i.e. iff its minimum edge
// timestamp Lo ≥ cutoff — so dropping buckets by Lo alone is exact and
// needs no triangle identity; on each run they are a prefix. Returns the
// number of edges and buckets dropped.
func (st *TriSpanStore) ExpireBefore(cutoff uint64) (edges, buckets int) {
	for i := range st.pair {
		s := int32(i)
		if st.isDead(s) {
			continue
		}
		if st.member[s] && st.ts[s] < cutoff {
			st.member[s] = false
			edges++
		}
		if n := firstLoAtLeast(st.runs[s], cutoff); n > 0 {
			buckets += n
			if n == len(st.runs[s]) {
				st.runs[s] = nil
			} else {
				st.runs[s] = slices.Delete(st.runs[s], 0, n)
			}
		}
		if st.isDead(s) {
			st.dead++
		}
	}
	st.edges -= edges
	st.buckets -= buckets
	st.maybeCompact()
	return edges, buckets
}

// ResetSupport clears all support buckets ahead of an epoch rebuild; the
// rebuild's full traversal re-delivers every live-window triangle. Edge
// state is maintained structurally and survives.
func (st *TriSpanStore) ResetSupport() {
	for i, run := range st.runs {
		if len(run) == 0 {
			continue
		}
		st.runs[i] = nil
		if !st.member[i] {
			st.dead++
		}
	}
	st.buckets = 0
	st.maybeCompact()
}

// NumEdges returns the number of live edges.
func (st *TriSpanStore) NumEdges() int { return st.edges }

// NumBuckets returns the total number of (edge, span) support buckets.
func (st *TriSpanStore) NumBuckets() int { return st.buckets }

// settle merges the slots created since the last read into order: it
// sorts only those, then merges the two ascending lists from the back, in
// place.
func (st *TriSpanStore) settle() {
	if len(st.pending) == 0 {
		return
	}
	byPair := func(a, b int32) int { return comparePair(st.pair[a], st.pair[b]) }
	slices.SortFunc(st.pending, byPair)
	n, m := len(st.order), len(st.pending)
	st.order = slices.Grow(st.order, m)[:n+m]
	for i, j, k := n-1, m-1, n+m-1; j >= 0; k-- {
		if i >= 0 && byPair(st.order[i], st.pending[j]) > 0 {
			st.order[k] = st.order[i]
			i--
		} else {
			st.order[k] = st.pending[j]
			j--
		}
	}
	st.pending = st.pending[:0]
}

// maybeCompact rewrites the columns without tombstones, in pair order,
// once tombstones outnumber the other slots (amortized O(1) per slot
// retired).
func (st *TriSpanStore) maybeCompact() {
	live := len(st.pair) - st.dead
	if st.dead <= live {
		return
	}
	st.settle()
	pair := make([]serialize.Pair[uint64, uint64], 0, live)
	ts := make([]uint64, 0, live)
	member := make([]bool, 0, live)
	runs := make([][]spanBucket, 0, live)
	slot := make(map[serialize.Pair[uint64, uint64]]int32, live)
	order := st.order[:0] // written behind the read position below
	for _, s := range st.order {
		if st.isDead(s) {
			continue
		}
		id := int32(len(pair))
		pair = append(pair, st.pair[s])
		ts = append(ts, st.ts[s])
		member = append(member, st.member[s])
		runs = append(runs, st.runs[s])
		slot[st.pair[s]] = id
		order = append(order, id)
	}
	st.pair, st.ts, st.member, st.runs, st.slot, st.order = pair, ts, member, runs, slot, order
	st.dead = 0
}

// windowSum sums the buckets of one run that fit [from, until] and, when
// hasDelta, the width bound δ, and reports how many buckets it visited: a
// binary search to the first Lo ≥ from, then each bucket up to the last
// Lo ≤ until (Hi ≥ Lo, so no later one can fit).
func windowSum(run []spanBucket, from, until uint64, hasDelta bool, delta uint64) (sum uint64, visited int) {
	for _, b := range run[firstLoAtLeast(run, from):] {
		if b.Lo > until {
			break
		}
		visited++
		if b.Hi > until || (hasDelta && b.Hi-b.Lo > delta) {
			continue
		}
		sum += b.N
	}
	return sum, visited
}

// SupportIn sums the support of edge {u, v} restricted to triangles whose
// envelope fits the closed window [from, until] and, when hasDelta, whose
// width Hi−Lo is at most delta.
func (st *TriSpanStore) SupportIn(u, v, from, until uint64, hasDelta bool, delta uint64) uint64 {
	s, ok := st.slot[CanonPair(u, v)]
	if !ok {
		return 0
	}
	sum, _ := windowSum(st.runs[s], from, until, hasDelta, delta)
	return sum
}

// EdgesIn returns the live edges timestamped inside the closed window
// [from, until], sorted ascending by (First, Second).
func (st *TriSpanStore) EdgesIn(from, until uint64) []serialize.Pair[uint64, uint64] {
	st.settle()
	var out []serialize.Pair[uint64, uint64]
	for _, s := range st.order {
		if st.member[s] && st.ts[s] >= from && st.ts[s] <= until {
			out = append(out, st.pair[s])
		}
	}
	return out
}

// WindowRead is one pass of ReadWindow over the store.
type WindowRead struct {
	// Edges are the live edges timestamped inside the window, ascending by
	// (First, Second); Support[i] is Edges[i]'s SupportIn for the window.
	Edges   []serialize.Pair[uint64, uint64]
	Support []uint64
	// Slots is how many slots the pass visited: every live edge, every
	// support-only slot and every tombstone not yet compacted.
	Slots int
	// Buckets is how many buckets it visited: those with Lo in the window
	// on the window's edges.
	Buckets int
}

// ReadWindow fills w with the closed window [from, until] — its edges and
// their support sums, δ-filtered when hasDelta — in one pass over the
// columns in pair order, reusing w's slices.
func (st *TriSpanStore) ReadWindow(w *WindowRead, from, until uint64, hasDelta bool, delta uint64) {
	st.settle()
	w.Edges, w.Support = w.Edges[:0], w.Support[:0]
	w.Slots, w.Buckets = len(st.order), 0
	for _, s := range st.order {
		if !st.member[s] || st.ts[s] < from || st.ts[s] > until {
			continue
		}
		sum, visited := windowSum(st.runs[s], from, until, hasDelta, delta)
		w.Edges = append(w.Edges, st.pair[s])
		w.Support = append(w.Support, sum)
		w.Buckets += visited
	}
}
