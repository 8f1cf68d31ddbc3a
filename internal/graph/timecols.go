package graph

import (
	"math"
	"unsafe"

	"tripoll/internal/ygm"
)

// Snapshot columns: what a planned survey needs to know about each adjacency
// entry from the entry alone, computed once per snapshot instead of once per
// survey. Every column is laid out like the CSR arena — entry j of local
// vertex vi sits at Offsets(r)[vi]+j — is built lazily by the first survey
// that asks on that rank, and is never written again.
//
// A rank builds and reads its own shard's columns only, on its own goroutine
// inside a Parallel region (a phase body or one of its handlers). Regions of
// one world never overlap, so that goroutine is the only one to touch them
// while it runs and the region boundaries order it against every later one:
// the columns need no lock. They live in the shard (rankLocal), so AsSnapshot's
// copy, which shares the shards, shares them too; they are never persisted
// (TPDG2 is unchanged).

// EdgeTimes is one rank's timestamp columns for one accessor.
type EdgeTimes struct {
	// TS is the accessor applied to each entry's edge metadata.
	TS []uint64
	// Gap is, per entry, the least |TS[k] − TS[i]| over the later entries i
	// of the same out-list, or MaxUint64 for a list's last entry. A wedge
	// batch at entry k — its candidates are exactly those later entries —
	// has a candidate within δ of its own timestamp iff Gap[k] ≤ δ.
	Gap []uint64
}

// timesEntry is one accessor's columns on one shard. The entry holds the
// func value so that the closure object whose address is its key stays
// alive: the address can then never be reused by another closure.
type timesEntry[EM any] struct {
	timeOf func(EM) uint64
	times  EdgeTimes
}

// funcKey is the identity of a func value: the address of its closure
// object, which is what a func value holds. Each evaluation of a capturing
// literal makes a new object, so two closures from one literal with
// different captures never share a key; a literal without captures, and a
// named function, is one static object every evaluation shares.
func funcKey[EM any](f func(EM) uint64) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&f))
}

// Offsets returns rank r's CSR offsets: entry j of local vertex vi is at
// position Offsets(r)[vi]+j of every snapshot column, and the last element
// is the shard's entry count. Call it only from rank r's goroutine inside a
// Parallel region. Read-only.
func (g *DODGr[VM, EM]) Offsets(r *ygm.Rank) []int32 {
	rl := &g.local[r.ID()]
	if rl.off == nil {
		off := make([]int32, len(rl.verts)+1)
		k := 0
		for i := range rl.verts {
			off[i] = int32(k)
			k += len(rl.verts[i].Adj)
		}
		off[len(rl.verts)] = int32(k)
		rl.off = off
	}
	return rl.off
}

// Times returns rank r's timestamp columns for accessor timeOf, building
// them on the first call with this func value: one pass that calls timeOf
// once per local adjacency entry, and the gap scan of each out-list. A
// stream snapshot's first call copies both columns instead for every list
// it shares with the previous snapshot, when a survey built that snapshot's
// columns for the same func value (see inheritTimes). Later calls with the
// same func value — from any survey of this snapshot or of its AsSnapshot
// copy — return the same slices; a different func value gets columns of its
// own, which live as long as the snapshot. timeOf must be a pure function of
// the metadata. Call it only from rank r's goroutine inside a Parallel
// region. Read-only.
func (g *DODGr[VM, EM]) Times(r *ygm.Rank, timeOf func(EM) uint64) EdgeTimes {
	rl := &g.local[r.ID()]
	if t, ok := findTimes(rl.times, timeOf); ok {
		return t
	}
	var from []int32
	var old EdgeTimes
	if in := rl.inherit; in != nil {
		if t, ok := findTimes(in.times, timeOf); ok {
			from, old = in.from, t
		}
	}
	off := g.Offsets(r)
	n := int(off[len(off)-1])
	t := EdgeTimes{TS: make([]uint64, n), Gap: make([]uint64, n)}
	for i := range rl.verts {
		ts, gap := t.TS[off[i]:off[i+1]], t.Gap[off[i]:off[i+1]]
		if from != nil && from[i] >= 0 {
			copy(ts, old.TS[from[i]:])
			copy(gap, old.Gap[from[i]:])
			continue
		}
		adj := rl.verts[i].Adj
		for j := range adj {
			ts[j] = timeOf(adj[j].EMeta)
		}
		NearestGaps(gap, ts)
	}
	rl.times = append(rl.times, timesEntry[EM]{timeOf: timeOf, times: t})
	// The previous snapshot's columns have served: let them go with it.
	rl.inherit = nil
	return t
}

// findTimes returns the columns built for accessor timeOf, if any.
func findTimes[EM any](times []timesEntry[EM], timeOf func(EM) uint64) (EdgeTimes, bool) {
	key := funcKey(timeOf)
	for i := range times {
		if funcKey(times[i].timeOf) == key {
			return times[i].times, true
		}
	}
	return EdgeTimes{}, false
}

// inheritedTimes is what a stream snapshot keeps of the previous snapshot's
// columns: every accessor's, and, per local vertex, where its list's entries
// start in them when the two snapshots share the list (-1 when not). It
// holds the columns, not the previous snapshot's table, so a snapshot keeps
// no chain of predecessors alive.
type inheritedTimes[EM any] struct {
	times []timesEntry[EM]
	from  []int32
}

// inheritTimes matches rank table rl, just oriented, against prev, the table
// of the snapshot before it: nil when no survey built prev's columns. A list
// is shared when it is the same entries of the same arena — the Orienter
// reused it — and published arenas are never written again, so its columns
// are the same. Both tables are sorted by vertex id.
func inheritTimes[VM, EM any](prev, rl *rankLocal[VM, EM]) *inheritedTimes[EM] {
	if len(prev.times) == 0 {
		return nil
	}
	in := &inheritedTimes[EM]{times: prev.times, from: make([]int32, len(rl.verts))}
	pi := 0
	for i := range rl.verts {
		v := &rl.verts[i]
		for pi < len(prev.verts) && prev.verts[pi].ID < v.ID {
			pi++
		}
		in.from[i] = -1
		if pi < len(prev.verts) && prev.verts[pi].ID == v.ID && sameList(prev.verts[pi].Adj, v.Adj) {
			in.from[i] = prev.off[pi]
		}
	}
	return in
}

// sameList reports whether two adjacency lists are the same entries of the
// same arena.
func sameList[VM, EM any](a, b []OutEdge[VM, EM]) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// NearestGaps fills gap[j] with the least |ts[j] − ts[i]| over i > j, and
// the last entry's with MaxUint64: the Gap column of one out-list. It is the
// scan a dry run used to make per wedge batch, made once: d(d−1)/2
// comparisons for a list of d entries, O(|W⁺|) over a shard.
func NearestGaps(gap, ts []uint64) {
	for j, t := range ts {
		d := uint64(math.MaxUint64)
		for _, u := range ts[j+1:] {
			// A select, not a branch: the order of two timestamps is a
			// coin toss the predictor loses.
			diff := u - t
			if u < t {
				diff = t - u
			}
			d = min(d, diff)
		}
		gap[j] = d
	}
}
