package core

import (
	"math/bits"

	"tripoll/internal/graph"
)

// Sorted-list intersection primitives for the survey and stream hot paths.
//
// The merge cursors of the survey's intersections used to advance linearly:
// fine when the two lists are the same length, quadratic in feel when a
// short pushed suffix is intersected against a hub's adjacency (the cursor
// crawls over thousands of entries per candidate). Galloping — a bounded
// linear probe, then exponential search, then binary search over the probed
// range — costs O(log gap) per advance; the linear prelude keeps the
// balanced-list case (cursors advancing a step or two) at exactly the old
// loop's cost instead of paying the exponential machinery's constant factor
// on every step.
//
// The functions are monomorphized per call-site element type instead of
// taking a comparison closure: these run per candidate per message, and a
// captured-variable closure would put one allocation on every message.

// gallopOutKey returns the smallest j >= k with !(adj[j].Key() < ck);
// adj must be sorted by Key (the DODGr adjacency invariant).
func gallopOutKey[VM, EM any](adj []graph.OutEdge[VM, EM], k int, ck graph.OrderKey) int {
	for n := 0; n < gallopLinearSteps; n++ {
		if k >= len(adj) || !adj[k].Key().Less(ck) {
			return k
		}
		k++
	}
	// Re-establish adj[k] < ck before probing: the binary search below
	// excludes k from its range.
	if k >= len(adj) || !adj[k].Key().Less(ck) {
		return k
	}
	step := 1
	for k+step < len(adj) && adj[k+step].Key().Less(ck) {
		k += step
		step <<= 1
	}
	lo, hi := k+1, k+step
	if hi > len(adj) {
		hi = len(adj)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].Key().Less(ck) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pulledEntry is one decoded entry of a pulled Adj⁺ᵐ(q): the target r's
// ordering weight and Mix64 hash (so a gallop probe compares cached words),
// the plan accessor's timestamp of (q,r) (0 without a δ), and meta(q,r).
// Mix64 is a bijection, so the hash stands for r: two distinct ids never tie
// on it, which makes (weight, hash) the whole order key and hash equality a
// match, and the id need not be kept.
type pulledEntry[EM any] struct {
	hash uint64
	ts   uint64
	deg  uint32
	em   EM
}

// before reports whether x sorts before the vertex with ordering weight deg
// and hash Mix64(id).
func (x *pulledEntry[EM]) before(deg uint32, hash uint64) bool {
	return x.deg < deg || (x.deg == deg && x.hash < hash)
}

// gallopPulled is gallopOutKey over a pulled list, comparing cached keys.
func gallopPulled[EM any](xs []pulledEntry[EM], k int, deg uint32, hash uint64) int {
	for n := 0; n < gallopLinearSteps; n++ {
		if k >= len(xs) || !xs[k].before(deg, hash) {
			return k
		}
		k++
	}
	if k >= len(xs) || !xs[k].before(deg, hash) {
		return k
	}
	step := 1
	for k+step < len(xs) && xs[k+step].before(deg, hash) {
		k += step
		step <<= 1
	}
	lo, hi := k+1, k+step
	if hi > len(xs) {
		hi = len(xs)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid].before(deg, hash) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersectPulled completes one granted wedge batch (p,q): it walks the
// batch's candidate suffix of Adj⁺ᵐ(p) and gallops into q's pulled list,
// appending each match (p,q,r) to hits. ok and ts are the suffix's entries
// of the plan columns (nil without an edge filter, without a δ), tq is the
// (p,q) edge's timestamp and delta the plan's δ (noDelta without one).
//
// A candidate failing the column test (ok, and |ts − tq| ≤ δ) is pruned
// without advancing the cursor; every other candidate is one wedge check,
// also once the list is spent. A match is reported when the three
// timestamps span at most δ: that is all that is left of the plan's
// predicate, because the single-edge tests of (p,q), (p,r) and (q,r) were
// settled by the dry run's survival test, by the ok column here and by the
// reply's own filter at q's owner.
func intersectPulled[VM, EM any](hits []pullHit, suffix []graph.OutEdge[VM, EM], pulled []pulledEntry[EM],
	ok []bool, ts []uint64, tq, delta uint64) (_ []pullHit, checks, pruned uint64) {
	i, k := 0, 0
	for ; i < len(suffix) && k < len(pulled); i++ {
		var tr uint64
		if ok != nil && !ok[i] {
			pruned++
			continue
		}
		if ts != nil {
			if tr = ts[i]; absDiff(tr, tq) > delta {
				pruned++
				continue
			}
		}
		checks++
		c := &suffix[i]
		h := graph.Mix64(c.Target)
		if pulled[k].before(c.TOrd, h) {
			k = gallopPulled(pulled, k+1, c.TOrd, h)
		}
		if k < len(pulled) && pulled[k].hash == h {
			if ts == nil || spread3(tq, tr, pulled[k].ts) <= delta {
				hits = append(hits, pullHit{i: int32(i), k: int32(k)})
			}
			k++
		}
	}
	// The list is spent: the rest of the suffix only counts.
	for ; i < len(suffix); i++ {
		if (ok != nil && !ok[i]) || (ts != nil && absDiff(ts[i], tq) > delta) {
			pruned++
		} else {
			checks++
		}
	}
	return hits, checks, pruned
}

// spread3 is max − min of three timestamps.
func spread3(a, b, c uint64) uint64 {
	return max(a, b, c) - min(a, b, c)
}

// gallopStreamID returns the smallest j >= k with adj[j].Target >= w; adj
// must be sorted by Target (the stream shard invariant; tombstones keep
// their slot and sort normally).
func gallopStreamID[VM, EM any](adj []graph.StreamEntry[VM, EM], k int, w uint64) int {
	for n := 0; n < gallopLinearSteps; n++ {
		if k >= len(adj) || adj[k].Target >= w {
			return k
		}
		k++
	}
	if k >= len(adj) || adj[k].Target >= w {
		return k
	}
	step := 1
	for k+step < len(adj) && adj[k+step].Target < w {
		k += step
		step <<= 1
	}
	lo, hi := k+1, k+step
	if hi > len(adj) {
		hi = len(adj)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if adj[mid].Target < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopStreamPullID is gallopStreamID over a decoded stream pull reply.
func gallopStreamPullID[VM, EM any](xs []streamPullEntry[VM, EM], k int, w uint64) int {
	for n := 0; n < gallopLinearSteps; n++ {
		if k >= len(xs) || xs[k].id >= w {
			return k
		}
		k++
	}
	if k >= len(xs) || xs[k].id >= w {
		return k
	}
	step := 1
	for k+step < len(xs) && xs[k+step].id < w {
		k += step
		step <<= 1
	}
	lo, hi := k+1, k+step
	if hi > len(xs) {
		hi = len(xs)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid].id < w {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// idBitset answers "is id present, and at which list index" in O(1): a bit
// per id in [base, last] plus a per-word popcount rank directory, so lookup
// is one word test and one OnesCount64. A stream pull reply is intersected
// against *every* parked delta edge targeting the pulled vertex, which is
// what amortizes the O(span/64 + count) build; per-message intersections
// (onPush) stick with galloping.
//
// The density threshold for building one is bitsetMinCount ids spanning at
// most bitsetSpanFactor× their count: below that the words are mostly empty
// and galloping's O(log gap) wins on cache footprint alone.
type idBitset struct {
	base  uint64
	last  uint64
	words []uint64
	rank  []int32
}

const (
	bitsetMinCount   = 32
	bitsetSpanFactor = 128
)

// gallopLinearSteps is how far a gallop cursor walks linearly before
// switching to exponential probing. Merge-path advances are usually 1-2
// entries; below this distance plain stepping beats the probe/bisect
// machinery's extra comparisons.
const gallopLinearSteps = 4

// buildPullBitset populates b from the (id-sorted) pull reply when it is
// dense enough to be worth it, reusing b's storage across messages. It
// reports whether b is usable.
func buildPullBitset[VM, EM any](b *idBitset, pulled []streamPullEntry[VM, EM]) bool {
	n := len(pulled)
	if n < bitsetMinCount {
		return false
	}
	base, last := pulled[0].id, pulled[n-1].id
	span := last - base + 1
	if span > uint64(bitsetSpanFactor)*uint64(n) {
		return false
	}
	nw := int((span + 63) / 64)
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
		b.rank = make([]int32, nw)
	}
	b.words = b.words[:nw]
	b.rank = b.rank[:nw]
	clear(b.words)
	for i := range pulled {
		if i > 0 && pulled[i].id == pulled[i-1].id {
			// A duplicate id would desynchronize the rank directory from
			// list indices. Production replies hold unique targets; refuse
			// rather than misindex if one ever doesn't.
			return false
		}
		off := pulled[i].id - base
		b.words[off>>6] |= 1 << (off & 63)
	}
	var r int32
	for i, w := range b.words {
		b.rank[i] = r
		r += int32(bits.OnesCount64(w))
	}
	b.base, b.last = base, last
	return true
}

// lookup returns the list index of w and whether it is present.
func (b *idBitset) lookup(w uint64) (int, bool) {
	if w < b.base || w > b.last {
		return 0, false
	}
	off := w - b.base
	word := b.words[off>>6]
	bit := uint64(1) << (off & 63)
	if word&bit == 0 {
		return 0, false
	}
	return int(b.rank[off>>6]) + bits.OnesCount64(word&(bit-1)), true
}
