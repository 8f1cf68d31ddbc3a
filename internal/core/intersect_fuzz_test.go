package core

import (
	"sort"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
)

// FuzzGallopIntersect drives the hybrid galloping cursors (linear prelude →
// exponential probe → binary search) and the dense-reply bitset against a
// naive sorted-merge reference over adversarial adjacency shapes: duplicate
// targets, zero gaps, tombstoned entries, cursor starts anywhere including
// past the end. The invariant under test is the one the triangle counts
// ride on: the cursor must land on the SMALLEST j >= k with adj[j] >= w —
// off by even one (the bug class: skipping the re-check after the linear
// prelude) silently drops triangles.
func FuzzGallopIntersect(f *testing.F) {
	f.Add([]byte{1, 0, 3, 0, 0, 7, 2, 255}, uint8(2), uint64(5))
	f.Add([]byte{16, 16, 16, 16, 16, 16, 16, 16, 16, 16}, uint8(0), uint64(64))
	f.Add([]byte{}, uint8(9), uint64(0))
	f.Fuzz(func(t *testing.T, gaps []byte, kByte uint8, w uint64) {
		if len(gaps) > 4096 {
			gaps = gaps[:4096]
		}
		// Sorted target list from cumulative gaps; gap 0 makes duplicates.
		ids := make([]uint64, len(gaps))
		cur := uint64(0)
		for i, b := range gaps {
			cur += uint64(b % 16)
			ids[i] = cur
		}
		adj := make([]graph.StreamEntry[serialize.Unit, uint64], len(ids))
		for i, id := range ids {
			adj[i] = graph.StreamEntry[serialize.Unit, uint64]{
				Target: id,
				EMeta:  uint64(i),
				Dead:   i%3 == 0, // tombstones keep their slot and sort normally
			}
		}
		k := int(kByte)
		if k > len(adj) {
			k = len(adj)
		}

		// Probe the fuzzed w plus every value adjacent to a list element,
		// hitting exact matches, gaps, and both ends.
		probes := []uint64{w, cur, cur + 1}
		for i := 0; i < len(ids); i += 1 + len(ids)/16 {
			probes = append(probes, ids[i])
			if ids[i] > 0 {
				probes = append(probes, ids[i]-1)
			}
		}
		for _, p := range probes {
			want := k
			for want < len(adj) && adj[want].Target < p {
				want++
			}
			if got := gallopStreamID(adj, k, p); got != want {
				t.Fatalf("gallopStreamID(k=%d, w=%d) = %d, want %d (len %d)", k, p, got, want, len(adj))
			}
		}

		// gallopOutKey over the composite (Deg, Mix64(id), id) order —
		// ties on Deg break by hash, so the list must be sorted by Key,
		// not by Target.
		out := make([]graph.OutEdge[serialize.Unit, uint64], len(ids))
		for i, id := range ids {
			out[i] = graph.OutEdge[serialize.Unit, uint64]{Target: id, TOrd: uint32(id >> 2)}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Key().Less(out[j].Key()) })
		for _, p := range probes {
			ck := graph.KeyOf(uint32(p>>2), p)
			want := k
			for want < len(out) && out[want].Key().Less(ck) {
				want++
			}
			if got := gallopOutKey(out, k, ck); got != want {
				t.Fatalf("gallopOutKey(k=%d, ck=%v) = %d, want %d", k, ck, got, want)
			}
		}

		// Dense-reply bitset vs gallopStreamPullID over the deduplicated
		// list: both must agree with linear search on membership and index.
		pulled := make([]streamPullEntry[serialize.Unit, uint64], 0, len(ids))
		for i, id := range ids {
			if i > 0 && id == ids[i-1] {
				continue
			}
			pulled = append(pulled, streamPullEntry[serialize.Unit, uint64]{id: id, em: uint64(i)})
		}
		var bs idBitset
		dense := buildPullBitset(&bs, pulled)
		for _, p := range probes {
			wantIdx := -1
			for i := range pulled {
				if pulled[i].id == p {
					wantIdx = i
					break
				}
			}
			j := gallopStreamPullID(pulled, 0, p)
			gotGallop := -1
			if j < len(pulled) && pulled[j].id == p {
				gotGallop = j
			}
			if gotGallop != wantIdx {
				t.Fatalf("gallopStreamPullID(%d): got index %d, want %d", p, gotGallop, wantIdx)
			}
			if dense {
				gotBits := -1
				if idx, ok := bs.lookup(p); ok {
					gotBits = idx
				}
				if gotBits != wantIdx {
					t.Fatalf("bitset lookup(%d): got index %d, want %d", p, gotBits, wantIdx)
				}
			}
		}

		// A reply with duplicate ids must refuse the bitset: its rank
		// directory counts set bits, not list entries.
		if len(ids) >= bitsetMinCount {
			dup := make([]streamPullEntry[serialize.Unit, uint64], len(ids))
			for i, id := range ids {
				dup[i] = streamPullEntry[serialize.Unit, uint64]{id: id}
			}
			hasDup := false
			for i := 1; i < len(ids); i++ {
				if ids[i] == ids[i-1] {
					hasDup = true
					break
				}
			}
			var bs2 idBitset
			if hasDup && buildPullBitset(&bs2, dup) {
				t.Fatalf("buildPullBitset accepted a reply with duplicate ids")
			}
		}
	})
}

// FuzzPulledIntersect holds intersectPulled — a granted wedge batch's suffix
// against its target's pulled list — to a nested loop over the same slices:
// the same matches in the same order, the same wedge checks and the same
// pruned candidates, with and without the ok and ts columns. Each input byte
// pair is one entry (a target id from a universe of 64, so the lists
// overlap, and a timestamp); a vertex's ordering weight takes one of three
// values, so equal weights are common and the order falls to the hash. The
// nested loop matches on ids, the kernel on hashes: two distinct ids never
// tie on the hash (Mix64 is a bijection), so a full key tie is an equal id.
// Empty suffixes and empty lists are seeds.
func FuzzPulledIntersect(f *testing.F) {
	f.Add([]byte{1, 10, 2, 12, 3, 30, 9, 9}, []byte{2, 11, 3, 40, 9, 9}, uint64(0xff), uint8(10), uint8(5), uint8(3))
	f.Add([]byte{}, []byte{1, 1}, uint64(0), uint8(0), uint8(0), uint8(0))
	f.Add([]byte{5, 5, 6, 6}, []byte{}, uint64(1), uint8(0), uint8(255), uint8(1))
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0}, []byte{0, 0, 2, 0, 4, 0, 6, 0}, uint64(0x2a), uint8(0), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, sfx, pl []byte, okMask uint64, tqB, deltaB, flags uint8) {
		weight := func(id uint64) uint32 { return uint32(graph.Mix64(id^uint64(flags>>2)) % 3) }
		type ent struct{ id, ts uint64 }
		list := func(raw []byte) []ent {
			seen := map[uint64]bool{}
			var out []ent
			for i := 0; i+1 < len(raw) && len(out) < 64; i += 2 {
				id := uint64(raw[i] & 63)
				if !seen[id] {
					seen[id] = true
					out = append(out, ent{id, uint64(raw[i+1])})
				}
			}
			sort.Slice(out, func(a, b int) bool {
				return graph.KeyOf(weight(out[a].id), out[a].id).Less(graph.KeyOf(weight(out[b].id), out[b].id))
			})
			return out
		}
		se, pe := list(sfx), list(pl)
		suffix := make([]graph.OutEdge[serialize.Unit, uint64], len(se))
		var ok []bool
		var ts []uint64
		if flags&1 != 0 {
			ok = make([]bool, len(se))
		}
		if flags&2 != 0 {
			ts = make([]uint64, len(se))
		}
		for i, e := range se {
			suffix[i] = graph.OutEdge[serialize.Unit, uint64]{Target: e.id, TOrd: weight(e.id), EMeta: e.ts}
			if ok != nil {
				ok[i] = okMask&(1<<i) != 0
			}
			if ts != nil {
				ts[i] = e.ts
			}
		}
		pulled := make([]pulledEntry[uint64], len(pe))
		for k, e := range pe {
			pulled[k] = pulledEntry[uint64]{hash: graph.Mix64(e.id), deg: weight(e.id), em: e.ts}
			if ts != nil {
				pulled[k].ts = e.ts
			}
		}
		tq, delta := uint64(tqB), uint64(deltaB)
		if ts == nil {
			tq, delta = 0, noDelta
		}

		var want []pullHit
		var wantChecks, wantPruned uint64
		for i, c := range suffix {
			if (ok != nil && !ok[i]) || (ts != nil && absDiff(ts[i], tq) > delta) {
				wantPruned++
				continue
			}
			wantChecks++
			for k := range pe {
				if pe[k].id != c.Target {
					continue
				}
				if ts == nil || max(tq, ts[i], pulled[k].ts)-min(tq, ts[i], pulled[k].ts) <= delta {
					want = append(want, pullHit{i: int32(i), k: int32(k)})
				}
			}
		}
		got, checks, pruned := intersectPulled(nil, suffix, pulled, ok, ts, tq, delta)
		if checks != wantChecks || pruned != wantPruned {
			t.Fatalf("checks %d, pruned %d; nested loop %d, %d", checks, pruned, wantChecks, wantPruned)
		}
		if len(got) != len(want) {
			t.Fatalf("matches %v; nested loop %v", got, want)
		}
		for n := range got {
			if got[n] != want[n] {
				t.Fatalf("matches %v; nested loop %v", got, want)
			}
		}
	})
}
