package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"

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

// TriSpanStore maps each live undirected edge (canonical First < Second)
// to its merged timestamp, and each edge to its span-bucketed triangle
// support. Supp entries exist only for edges with at least one bucket;
// Edges is authoritative for membership.
type TriSpanStore struct {
	Edges map[serialize.Pair[uint64, uint64]]uint64
	Supp  map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64
}

// NewTriSpanStore returns an empty store.
func NewTriSpanStore() *TriSpanStore {
	return &TriSpanStore{
		Edges: make(map[serialize.Pair[uint64, uint64]]uint64),
		Supp:  make(map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64),
	}
}

// CanonPair returns the canonical undirected key for {u, v}.
func CanonPair(u, v uint64) serialize.Pair[uint64, uint64] {
	if u > v {
		u, v = v, u
	}
	return serialize.Pair[uint64, uint64]{First: u, Second: v}
}

// InsertEdge records edge {u, v} with timestamp ts. A re-insertion of a
// live edge merges timestamps through merge (nil keeps the stored value,
// mirroring StreamShard.Insert); insertion after expiry is a fresh edge.
func (st *TriSpanStore) InsertEdge(u, v, ts uint64, merge func(a, b uint64) uint64) {
	k := CanonPair(u, v)
	if old, ok := st.Edges[k]; ok {
		if merge != nil {
			st.Edges[k] = merge(old, ts)
		}
		return
	}
	st.Edges[k] = ts
}

// AddSupport bumps the [lo, hi] bucket on the three edges of triangle
// {p, q, r} by delta (negative deltas subtract; a bucket reaching zero is
// removed).
func (st *TriSpanStore) AddSupport(p, q, r, lo, hi uint64, delta int64) {
	sp := TriSpan{Lo: lo, Hi: hi}
	for _, k := range [3]serialize.Pair[uint64, uint64]{CanonPair(p, q), CanonPair(p, r), CanonPair(q, r)} {
		b, ok := st.Supp[k]
		if !ok {
			if delta <= 0 {
				continue
			}
			b = make(map[TriSpan]uint64)
			st.Supp[k] = b
		}
		n := int64(b[sp]) + delta
		switch {
		case n > 0:
			b[sp] = uint64(n)
		default:
			delete(b, sp)
			if len(b) == 0 {
				delete(st.Supp, k)
			}
		}
	}
}

// ExpireBefore drops every edge timestamped below the cutoff and every
// support bucket whose envelope opens below it. A triangle survives the
// watermark iff all three of its edges do, i.e. iff its minimum edge
// timestamp Lo ≥ cutoff — so dropping buckets by Lo alone is exact and
// needs no triangle identity. Returns the number of edges and buckets
// dropped.
func (st *TriSpanStore) ExpireBefore(cutoff uint64) (edges, buckets int) {
	for k, ts := range st.Edges {
		if ts < cutoff {
			delete(st.Edges, k)
			edges++
		}
	}
	for k, b := range st.Supp {
		for sp := range b {
			if sp.Lo < cutoff {
				delete(b, sp)
				buckets++
			}
		}
		if len(b) == 0 {
			delete(st.Supp, k)
		}
	}
	return edges, buckets
}

// ResetSupport clears all support buckets ahead of an epoch rebuild; the
// rebuild's full traversal re-delivers every live-window triangle. Edge
// state is maintained structurally and survives.
func (st *TriSpanStore) ResetSupport() {
	st.Supp = make(map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64)
}

// NumEdges returns the number of live edges.
func (st *TriSpanStore) NumEdges() int { return len(st.Edges) }

// NumBuckets returns the total number of (edge, span) support buckets.
func (st *TriSpanStore) NumBuckets() int {
	n := 0
	for _, b := range st.Supp {
		n += len(b)
	}
	return n
}

// SupportIn sums the support of edge {u, v} restricted to triangles whose
// envelope fits the closed window [from, until] and, when hasDelta, whose
// width Hi−Lo is at most delta.
func (st *TriSpanStore) SupportIn(u, v, from, until uint64, hasDelta bool, delta uint64) uint64 {
	var sum uint64
	for sp, n := range st.Supp[CanonPair(u, v)] {
		if sp.Lo < from || sp.Hi > until {
			continue
		}
		if hasDelta && sp.Hi-sp.Lo > delta {
			continue
		}
		sum += n
	}
	return sum
}

// EdgesIn returns the live edges timestamped inside the closed window
// [from, until], sorted ascending by (First, Second).
func (st *TriSpanStore) EdgesIn(from, until uint64) []serialize.Pair[uint64, uint64] {
	out := make([]serialize.Pair[uint64, uint64], 0, len(st.Edges))
	for k, ts := range st.Edges {
		if ts < from || ts > until {
			continue
		}
		out = append(out, k)
	}
	slices.SortFunc(out, func(a, b serialize.Pair[uint64, uint64]) int {
		if c := cmp.Compare(a.First, b.First); c != 0 {
			return c
		}
		return cmp.Compare(a.Second, b.Second)
	})
	return out
}

// Snapshot codec (TPTI1), in the TPDG2 shard mould: magic + version,
// deterministic encode (edges sorted, buckets sorted per edge), decode
// that validates every claimed count against the bytes actually remaining
// before allocating, and typed errors — corrupt input must never panic.

const triSpanMagic = "TPTI1"

// ErrTriSpanCorrupt is wrapped by every decode failure of a triangle-span
// index snapshot.
var ErrTriSpanCorrupt = errors.New("graph: corrupt triangle-span index snapshot")

func triSpanCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrTriSpanCorrupt, fmt.Sprintf(format, args...))
}

// EncodeSnapshot serializes the store deterministically: identical stores
// yield identical bytes regardless of map iteration order.
func (st *TriSpanStore) EncodeSnapshot() []byte {
	var e serialize.Encoder
	e.PutString(triSpanMagic)

	edges := make([]serialize.Pair[uint64, uint64], 0, len(st.Edges))
	for k := range st.Edges {
		edges = append(edges, k)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].First != edges[j].First {
			return edges[i].First < edges[j].First
		}
		return edges[i].Second < edges[j].Second
	})
	e.PutUvarint(uint64(len(edges)))
	for _, k := range edges {
		e.PutUvarint(k.First)
		e.PutUvarint(k.Second)
		e.PutUvarint(st.Edges[k])

		b := st.Supp[k]
		spans := make([]TriSpan, 0, len(b))
		for sp := range b {
			spans = append(spans, sp)
		}
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].Lo != spans[j].Lo {
				return spans[i].Lo < spans[j].Lo
			}
			return spans[i].Hi < spans[j].Hi
		})
		e.PutUvarint(uint64(len(spans)))
		for _, sp := range spans {
			e.PutUvarint(sp.Lo)
			e.PutUvarint(sp.Hi - sp.Lo) // width, so Hi ≥ Lo is free to validate
			e.PutUvarint(b[sp])
		}
	}
	return e.Bytes()
}

// DecodeTriSpanSnapshot parses TPTI1 bytes back into a store. Corrupt or
// truncated input returns an error wrapping ErrTriSpanCorrupt; claimed
// counts are checked against the remaining buffer before any allocation
// is sized by them.
func DecodeTriSpanSnapshot(data []byte) (*TriSpanStore, error) {
	d := serialize.NewDecoder(data)
	if magic := d.String(); d.Err() != nil || magic != triSpanMagic {
		return nil, triSpanCorrupt("bad magic")
	}
	nEdges := d.Uvarint()
	if d.Err() != nil {
		return nil, triSpanCorrupt("truncated edge count")
	}
	// Each edge costs ≥ 4 bytes (three uvarints + bucket count).
	if nEdges > uint64(d.Remaining()) {
		return nil, triSpanCorrupt("edge count %d exceeds remaining %d bytes", nEdges, d.Remaining())
	}
	st := NewTriSpanStore()
	var prev serialize.Pair[uint64, uint64]
	for i := uint64(0); i < nEdges; i++ {
		u := d.Uvarint()
		v := d.Uvarint()
		ts := d.Uvarint()
		nb := d.Uvarint()
		if d.Err() != nil {
			return nil, triSpanCorrupt("truncated edge record %d", i)
		}
		if u >= v {
			return nil, triSpanCorrupt("edge %d not canonical: {%d, %d}", i, u, v)
		}
		k := serialize.Pair[uint64, uint64]{First: u, Second: v}
		if i > 0 && !(prev.First < u || (prev.First == u && prev.Second < v)) {
			return nil, triSpanCorrupt("edge %d out of order", i)
		}
		prev = k
		if nb > uint64(d.Remaining()) {
			return nil, triSpanCorrupt("edge %d bucket count %d exceeds remaining %d bytes", i, nb, d.Remaining())
		}
		st.Edges[k] = ts
		if nb == 0 {
			continue
		}
		b := make(map[TriSpan]uint64, nb)
		var prevSp TriSpan
		for j := uint64(0); j < nb; j++ {
			lo := d.Uvarint()
			width := d.Uvarint()
			n := d.Uvarint()
			if d.Err() != nil {
				return nil, triSpanCorrupt("truncated bucket %d of edge %d", j, i)
			}
			if n == 0 {
				return nil, triSpanCorrupt("zero-count bucket %d of edge %d", j, i)
			}
			hi := lo + width
			if hi < lo {
				return nil, triSpanCorrupt("bucket %d of edge %d overflows", j, i)
			}
			sp := TriSpan{Lo: lo, Hi: hi}
			if j > 0 && !(prevSp.Lo < lo || (prevSp.Lo == lo && prevSp.Hi < hi)) {
				return nil, triSpanCorrupt("bucket %d of edge %d out of order", j, i)
			}
			prevSp = sp
			b[sp] = n
		}
		st.Supp[k] = b
	}
	if d.Remaining() != 0 {
		return nil, triSpanCorrupt("%d trailing bytes", d.Remaining())
	}
	return st, nil
}
