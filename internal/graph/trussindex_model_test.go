package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tripoll/internal/serialize"
)

// The reference model: the triangle-span store as two levels of maps — a
// timestamp per edge, a bucket map per edge. It is what TriSpanStore was
// before the columnar layout, kept verbatim (renamed) so the columnar store
// can be held to it over random histories.

type mapSpanStore struct {
	Edges map[serialize.Pair[uint64, uint64]]uint64
	Supp  map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64
}

func newMapSpanStore() *mapSpanStore {
	return &mapSpanStore{
		Edges: make(map[serialize.Pair[uint64, uint64]]uint64),
		Supp:  make(map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64),
	}
}

func (st *mapSpanStore) InsertEdge(u, v, ts uint64, merge func(a, b uint64) uint64) {
	k := CanonPair(u, v)
	if old, ok := st.Edges[k]; ok {
		if merge != nil {
			st.Edges[k] = merge(old, ts)
		}
		return
	}
	st.Edges[k] = ts
}

func (st *mapSpanStore) AddSupport(p, q, r, lo, hi uint64, delta int64) {
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

func (st *mapSpanStore) ExpireBefore(cutoff uint64) (edges, buckets int) {
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

func (st *mapSpanStore) ResetSupport() {
	st.Supp = make(map[serialize.Pair[uint64, uint64]]map[TriSpan]uint64)
}

func (st *mapSpanStore) NumEdges() int { return len(st.Edges) }

func (st *mapSpanStore) NumBuckets() int {
	n := 0
	for _, b := range st.Supp {
		n += len(b)
	}
	return n
}

func (st *mapSpanStore) SupportIn(u, v, from, until uint64, hasDelta bool, delta uint64) uint64 {
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

func (st *mapSpanStore) EdgesIn(from, until uint64) []serialize.Pair[uint64, uint64] {
	out := make([]serialize.Pair[uint64, uint64], 0, len(st.Edges))
	for k, ts := range st.Edges {
		if ts < from || ts > until {
			continue
		}
		out = append(out, k)
	}
	slices.SortFunc(out, comparePair)
	return out
}

func (st *mapSpanStore) EncodeSnapshot() []byte {
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
			e.PutUvarint(sp.Hi - sp.Lo)
			e.PutUvarint(b[sp])
		}
	}
	return e.Bytes()
}

func decodeMapSpanSnapshot(data []byte) (*mapSpanStore, error) {
	d := serialize.NewDecoder(data)
	if magic := d.String(); d.Err() != nil || magic != triSpanMagic {
		return nil, triSpanCorrupt("bad magic")
	}
	nEdges := d.Uvarint()
	if d.Err() != nil {
		return nil, triSpanCorrupt("truncated edge count")
	}
	if nEdges > uint64(d.Remaining()) {
		return nil, triSpanCorrupt("edge count %d exceeds remaining %d bytes", nEdges, d.Remaining())
	}
	st := newMapSpanStore()
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

// spanStore is the surface both stores share.
type spanStore interface {
	InsertEdge(u, v, ts uint64, merge func(a, b uint64) uint64)
	AddSupport(p, q, r, lo, hi uint64, delta int64)
	ExpireBefore(cutoff uint64) (edges, buckets int)
	ResetSupport()
	NumEdges() int
	NumBuckets() int
	SupportIn(u, v, from, until uint64, hasDelta bool, delta uint64) uint64
	EdgesIn(from, until uint64) []serialize.Pair[uint64, uint64]
	EncodeSnapshot() []byte
}

// spanOp is one step of a store history.
type spanOp struct {
	kind       byte // 'i' insert, 's' support, 'x' expire, 'r' reset support, 'c' decode(encode)
	u, v, w    uint64
	ts, lo, hi uint64
	delta      int64
	minMerge   bool
}

const spanPool = 16 // vertices; few enough that pairs, buckets and ties recur

// spanHistory draws a history over a sliding watermark: timestamps mostly
// ahead of it, some behind (they expire at the next advance), cutoffs that
// land on stored timestamps and bucket Lo values, duplicate inserts under
// min and nil merge, ± and zero supports on members and non-members
// (negative and zero ones often on absent buckets), support resets and
// codec round trips.
func spanHistory(seed int64, n int) []spanOp {
	rng := rand.New(rand.NewSource(seed))
	vertex := func() uint64 { return uint64(rng.Intn(spanPool)) }
	var wm uint64 = 20
	stamp := func() uint64 { return wm - 20 + uint64(rng.Intn(90)) }
	ops := make([]spanOp, 0, n)
	for len(ops) < n {
		switch x := rng.Intn(100); {
		case x < 40:
			u, v := vertex(), vertex()
			if u == v {
				continue
			}
			ops = append(ops, spanOp{kind: 'i', u: u, v: v, ts: stamp(), minMerge: rng.Intn(2) == 0})
		case x < 89:
			lo := stamp()
			deltas := [...]int64{1, 1, 1, 2, 0, -1, -1, -2}
			ops = append(ops, spanOp{kind: 's', u: vertex(), v: vertex(), w: vertex(),
				lo: lo, hi: lo + uint64(rng.Intn(40)), delta: deltas[rng.Intn(len(deltas))]})
		case x < 97:
			wm += uint64(rng.Intn(12))
			ops = append(ops, spanOp{kind: 'x', ts: wm})
		case x < 98:
			ops = append(ops, spanOp{kind: 'r'})
		default:
			ops = append(ops, spanOp{kind: 'c'})
		}
	}
	return ops
}

func minU64(a, b uint64) uint64 { return min(a, b) }

// stepSpan applies op to st and returns the store to continue with (a
// fresh one after a codec round trip) and ExpireBefore's counts.
func stepSpan[S spanStore](t *testing.T, st S, op spanOp, decode func([]byte) (S, error)) (S, [2]int) {
	t.Helper()
	switch op.kind {
	case 'i':
		merge := minU64
		if !op.minMerge {
			merge = nil
		}
		st.InsertEdge(op.u, op.v, op.ts, merge)
	case 's':
		st.AddSupport(op.u, op.v, op.w, op.lo, op.hi, op.delta)
	case 'x':
		e, b := st.ExpireBefore(op.ts)
		return st, [2]int{e, b}
	case 'r':
		st.ResetSupport()
	case 'c':
		fresh, err := decode(st.EncodeSnapshot())
		if err != nil {
			t.Fatalf("decode(encode): %v", err)
		}
		return fresh, [2]int{}
	}
	return st, [2]int{}
}

// TestSpanStoreMatchesModel runs seeded random histories through the
// columnar store and the map model and compares every observable after
// every step: counts, expiry drop counts, timestamps, EdgesIn, SupportIn
// and ReadWindow over random windows and δ for every pair of the vertex
// pool (members or not), and the snapshot bytes.
func TestSpanStoreMatchesModel(t *testing.T) {
	var ties, supportOnly, compactions, resets, roundTrips int
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed * 7919))
		st, model := NewTriSpanStore(), newMapSpanStore()
		var w WindowRead
		var wm uint64 = 20
		for i, op := range spanHistory(seed, 1500) {
			if op.kind == 'x' {
				wm = op.ts
				for k, ts := range model.Edges {
					if ts == op.ts {
						ties++
					}
					for sp := range model.Supp[k] {
						if sp.Lo == op.ts {
							ties++
						}
					}
				}
			}
			slots := len(st.pair)
			var got, want [2]int
			st, got = stepSpan(t, st, op, DecodeTriSpanSnapshot)
			model, want = stepSpan(t, model, op, decodeMapSpanSnapshot)
			if len(st.pair) < slots && op.kind != 'c' {
				compactions++
			}
			switch op.kind {
			case 'r':
				resets++
			case 'c':
				roundTrips++
			}
			if got != want {
				t.Fatalf("seed %d op %d %+v: ExpireBefore dropped %v, model %v", seed, i, op, got, want)
			}
			if st.NumEdges() != model.NumEdges() || st.NumBuckets() != model.NumBuckets() {
				t.Fatalf("seed %d op %d %+v: %d edges %d buckets, model %d %d",
					seed, i, op, st.NumEdges(), st.NumBuckets(), model.NumEdges(), model.NumBuckets())
			}
			if (op.kind == 'i' || op.kind == 's') && i%5 != 0 {
				continue
			}

			from := wm - 20 + uint64(rng.Intn(100))
			until := from + uint64(rng.Intn(100))
			switch rng.Intn(10) {
			case 0:
				from, until = 0, ^uint64(0)
			case 1:
				until = from - 1 // empty
			}
			hasDelta, delta := rng.Intn(2) == 0, uint64(rng.Intn(45))
			if g, m := st.EdgesIn(from, until), model.EdgesIn(from, until); !slices.Equal(g, m) {
				t.Fatalf("seed %d op %d: EdgesIn(%d, %d) = %v, model %v", seed, i, from, until, g, m)
			}
			st.ReadWindow(&w, from, until, hasDelta, delta)
			if !slices.Equal(w.Edges, model.EdgesIn(from, until)) || w.Slots < st.NumEdges() {
				t.Fatalf("seed %d op %d: ReadWindow edges %v (%d slots), model %v", seed, i, w.Edges, w.Slots, model.EdgesIn(from, until))
			}
			buckets := 0
			for j, p := range w.Edges {
				if s, m := w.Support[j], model.SupportIn(p.First, p.Second, from, until, hasDelta, delta); s != m {
					t.Fatalf("seed %d op %d: ReadWindow support of %v = %d, model %d", seed, i, p, s, m)
				}
				for sp := range model.Supp[p] {
					if sp.Lo >= from && sp.Lo <= until {
						buckets++
					}
				}
			}
			if w.Buckets != buckets {
				t.Fatalf("seed %d op %d: ReadWindow visited %d buckets, want %d", seed, i, w.Buckets, buckets)
			}
			for u := uint64(0); u < spanPool; u++ {
				for v := u + 1; v < spanPool; v++ {
					if g, m := st.SupportIn(v, u, from, until, hasDelta, delta), model.SupportIn(u, v, from, until, hasDelta, delta); g != m {
						t.Fatalf("seed %d op %d: SupportIn(%d, %d) = %d, model %d", seed, i, u, v, g, m)
					}
					ts, ok := st.Timestamp(u, v)
					mts, mok := model.Edges[CanonPair(u, v)]
					if ts != mts || ok != mok {
						t.Fatalf("seed %d op %d: Timestamp(%d, %d) = %d %v, model %d %v", seed, i, u, v, ts, ok, mts, mok)
					}
					if _, ok := model.Supp[CanonPair(u, v)]; ok && !mok {
						supportOnly++
					}
				}
			}
			if g, m := st.EncodeSnapshot(), model.EncodeSnapshot(); !bytes.Equal(g, m) {
				t.Fatalf("seed %d op %d: snapshot bytes differ from the model's", seed, i)
			}
		}
	}
	// The histories must actually reach the cases they are drawn for.
	for name, n := range map[string]int{"expiry ties": ties, "support-only slots": supportOnly,
		"compactions": compactions, "resets": resets, "codec round trips": roundTrips} {
		if n == 0 {
			t.Errorf("no %s in the histories", name)
		}
	}
}

// goldenSpanSHA is the SHA-256 of the snapshots TestTriSpanSnapshotGolden's
// history produces, generated by the map-backed store before the columnar
// layout replaced it.
const goldenSpanSHA = "522b8b9461a7494f8846b730e19f58c3b6f089f0e1e4488c1522d24cf324b1f7"

// TestTriSpanSnapshotGolden pins the TPTI1 format: the snapshots taken
// every 100 steps of one seeded history, concatenated, hash to what the
// map-backed store produced.
func TestTriSpanSnapshotGolden(t *testing.T) {
	st := NewTriSpanStore()
	h := sha256.New()
	for i, op := range spanHistory(42, 3000) {
		st, _ = stepSpan(t, st, op, DecodeTriSpanSnapshot)
		if i%100 == 99 {
			h.Write(st.EncodeSnapshot())
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSpanSHA {
		t.Fatalf("TPTI1 snapshots hash to %s, want %s", got, goldenSpanSHA)
	}
}
