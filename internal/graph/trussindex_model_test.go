package graph

import (
	"math/rand"
	"slices"
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
}

// spanOp is one step of a store history.
type spanOp struct {
	kind       byte // 'i' insert, 's' support, 'x' expire, 'r' reset support
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
// (negative and zero ones often on absent buckets) and support resets.
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
		}
	}
	return ops
}

func minU64(a, b uint64) uint64 { return min(a, b) }

// stepSpan applies op to st and returns ExpireBefore's counts.
func stepSpan(st spanStore, op spanOp) [2]int {
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
		return [2]int{e, b}
	case 'r':
		st.ResetSupport()
	}
	return [2]int{}
}

// TestSpanStoreMatchesModel runs seeded random histories through the
// columnar store and the map model and compares every observable after
// every step: counts, expiry drop counts, timestamps, EdgesIn, SupportIn
// and ReadWindow over random windows and δ for every pair of the vertex
// pool (members or not), ReadWindow over the full axis, and ReadWindow and
// SupportIn over one window per bucket either store holds.
func TestSpanStoreMatchesModel(t *testing.T) {
	var ties, supportOnly, compactions, resets int
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
			got, want := stepSpan(st, op), stepSpan(model, op)
			if len(st.pair) < slots {
				compactions++
			}
			if op.kind == 'r' {
				resets++
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

			// checkRead holds one ReadWindow to the model: the edges, their
			// support sums and the buckets the read visited.
			checkRead := func(from, until uint64, hasDelta bool, delta uint64) {
				t.Helper()
				st.ReadWindow(&w, from, until, hasDelta, delta)
				if !slices.Equal(w.Edges, model.EdgesIn(from, until)) || w.Slots < st.NumEdges() {
					t.Fatalf("seed %d op %d: ReadWindow(%d, %d) edges %v (%d slots), model %v", seed, i, from, until, w.Edges, w.Slots, model.EdgesIn(from, until))
				}
				buckets := 0
				for j, p := range w.Edges {
					if s, m := w.Support[j], model.SupportIn(p.First, p.Second, from, until, hasDelta, delta); s != m {
						t.Fatalf("seed %d op %d: ReadWindow(%d, %d, δ %v %d) support of %v = %d, model %d", seed, i, from, until, hasDelta, delta, p, s, m)
					}
					for sp := range model.Supp[p] {
						if sp.Lo >= from && sp.Lo <= until {
							buckets++
						}
					}
				}
				if w.Buckets != buckets {
					t.Fatalf("seed %d op %d: ReadWindow(%d, %d) visited %d buckets, want %d", seed, i, from, until, w.Buckets, buckets)
				}
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
			checkRead(from, until, hasDelta, delta)
			checkRead(0, ^uint64(0), false, 0)
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

			// One window per bucket either store holds, δ its width: a read
			// sums the buckets nested in its window, so the innermost bucket
			// where the stores differ changes a sum. SupportIn sees the
			// buckets of every pair; ReadWindow those of edges whose
			// timestamp the window holds.
			read := map[TriSpan]bool{}
			for k, spans := range bucketWindows(st, model) {
				for _, sp := range spans {
					if g, m := st.SupportIn(k.First, k.Second, sp.Lo, sp.Hi, true, sp.Hi-sp.Lo), model.SupportIn(k.First, k.Second, sp.Lo, sp.Hi, true, sp.Hi-sp.Lo); g != m {
						t.Fatalf("seed %d op %d: SupportIn(%v, %+v) = %d, model %d", seed, i, k, sp, g, m)
					}
					if !read[sp] {
						read[sp] = true
						checkRead(sp.Lo, sp.Hi, true, sp.Hi-sp.Lo)
					}
				}
			}
		}
	}
	// The histories must actually reach the cases they are drawn for.
	for name, n := range map[string]int{"expiry ties": ties, "support-only slots": supportOnly,
		"compactions": compactions, "resets": resets} {
		if n == 0 {
			t.Errorf("no %s in the histories", name)
		}
	}
}

// bucketWindows lists, per pair, the span of every bucket the columnar
// store or the model holds on it.
func bucketWindows(st *TriSpanStore, model *mapSpanStore) map[serialize.Pair[uint64, uint64]][]TriSpan {
	out := make(map[serialize.Pair[uint64, uint64]][]TriSpan)
	for k, b := range model.Supp {
		for sp := range b {
			out[k] = append(out[k], sp)
		}
	}
	for k, s := range st.slot {
		for _, b := range st.runs[s] {
			out[k] = append(out[k], b.TriSpan)
		}
	}
	return out
}

// TestTriSpanStoreSemantics pins the store's maintenance semantics the
// index relies on: merge-on-duplicate, bucket removal at zero, exact
// expiry by envelope Lo, and δ/window filtering in SupportIn.
func TestTriSpanStoreSemantics(t *testing.T) {
	st := NewTriSpanStore()
	st.InsertEdge(5, 4, 100, nil) // canonicalized to {4, 5}
	if ts, ok := st.Timestamp(4, 5); !ok || ts != 100 {
		t.Fatalf("insert not canonical: %v %v", ts, ok)
	}
	min := func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	st.InsertEdge(4, 5, 50, min)
	if ts, _ := st.Timestamp(4, 5); ts != 50 {
		t.Fatalf("duplicate must merge: got %d", ts)
	}
	st.InsertEdge(4, 5, 200, nil)
	if ts, _ := st.Timestamp(4, 5); ts != 50 {
		t.Fatalf("nil merge must keep stored: got %d", ts)
	}

	st.AddSupport(1, 2, 3, 10, 40, 1)
	st.AddSupport(1, 2, 3, 10, 40, 1)
	st.AddSupport(1, 2, 3, 20, 25, 1)
	if got := st.SupportIn(1, 2, 0, 100, false, 0); got != 3 {
		t.Fatalf("SupportIn whole: got %d, want 3", got)
	}
	if got := st.SupportIn(1, 2, 0, 100, true, 10); got != 1 {
		t.Fatalf("SupportIn δ=10 must keep only the [20,25] bucket: got %d", got)
	}
	if got := st.SupportIn(1, 2, 15, 100, false, 0); got != 1 {
		t.Fatalf("SupportIn from=15 must drop Lo=10 buckets: got %d", got)
	}
	st.AddSupport(1, 2, 3, 10, 40, -2)
	if got := st.SupportIn(1, 2, 0, 100, false, 0); got != 1 {
		t.Fatalf("negative delta must remove the bucket: got %d", got)
	}
	// Each AddSupport touches the triangle's three edges; the [20, 25]
	// bucket survives on all of them.
	st.AddSupport(7, 8, 9, 5, 6, -1)
	if st.NumBuckets() != 3 {
		t.Fatalf("negative delta on absent bucket must not create one: %d buckets", st.NumBuckets())
	}

	st.InsertEdge(1, 2, 12, nil)
	st.InsertEdge(1, 3, 30, nil)
	edges, buckets := st.ExpireBefore(25)
	if edges != 1 {
		t.Fatalf("expire must drop the ts=12 edge: dropped %d", edges)
	}
	if buckets != 3 {
		t.Fatalf("expire must drop the Lo=20 bucket on all three edges: dropped %d", buckets)
	}
	if st.NumBuckets() != 0 {
		t.Fatalf("store must have no buckets left: %d", st.NumBuckets())
	}
}
