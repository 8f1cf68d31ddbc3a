package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// The streaming equivalence property: after every ingested batch and every
// window advance — including batches that complete whole triangles at
// once, duplicate re-insertions, expiries that destroy triangles, and
// epoch-rebuild fallbacks — every fused analysis result is identical to a
// from-scratch Run on the equivalent snapshot (the live edge set), across
// PushOnly/PushPull × degree/degeneracy orderings.

type livePair struct{ lo, hi uint64 }

func canonPair(u, v uint64) livePair {
	if u < v {
		return livePair{u, v}
	}
	return livePair{v, u}
}

func minMerge(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// applyLive folds a batch into the tracked live edge set with the same
// pre-merge semantics the stream uses.
func applyLive(live map[livePair]uint64, batch []graph.Edge[uint64]) {
	for _, e := range batch {
		if e.U == e.V {
			continue
		}
		k := canonPair(e.U, e.V)
		if old, ok := live[k]; ok {
			live[k] = minMerge(old, e.Meta)
		} else {
			live[k] = e.Meta
		}
	}
}

// buildLive constructs the equivalent snapshot of the tracked live set on
// the stream's world.
func buildLive(w *ygm.World, live map[livePair]uint64, ord graph.Ordering) *graph.DODGr[serialize.Unit, uint64] {
	keys := make([]livePair, 0, len(live))
	for k := range live {
		keys = append(keys, k)
	}
	// Deterministic order (map iteration is not).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(edgeKey(keys[j]), edgeKey(keys[j-1])); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{Ordering: ord, MergeEdgeMeta: minMerge})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(keys); i += r.Size() {
			b.AddEdge(r, keys[i].lo, keys[i].hi, live[keys[i]])
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return g
}

type streamOutputs struct {
	count uint64
	verts map[uint64]uint64
	joint *stats.Joint2D
}

func openTestStream(t *testing.T, g *graph.DODGr[serialize.Unit, uint64], mode Mode, plan *Plan[uint64]) (*Stream[serialize.Unit, uint64], *streamOutputs) {
	t.Helper()
	out := &streamOutputs{}
	s, err := OpenStream(g, StreamOptions[uint64]{Survey: Options{Mode: mode}, MergeEdgeMeta: minMerge}, plan,
		CountAnalysis[serialize.Unit, uint64]().Bind(&out.count),
		VertexCountAnalysis[serialize.Unit, uint64]().Bind(&out.verts),
		ClosureTimeAnalysis[serialize.Unit]().Bind(&out.joint),
	)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	return s, out
}

// checkEquiv snapshots the stream and compares every analysis against a
// from-scratch fused Run on the equivalent snapshot.
func checkEquiv(t *testing.T, label string, w *ygm.World, s *Stream[serialize.Unit, uint64], out *streamOutputs, live map[livePair]uint64, ord graph.Ordering, mode Mode, plan *Plan[uint64]) {
	t.Helper()
	s.Snapshot()
	fresh := buildLive(w, live, ord)
	var f streamOutputs
	res, err := Run(fresh, Options{Mode: mode}, plan,
		CountAnalysis[serialize.Unit, uint64]().Bind(&f.count),
		VertexCountAnalysis[serialize.Unit, uint64]().Bind(&f.verts),
		ClosureTimeAnalysis[serialize.Unit]().Bind(&f.joint),
	)
	if err != nil {
		t.Fatalf("%s: fresh run: %v", label, err)
	}
	if s.Triangles() != res.Triangles {
		t.Errorf("%s: stream net count %d != fresh %d", label, s.Triangles(), res.Triangles)
	}
	if out.count != f.count {
		t.Errorf("%s: count analysis %d != fresh %d", label, out.count, f.count)
	}
	if !reflect.DeepEqual(out.verts, f.verts) {
		t.Errorf("%s: vertexcounts diverge:\n stream %v\n fresh  %v", label, out.verts, f.verts)
	}
	if !reflect.DeepEqual(out.joint, f.joint) {
		t.Errorf("%s: closure grids diverge (stream total %d, fresh %d)", label, out.joint.Total(), f.joint.Total())
	}
}

// TestStreamEquivalenceProperty drives randomized scenarios: a seeded
// stream, batches with new vertices, whole triangles, duplicates, and
// interleaved expiries, verified after every operation. Timestamps are a
// deterministic function of the endpoint pair, so duplicate insertions
// never revise metadata and the incremental path stays exercised (the
// rebuild paths have dedicated tests below).
func TestStreamEquivalenceProperty(t *testing.T) {
	const horizon = 1 << 12
	tf := func(p livePair) uint64 { return (graph.Mix64(p.lo*2654435761 + p.hi)) % horizon }
	for _, mode := range []Mode{PushOnly, PushPull} {
		for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
			for _, planned := range []bool{false, true} {
				plan := TemporalPlan()
				if planned {
					plan.CloseWithin(horizon / 4)
				}
				label := fmt.Sprintf("%v/%v/planned=%v", mode, ord, planned)
				rng := rand.New(rand.NewSource(int64(7 + len(label))))
				nv := uint64(24)
				edge := func() graph.Edge[uint64] {
					u, v := rng.Uint64()%nv, rng.Uint64()%nv
					p := canonPair(u, v)
					return graph.Edge[uint64]{U: u, V: v, Meta: tf(p)}
				}

				w := ygm.MustWorld(3, ygm.Options{})
				live := map[livePair]uint64{}

				// Seed graph: an initial edge set.
				var seedBatch []graph.Edge[uint64]
				for i := 0; i < 60; i++ {
					seedBatch = append(seedBatch, edge())
				}
				applyLive(live, seedBatch)
				seedG := buildLive(w, live, ord)
				s, out := openTestStream(t, seedG, mode, plan)
				checkEquiv(t, label+"/seed", w, s, out, live, ord, mode, plan)

				cutoffs := []uint64{horizon / 5, horizon / 2}
				for batchNo := 0; batchNo < 4; batchNo++ {
					var batch []graph.Edge[uint64]
					for i := 0; i < 30; i++ {
						batch = append(batch, edge())
					}
					// Duplicates of already-live edges (same deterministic
					// timestamp: merge keeps the stored value).
					for k := range live {
						batch = append(batch, graph.Edge[uint64]{U: k.lo, V: k.hi, Meta: tf(k)})
						if len(batch) > 34 {
							break
						}
					}
					// A guaranteed whole triangle among fresh vertices, all
					// three edges in one batch.
					base := nv + uint64(batchNo)*3 + 100
					for _, pr := range [][2]uint64{{base, base + 1}, {base + 1, base + 2}, {base, base + 2}} {
						p := canonPair(pr[0], pr[1])
						batch = append(batch, graph.Edge[uint64]{U: pr[0], V: pr[1], Meta: tf(p)})
					}
					res, err := s.Ingest(batch)
					if err != nil {
						t.Fatalf("%s: batch %d: %v", label, batchNo, err)
					}
					if !res.Delta || res.Rebuilt {
						t.Fatalf("%s: batch %d: want incremental delta result, got Delta=%v Rebuilt=%v", label, batchNo, res.Delta, res.Rebuilt)
					}
					applyLive(live, batch)
					checkEquiv(t, fmt.Sprintf("%s/batch%d", label, batchNo), w, s, out, live, ord, mode, plan)

					if batchNo < len(cutoffs) {
						cut := cutoffs[batchNo]
						ares, err := s.Advance(cut)
						if err != nil {
							t.Fatalf("%s: advance %d: %v", label, cut, err)
						}
						if ares.Rebuilt {
							t.Fatalf("%s: advance %d: invertible analyses must not rebuild", label, cut)
						}
						for k, tm := range live {
							if tm < cut {
								delete(live, k)
							}
						}
						checkEquiv(t, fmt.Sprintf("%s/advance%d", label, cut), w, s, out, live, ord, mode, plan)
					}
				}
				w.Close()
			}
		}
	}
}

// TestStreamMetaRevisionRebuilds: an out-of-order duplicate under a
// min-merge revises stored metadata, which must force an epoch rebuild —
// and the rebuilt analyses must still match a fresh run.
func TestStreamMetaRevisionRebuilds(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	plan := TemporalPlan()
	live := map[livePair]uint64{}
	seedG := buildLive(w, live, graph.OrderDegree)
	s, out := openTestStream(t, seedG, PushPull, plan)

	b1 := []graph.Edge[uint64]{{U: 1, V: 2, Meta: 100}, {U: 2, V: 3, Meta: 120}, {U: 1, V: 3, Meta: 140}}
	if res, err := s.Ingest(b1); err != nil || res.Rebuilt {
		t.Fatalf("batch 1: res=%+v err=%v", res, err)
	}
	applyLive(live, b1)
	checkEquiv(t, "pre-revision", w, s, out, live, graph.OrderDegree, PushPull, plan)

	// Late arrival with an *earlier* timestamp: min-merge revises the edge.
	b2 := []graph.Edge[uint64]{{U: 2, V: 1, Meta: 40}, {U: 4, V: 1, Meta: 90}}
	res, err := s.Ingest(b2)
	if err != nil {
		t.Fatalf("batch 2: %v", err)
	}
	if !res.Rebuilt {
		t.Fatal("metadata revision must force an epoch rebuild")
	}
	applyLive(live, b2)
	checkEquiv(t, "post-revision", w, s, out, live, graph.OrderDegree, PushPull, plan)
	if s.Stats().Rebuilds != 1 {
		t.Errorf("rebuilds = %d", s.Stats().Rebuilds)
	}
}

// TestStreamNonInvertibleAdvanceRebuilds: an analysis without Unobserve
// forces Advance onto the epoch-rebuild path, which must still match a
// fresh run on the shrunken window.
func TestStreamNonInvertibleAdvanceRebuilds(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	plan := TemporalPlan()
	live := map[livePair]uint64{}
	seedG := buildLive(w, live, graph.OrderDegree)

	var count uint64
	noInverse := CountAnalysis[serialize.Unit, uint64]()
	noInverse.Unobserve = nil
	s, err := OpenStream(seedG, StreamOptions[uint64]{MergeEdgeMeta: minMerge}, plan, noInverse.Bind(&count))
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	batch := []graph.Edge[uint64]{
		{U: 1, V: 2, Meta: 10}, {U: 2, V: 3, Meta: 20}, {U: 1, V: 3, Meta: 30},
		{U: 3, V: 4, Meta: 90}, {U: 4, V: 5, Meta: 95}, {U: 3, V: 5, Meta: 99},
	}
	if res, err := s.Ingest(batch); err != nil || res.Rebuilt {
		t.Fatalf("ingest: res=%+v err=%v", res, err) // inserts never need the inverse
	}
	applyLive(live, batch)
	res, err := s.Advance(50)
	if err != nil {
		t.Fatalf("advance: %v", err)
	}
	if !res.Rebuilt {
		t.Fatal("non-invertible analysis must rebuild on expiry")
	}
	if res.DeltaEdges != 3 {
		t.Errorf("retired edges = %d, want 3", res.DeltaEdges)
	}
	s.Snapshot()
	if count != 1 || s.Triangles() != 1 {
		t.Errorf("after expiry: count=%d net=%d, want 1", count, s.Triangles())
	}
}

// TestStreamAdvanceNeedsTimestamps: without a Timestamps accessor there is
// nothing to expire by.
func TestStreamAdvanceNeedsTimestamps(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	seedG := buildLive(w, map[livePair]uint64{}, graph.OrderDegree)
	s, err := OpenStream(seedG, StreamOptions[uint64]{}, nil)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := s.Advance(10); err != ErrStreamNoTimestamps {
		t.Fatalf("Advance without timestamps: err = %v", err)
	}
	// With timestamps, the watermark must be monotone.
	s2, err := OpenStream(seedG, StreamOptions[uint64]{}, TemporalPlan())
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if _, err := s2.Advance(10); err != nil {
		t.Fatalf("first advance: %v", err)
	}
	if _, err := s2.Advance(5); err == nil {
		t.Fatal("backwards cutoff must be rejected")
	}
}

// TestStreamVertexMetadataPlumbing: triangles identified incrementally
// must carry the same vertex metadata a full traversal presents — the
// TMeta inlining through route/complete/finish and the seed path.
func TestStreamVertexMetadataPlumbing(t *testing.T) {
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	// Seed graph with vertex metadata v*3+1 and one triangle {0,1,2}.
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{})
	var g *graph.DODGr[uint64, uint64]
	w.Parallel(func(r *ygm.Rank) {
		if r.ID() == 0 {
			b.AddEdge(r, 0, 1, 5)
			b.AddEdge(r, 1, 2, 6)
			b.AddEdge(r, 0, 2, 7)
		}
		for v := uint64(0); v < 3; v++ {
			if v%uint64(r.Size()) == uint64(r.ID()) {
				b.SetVertexMeta(r, v, v*3+1)
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	sum := Analysis[uint64, uint64, uint64]{
		Name: "vmsum",
		Observe: func(_ *ygm.Rank, acc uint64, tr *Triangle[uint64, uint64]) uint64 {
			if tr.P >= tr.Q || tr.Q >= tr.R {
				t.Errorf("stream triangle not id-ordered: (%d,%d,%d)", tr.P, tr.Q, tr.R)
			}
			// Seeded vertices (0..2) carry v*3+1; stream-born vertices
			// carry the zero value.
			for _, vm := range [][2]uint64{{tr.P, tr.MetaP}, {tr.Q, tr.MetaQ}, {tr.R, tr.MetaR}} {
				want := uint64(0)
				if vm[0] < 3 {
					want = vm[0]*3 + 1
				}
				if vm[1] != want {
					t.Errorf("vertex metadata mismatch on Δ(%d,%d,%d): meta(%d) = %d, want %d",
						tr.P, tr.Q, tr.R, vm[0], vm[1], want)
				}
			}
			return acc + tr.MetaP + tr.MetaQ + tr.MetaR
		},
		Unobserve: func(_ *ygm.Rank, acc uint64, tr *Triangle[uint64, uint64]) uint64 {
			return acc - (tr.MetaP + tr.MetaQ + tr.MetaR)
		},
		Merge: func(a, b uint64) uint64 { return a + b },
	}
	var got uint64
	s, err := OpenStream(g, StreamOptions[uint64]{}, nil, sum.Bind(&got))
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	// New vertices 3 and 4 arrive with zero metadata; the triangle {1,2,3}
	// mixes seeded and fresh vertices.
	if _, err := s.Ingest([]graph.Edge[uint64]{{U: 1, V: 3, Meta: 8}, {U: 2, V: 3, Meta: 9}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	s.Snapshot()
	// Seed Δ{0,1,2}: metas 1+4+7 = 12. New Δ{1,2,3}: 4+7+0 = 11.
	if got != 23 {
		t.Errorf("metadata sum = %d, want 23", got)
	}
}

// TestStreamPushdownPrunes: a δ-window plan must prune delta candidates
// before they are encoded, and the planned stream must agree with the
// planned fresh run (covered by the property test; here we assert the
// counters actually move).
func TestStreamPushdownPrunes(t *testing.T) {
	const horizon = 1 << 10
	tf := func(p livePair) uint64 { return (graph.Mix64(p.lo*31 + p.hi)) % horizon }
	rng := rand.New(rand.NewSource(5))
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	plan := TemporalPlan().CloseWithin(horizon / 16)
	live := map[livePair]uint64{}
	seedG := buildLive(w, live, graph.OrderDegree)
	s, _ := openTestStream(t, seedG, PushOnly, plan)
	var batch []graph.Edge[uint64]
	for i := 0; i < 400; i++ {
		u, v := rng.Uint64()%40, rng.Uint64()%40
		p := canonPair(u, v)
		batch = append(batch, graph.Edge[uint64]{U: u, V: v, Meta: tf(p)})
	}
	res, err := s.Ingest(batch)
	if err != nil {
		t.Fatalf("ingest: %v", err)
	}
	if !res.Planned {
		t.Fatal("planned stream result not marked Planned")
	}
	if res.PrunedBatches == 0 && res.PrunedCandidates == 0 {
		t.Errorf("δ-window pruned nothing: %+v", res)
	}
}
