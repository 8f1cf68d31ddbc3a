package truss

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"tripoll/internal/analysis"
	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// The maintenance equivalence property: after every Ingest/Advance — seed
// events, whole-triangle batches, duplicates, timestamp-revising merges
// (epoch rebuild fallback) and window expiries — the maintained index's
// ServeQuery answer is byte-identical to a from-scratch decomposition of
// the equivalent live edge set, for every probed window and span set.

func applyLiveRecs(live map[analysis.Edge]uint64, batch []graph.Edge[uint64]) {
	for _, e := range batch {
		if e.U == e.V {
			continue
		}
		k := analysis.Canon(e.U, e.V)
		if old, ok := live[k]; ok {
			live[k] = minMerge(old, e.Meta)
		} else {
			live[k] = e.Meta
		}
	}
}

// checkIndex probes the index across windows and span sets against the
// serial reference over the tracked live set.
func checkIndex(t *testing.T, label string, ix *Index[serialize.Unit], live map[analysis.Edge]uint64, horizon uint64) {
	t.Helper()
	windows := []struct {
		from, until *uint64
		wn          Window
	}{
		{nil, nil, WholeWindow()},
		{ptr(uint64(0)), ptr(horizon / 2), Window{From: 0, Until: horizon / 2}},
		{ptr(horizon / 4), nil, Window{From: horizon / 4, Until: ^uint64(0)}},
	}
	for wi, probe := range windows {
		got, handled, err := ix.ServeQuery("trussness", nil, probe.from, probe.until, nil)
		if err != nil || !handled {
			t.Fatalf("%s: window %d: ServeQuery: handled=%v err=%v", label, wi, handled, err)
		}
		want := buildDecomp(serialDecomp(live, probe.wn))
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("%s: window %d: index diverges from rebuild\n got  %s\n want %s", label, wi, g, w)
		}
	}
	spans := []Window{{From: 0, Until: horizon / 3}, {From: horizon / 5, Until: horizon}}
	args, _ := json.Marshal(SpanTrussArgs{K: 3, Spans: spans})
	got, handled, err := ix.ServeQuery("spantruss", args, nil, nil, nil)
	if err != nil || !handled {
		t.Fatalf("%s: spantruss: handled=%v err=%v", label, handled, err)
	}
	want := SpanResult{K: 3, Spans: make([]SpanTruss, len(spans))}
	for i, sp := range spans {
		want.Spans[i] = buildSpanTruss(3, sp, serialDecomp(live, sp))
	}
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Errorf("%s: spantruss diverges from rebuild\n got  %s\n want %s", label, g, w)
	}
}

func ptr(v uint64) *uint64 { return &v }

func TestIndexEquivalenceProperty(t *testing.T) {
	const horizon = 1 << 10
	for _, mode := range []core.Mode{core.PushOnly, core.PushPull} {
		label := fmt.Sprintf("%v", mode)
		rng := rand.New(rand.NewSource(23))
		nv := uint64(32)
		edge := func() graph.Edge[uint64] {
			u, v := rng.Uint64()%nv, rng.Uint64()%nv
			return graph.Edge[uint64]{U: u, V: v, Meta: rng.Uint64() % horizon}
		}

		w := ygm.MustWorld(3, ygm.Options{})
		live := map[analysis.Edge]uint64{}

		var seed []graph.Edge[uint64]
		for i := 0; i < 80; i++ {
			seed = append(seed, edge())
		}
		applyLiveRecs(live, seed)
		var recs []edgeRec
		for e, ts := range live {
			recs = append(recs, edgeRec{e.U, e.V, ts})
		}
		g := buildGraph(w, recs, graph.OrderDegree)

		ix := NewIndex[serialize.Unit](IndexOptions{MergeTimestamp: minMerge})
		s, err := core.OpenStreamSinks(g, core.StreamOptions[uint64]{Survey: core.Options{Mode: mode}, MergeEdgeMeta: minMerge},
			core.TemporalPlan(), []core.StreamSink[serialize.Unit, uint64]{ix})
		if err != nil {
			t.Fatalf("%s: OpenStreamSinks: %v", label, err)
		}
		if ix.IndexEpoch() == 0 {
			t.Fatalf("%s: seed commit must bump the index epoch", label)
		}
		checkIndex(t, label+"/seed", ix, live, horizon)

		cutoffs := []uint64{horizon / 6, horizon / 3}
		for batchNo := 0; batchNo < 4; batchNo++ {
			var batch []graph.Edge[uint64]
			for i := 0; i < 40; i++ {
				batch = append(batch, edge())
			}
			// Whole triangle among fresh vertices, all three edges at once.
			base := nv + uint64(batchNo)*3 + 200
			for _, pr := range [][2]uint64{{base, base + 1}, {base + 1, base + 2}, {base, base + 2}} {
				batch = append(batch, graph.Edge[uint64]{U: pr[0], V: pr[1], Meta: uint64(batchNo+1) * 97 % horizon})
			}
			if _, err := s.Ingest(batch); err != nil {
				t.Fatalf("%s: batch %d: %v", label, batchNo, err)
			}
			applyLiveRecs(live, batch)
			checkIndex(t, fmt.Sprintf("%s/batch%d", label, batchNo), ix, live, horizon)

			if batchNo < len(cutoffs) {
				cut := cutoffs[batchNo]
				if _, err := s.Advance(cut); err != nil {
					t.Fatalf("%s: advance %d: %v", label, cut, err)
				}
				for k, tm := range live {
					if tm < cut {
						delete(live, k)
					}
				}
				checkIndex(t, fmt.Sprintf("%s/advance%d", label, cut), ix, live, horizon)
			}
		}

		// Timestamp-revising duplicate: pick a live edge and re-insert it
		// earlier. The revising merge forces an epoch rebuild, which resets
		// support and re-delivers every live triangle — the index must come
		// out identical to a from-scratch decomposition again.
		var revised bool
		for e, ts := range live {
			if ts == 0 {
				continue
			}
			batch := []graph.Edge[uint64]{{U: e.U, V: e.V, Meta: ts - 1}}
			res, err := s.Ingest(batch)
			if err != nil {
				t.Fatalf("%s: revising ingest: %v", label, err)
			}
			if !res.Rebuilt {
				t.Fatalf("%s: revising merge must force an epoch rebuild", label)
			}
			applyLiveRecs(live, batch)
			revised = true
			break
		}
		if !revised {
			t.Fatalf("%s: no revisable live edge", label)
		}
		checkIndex(t, label+"/rebuild", ix, live, horizon)

		w.Close()
	}
}

// TestIndexMemoInvalidation pins the memo discipline: a repeat query is
// served from cache (no recompute), a mutation overlapping the cached
// window invalidates it, and one outside leaves it valid.
func TestIndexMemoInvalidation(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	live := map[analysis.Edge]uint64{}
	seed := []graph.Edge[uint64]{
		{U: 1, V: 2, Meta: 10}, {U: 2, V: 3, Meta: 20}, {U: 1, V: 3, Meta: 30},
		{U: 3, V: 4, Meta: 500}, {U: 4, V: 5, Meta: 510}, {U: 3, V: 5, Meta: 520},
	}
	applyLiveRecs(live, seed)
	var recs []edgeRec
	for e, ts := range live {
		recs = append(recs, edgeRec{e.U, e.V, ts})
	}
	g := buildGraph(w, recs, graph.OrderDegree)
	ix := NewIndex[serialize.Unit](IndexOptions{MergeTimestamp: minMerge})
	s, err := core.OpenStreamSinks(g, core.StreamOptions[uint64]{MergeEdgeMeta: minMerge},
		core.TemporalPlan(), []core.StreamSink[serialize.Unit, uint64]{ix})
	if err != nil {
		t.Fatalf("OpenStreamSinks: %v", err)
	}

	query := func() {
		t.Helper()
		if _, handled, err := ix.ServeQuery("trussness", nil, ptr(uint64(0)), ptr(uint64(100)), nil); !handled || err != nil {
			t.Fatalf("ServeQuery: handled=%v err=%v", handled, err)
		}
	}
	query()
	st := ix.Stats()
	if st.Served != 1 || st.Recomputed != 1 {
		t.Fatalf("first query: served=%d recomputed=%d, want 1/1", st.Served, st.Recomputed)
	}
	query()
	if st = ix.Stats(); st.Served != 2 || st.Recomputed != 1 {
		t.Fatalf("repeat query must hit the memo: served=%d recomputed=%d", st.Served, st.Recomputed)
	}

	// A mutation far outside the cached window [0, 100] leaves it valid.
	if _, err := s.Ingest([]graph.Edge[uint64]{{U: 7, V: 8, Meta: 900}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	query()
	if st = ix.Stats(); st.Recomputed != 1 {
		t.Fatalf("out-of-window mutation must keep the memo: recomputed=%d", st.Recomputed)
	}

	// One inside invalidates it.
	if _, err := s.Ingest([]graph.Edge[uint64]{{U: 1, V: 4, Meta: 15}}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	query()
	if st = ix.Stats(); st.Recomputed != 2 {
		t.Fatalf("in-window mutation must invalidate the memo: recomputed=%d", st.Recomputed)
	}

	// Unknown analyses fall through to the traversal path.
	if _, handled, _ := ix.ServeQuery("count", nil, nil, nil, nil); handled {
		t.Fatal("non-truss analyses must not be index-handled")
	}
}

// memoWindow is one distinct question TestMemoDropsStaleWindows asks.
type memoWindow struct {
	name        string
	from, until uint64
}

func (m memoWindow) overlaps(lo, hi uint64) bool { return lo <= m.until && m.from <= hi }

// TestMemoDropsStaleWindows pins that the memo holds only answers that are
// still valid. Distinct windows are asked twice; then an ingest whose dirty
// range is one timestamp, an expiry, and 65 commits outside every window —
// the memo keeps an answer for at most 64 dirty commits — each drop exactly
// the entries they invalidate, at the commit that invalidates them. served
// and recomputed are what the lazy rule (validate an entry when its key is
// asked again) gave on the same script.
func TestMemoDropsStaleWindows(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	g := buildGraph(w, genEdges(31, 600, 40, 1000), graph.OrderDegree)
	ix := NewIndex[serialize.Unit](IndexOptions{MergeTimestamp: minMerge})
	s, err := core.OpenStreamSinks(g, core.StreamOptions[uint64]{MergeEdgeMeta: minMerge},
		core.TemporalPlan(), []core.StreamSink[serialize.Unit, uint64]{ix})
	if err != nil {
		t.Fatalf("OpenStreamSinks: %v", err)
	}

	classes := []string{"trussness", "maxtruss", "spantruss"}
	var wins []memoWindow
	for i, from := range []uint64{0, 100, 250, 300, 400, 500, 620, 700, 960} {
		for j, width := range []uint64{40, 200, 600} {
			wins = append(wins, memoWindow{classes[(i+j)%3], from, from + width})
		}
	}
	askAll := func() {
		t.Helper()
		for _, m := range wins {
			if _, handled, err := ix.ServeQuery(m.name, nil, ptr(m.from), ptr(m.until), nil); !handled || err != nil {
				t.Fatalf("ServeQuery %+v: handled=%v err=%v", m, handled, err)
			}
		}
	}
	// fresh inserts one edge between two new vertices at ts: a commit
	// whose dirty range is exactly [ts, ts].
	vtx := uint64(1 << 20)
	fresh := func(ts uint64) {
		t.Helper()
		if _, err := s.Ingest([]graph.Edge[uint64]{{U: vtx, V: vtx + 1, Meta: ts}}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		vtx += 2
	}
	valid := func(dirty ...[2]uint64) int {
		n := 0
	window:
		for _, m := range wins {
			for _, d := range dirty {
				if m.overlaps(d[0], d[1]) {
					continue window
				}
			}
			n++
		}
		return n
	}
	check := func(stage string, memo int, served, recomputed uint64) {
		t.Helper()
		st := ix.Stats()
		if st.MemoEntries != memo || st.Served != served || st.Recomputed != recomputed {
			t.Fatalf("%s: memo_entries=%d served=%d recomputed=%d, want %d/%d/%d",
				stage, st.MemoEntries, st.Served, st.Recomputed, memo, served, recomputed)
		}
	}
	n := uint64(len(wins))

	askAll()
	askAll()
	check("asked twice", len(wins), 2*n, n)

	fresh(950)
	check("ingest at 950", valid([2]uint64{950, 950}), 2*n, n)
	if _, err := s.Advance(300); err != nil {
		t.Fatalf("advance: %v", err)
	}
	left := valid([2]uint64{950, 950}, [2]uint64{0, 299})
	check("expiry below 300", left, 2*n, n)
	if left == 0 || left == len(wins) {
		t.Fatalf("the script must leave some windows valid and invalidate others: %d of %d", left, len(wins))
	}

	askAll()
	recomputed := 2*n - uint64(left)
	check("asked again", len(wins), 3*n, recomputed)

	// An answer ages out at the 65th dirty commit after the one it was
	// computed in: those kept through the ingest and the expiry were
	// computed two dirty commits before the rest.
	for k := 1; k <= 65; k++ {
		fresh(5000 + uint64(k))
		want := len(wins)
		if k >= 63 {
			want = len(wins) - left
		}
		if k >= 65 {
			want = 0
		}
		check(fmt.Sprintf("%d commits outside every window", k), want, 3*n, recomputed)
	}

	askAll()
	check("asked after aging out", len(wins), 4*n, recomputed+n)
	// The values the lazy rule gave on this script.
	if st := ix.Stats(); st.Served != 108 || st.Recomputed != 67 {
		t.Fatalf("served=%d recomputed=%d, the lazy rule gave 108/67", st.Served, st.Recomputed)
	}
}
