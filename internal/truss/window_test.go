package truss

import (
	"encoding/json"
	"math/rand"
	"testing"

	"tripoll/internal/analysis"
	"tripoll/internal/core"
	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// spanSets returns, per live edge, the distinct envelopes [Lo, Hi] of the
// triangles through it: the buckets a maintained index must hold.
func spanSets(live map[analysis.Edge]uint64) map[analysis.Edge]map[[2]uint64]bool {
	adj := map[uint64][]uint64{}
	for e := range live {
		adj[e.U] = append(adj[e.U], e.V)
	}
	out := map[analysis.Edge]map[[2]uint64]bool{}
	for e, tuv := range live {
		for _, w := range adj[e.V] { // e.U < e.V < w: each triangle once
			tuw, ok1 := live[analysis.Edge{U: e.U, V: w}]
			tvw, ok2 := live[analysis.Edge{U: e.V, V: w}]
			if !ok1 || !ok2 {
				continue
			}
			sp := [2]uint64{min(tuv, tuw, tvw), max(tuv, tuw, tvw)}
			for _, k := range []analysis.Edge{e, {U: e.U, V: w}, {U: e.V, V: w}} {
				if out[k] == nil {
					out[k] = map[[2]uint64]bool{}
				}
				out[k][sp] = true
			}
		}
	}
	return out
}

// TestWindowReadWork pins what a window read of the maintained index
// visits, at zero tolerance, on a seeded store: every slot once (live
// edges plus tombstones not yet compacted — there are no support-only
// slots in an index) and, on the window's edges, the buckets with Lo inside
// the window — nothing else. Each expected figure is also derived from the
// live edge set by brute force.
func TestWindowReadWork(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	recs := genEdges(17, 700, 48, 1000)
	live := liveSet(recs)
	g := buildGraph(w, recs, graph.OrderDegree)
	ix := NewIndex[serialize.Unit](IndexOptions{MergeTimestamp: minMerge})
	s, err := core.OpenStreamSinks(g, core.StreamOptions[uint64]{MergeEdgeMeta: minMerge},
		core.TemporalPlan(), []core.StreamSink[serialize.Unit, uint64]{ix})
	if err != nil {
		t.Fatalf("OpenStreamSinks: %v", err)
	}

	type read struct {
		from, until    uint64
		delta          *uint64
		slots, buckets uint64 // pinned
	}
	phases := []struct {
		cutoff uint64 // Advance before the phase's reads; 0 = none
		reads  []read
	}{
		{0, []read{
			{from: 0, until: 999, slots: 511, buckets: 4699},
			{from: 0, until: 499, slots: 511, buckets: 2739},
			{from: 250, until: 749, slots: 511, buckets: 1128},
			{from: 500, until: 999, slots: 511, buckets: 332},
			{from: 250, until: 749, delta: ptr(60), slots: 511, buckets: 1128},
			{from: 600, until: 600, slots: 511, buckets: 0},
		}},
		// Expiry tombstones 189 of the 511 edges: no more than the 322 left
		// live, so they stay in place and every read still passes over them.
		{300, []read{
			{from: 0, until: 999, slots: 511, buckets: 1111},
			{from: 300, until: 649, slots: 511, buckets: 585},
		}},
		// Now 398 tombstones against 113 live edges: compacted away.
		{700, []read{
			{from: 0, until: 999, slots: 113, buckets: 54},
		}},
	}
	for _, ph := range phases {
		if ph.cutoff > 0 {
			if _, err := s.Advance(ph.cutoff); err != nil {
				t.Fatalf("advance %d: %v", ph.cutoff, err)
			}
			for e, ts := range live {
				if ts < ph.cutoff {
					delete(live, e)
				}
			}
		}
		spans := spanSets(live)
		for _, rd := range ph.reads {
			before := ix.Stats()
			if _, handled, err := ix.ServeQuery("trussness", nil, ptr(rd.from), ptr(rd.until), rd.delta); !handled || err != nil {
				t.Fatalf("ServeQuery: handled=%v err=%v", handled, err)
			}
			after := ix.Stats()
			got := [3]uint64{after.WindowReads - before.WindowReads, after.EdgesScanned - before.EdgesScanned, after.BucketsScanned - before.BucketsScanned}
			if want := [3]uint64{1, rd.slots, rd.buckets}; got != want {
				t.Errorf("cutoff %d window [%d, %d]: reads/slots/buckets = %v, pinned %v", ph.cutoff, rd.from, rd.until, got, want)
			}
			var buckets uint64
			for e, ts := range live {
				if ts < rd.from || ts > rd.until {
					continue
				}
				for sp := range spans[e] {
					if sp[0] >= rd.from && sp[0] <= rd.until {
						buckets++
					}
				}
			}
			if buckets != rd.buckets {
				t.Errorf("cutoff %d window [%d, %d]: brute force finds %d buckets with Lo in the window, pinned %d", ph.cutoff, rd.from, rd.until, buckets, rd.buckets)
			}
		}
	}
}

// BenchmarkIndexWindow times fresh window reads of the maintained index —
// the memo is emptied before every query — on the truss-index workload's
// store size (a RedditLike stream of 30 000 events, 5 000 under -short,
// seeded through core.OpenStreamSinks): trussness, maxtruss and spantruss
// (k = 3 over the window's two halves) over windows of 25–100 % of the time
// axis, as the workload draws them. edges/op and buckets/op are the slots
// and buckets the reads visited.
func BenchmarkIndexWindow(b *testing.B) {
	events := 30_000
	if testing.Short() {
		events = 5_000
	}
	p := gen.DefaultRedditParams()
	p.Users, p.Events, p.Seed = uint64(events/8), events, 7
	var recs []edgeRec
	for _, e := range gen.RedditLike(p) {
		recs = append(recs, edgeRec{e.U, e.V, e.Time})
	}
	lo, hi := recs[0].ts, recs[len(recs)-1].ts
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	ix := NewIndex[serialize.Unit](IndexOptions{MergeTimestamp: minMerge})
	if _, err := core.OpenStreamSinks(buildGraph(w, recs, graph.OrderDegree), core.StreamOptions[uint64]{MergeEdgeMeta: minMerge},
		core.TemporalPlan(), []core.StreamSink[serialize.Unit, uint64]{ix}); err != nil {
		b.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	type query struct {
		from, until uint64
		args        json.RawMessage
	}
	windows := make([]query, 16)
	for i := range windows {
		width := 0.25 + 0.75*(float64(i)+rng.Float64())/float64(len(windows))
		from := lo + uint64(rng.Float64()*(1-width)*float64(hi-lo))
		until := from + uint64(width*float64(hi-lo))
		mid := from + (until-from)/2
		args, _ := json.Marshal(SpanTrussArgs{K: 3, Spans: []Window{{From: from, Until: mid}, {From: mid + 1, Until: until}}})
		windows[i] = query{from, until, args}
	}
	for _, class := range []string{"trussness", "maxtruss", "spantruss"} {
		b.Run(class, func(b *testing.B) {
			before := ix.Stats()
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				q := windows[i%len(windows)]
				clear(ix.cache)
				if _, _, err := ix.ServeQuery(class, q.args, &q.from, &q.until, nil); err != nil {
					b.Fatal(err)
				}
			}
			after := ix.Stats()
			b.ReportMetric(float64(after.EdgesScanned-before.EdgesScanned)/float64(b.N), "edges/op")
			b.ReportMetric(float64(after.BucketsScanned-before.BucketsScanned)/float64(b.N), "buckets/op")
		})
	}
}
