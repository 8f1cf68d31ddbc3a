package core

import (
	"math/rand"
	"sort"
	"testing"

	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// The pushdown equivalence property: a planned survey produces exactly the
// triangles (with exactly the metadata) of an unplanned survey post-
// filtered through Plan.MatchEdges — across ordering strategies, both
// transports and both algorithms — while never sending more than the
// unplanned survey does.

// buildWithTimes constructs a DODGr whose edge metadata is a timestamp
// computed by tf from the canonical (lo, hi) endpoints — deterministic, so
// identical across orderings, transports and rank counts — and vertex
// metadata v*3+1.
func buildWithTimes(t testing.TB, w *ygm.World, edges [][2]uint64, tf func(lo, hi uint64) uint64) *graph.DODGr[uint64, uint64] {
	t.Helper()
	return buildWithTimesOrdered(t, w, edges, tf, graph.OrderDegree)
}

func buildWithTimesOrdered(t testing.TB, w *ygm.World, edges [][2]uint64, tf func(lo, hi uint64) uint64, ord graph.Ordering) *graph.DODGr[uint64, uint64] {
	t.Helper()
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.Uint64Codec(),
		graph.BuilderOptions[uint64]{Ordering: ord})
	var g *graph.DODGr[uint64, uint64]
	w.Parallel(func(r *ygm.Rank) {
		vset := map[uint64]bool{}
		for i, e := range edges {
			vset[e[0]] = true
			vset[e[1]] = true
			if i%r.Size() != r.ID() {
				continue
			}
			lo, hi := e[0], e[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			b.AddEdge(r, e[0], e[1], tf(lo, hi))
		}
		for v := range vset {
			if v%uint64(r.Size()) == uint64(r.ID()) {
				b.SetVertexMeta(r, v, v*3+1)
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return g
}

// hashTime spreads timestamps pseudo-randomly but deterministically over
// [0, 1000).
func hashTime(lo, hi uint64) uint64 {
	x := lo*0x9E3779B97F4A7C15 + hi*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x % 1000
}

// triRec is one enumerated triangle with its full metadata.
type triRec struct {
	p, q, r       uint64
	mp, mq, mr    uint64
	mpq, mpr, mqr uint64
}

func sortTris(ts []triRec) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.p != b.p {
			return a.p < b.p
		}
		if a.q != b.q {
			return a.q < b.q
		}
		return a.r < b.r
	})
}

func collect(s *Survey[uint64, uint64], nranks int, keep func(*Triangle[uint64, uint64]) bool) ([]triRec, Result) {
	perRank := make([][]triRec, nranks)
	s.cb = func(r *ygm.Rank, t *Triangle[uint64, uint64]) {
		if keep != nil && !keep(t) {
			return
		}
		perRank[r.ID()] = append(perRank[r.ID()], triRec{
			p: t.P, q: t.Q, r: t.R,
			mp: t.MetaP, mq: t.MetaQ, mr: t.MetaR,
			mpq: t.MetaPQ, mpr: t.MetaPR, mqr: t.MetaQR,
		})
	}
	res := s.Run()
	var out []triRec
	for _, rs := range perRank {
		out = append(out, rs...)
	}
	sortTris(out)
	return out, res
}

func totalMsgs(res Result) int64 {
	return res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
}

func totalBytes(res Result) int64 {
	return res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
}

func TestPushdownEquivalentToPostFilter(t *testing.T) {
	plans := []struct {
		name string
		mk   func() *Plan[uint64]
	}{
		{"delta", func() *Plan[uint64] { return TemporalPlan().CloseWithin(120) }},
		{"window", func() *Plan[uint64] { return TemporalPlan().Window(200, 800) }},
		{"delta+window", func() *Plan[uint64] { return TemporalPlan().CloseWithin(250).Window(100, 900) }},
		{"from-open", func() *Plan[uint64] { return TemporalPlan().From(500) }},
		{"edgepred", func() *Plan[uint64] {
			return NewPlan[uint64]().WhereEdge(func(em uint64) bool { return em%3 != 0 })
		}},
		{"edgepred+delta", func() *Plan[uint64] {
			return TemporalPlan().WhereEdge(func(em uint64) bool { return em%2 == 0 }).CloseWithin(300)
		}},
		{"empty-window", func() *Plan[uint64] { return TemporalPlan().Window(900, 100) }},
		{"delta-zero", func() *Plan[uint64] { return TemporalPlan().CloseWithin(0) }},
	}
	type combo struct {
		ord       graph.Ordering
		transport ygm.TransportKind
	}
	combos := []combo{
		{graph.OrderDegree, ygm.TransportChannel},
		{graph.OrderDegeneracy, ygm.TransportChannel},
		{graph.OrderDegree, ygm.TransportTCP},
		{graph.OrderDegeneracy, ygm.TransportTCP},
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 3; trial++ {
		nv := 20 + rng.Intn(40)
		ne := 100 + rng.Intn(300)
		edges := make([][2]uint64, ne)
		for i := range edges {
			edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
		}
		nranks := 2 + rng.Intn(3)
		for ci, c := range combos {
			if c.transport == ygm.TransportTCP && trial != 0 {
				continue // TCP is slow; one trial covers the transport axis
			}
			w := ygm.MustWorld(nranks, ygm.Options{Transport: c.transport})
			g := buildWithTimesOrdered(t, w, edges, hashTime, c.ord)
			for _, mode := range []Mode{PushOnly, PushPull} {
				for _, pc := range plans {
					plan := pc.mk()
					base := NewSurvey(g, Options{Mode: mode}, nil)
					want, baseRes := collect(base, nranks, func(tr *Triangle[uint64, uint64]) bool {
						return plan.MatchEdges(tr.MetaPQ, tr.MetaPR, tr.MetaQR)
					})
					planned, err := NewPlannedSurvey(g, Options{Mode: mode}, plan, nil)
					if err != nil {
						t.Fatalf("plan %s: %v", pc.name, err)
					}
					got, gotRes := collect(planned, nranks, nil)
					name := func() string {
						return "trial " + string(rune('0'+trial)) + " combo " + string(rune('0'+ci)) +
							" " + mode.String() + " plan " + pc.name
					}
					if len(got) != len(want) {
						t.Fatalf("%s: %d triangles, post-filter wants %d", name(), len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: triangle %d = %+v, want %+v", name(), i, got[i], want[i])
						}
					}
					if gotRes.Triangles != uint64(len(want)) {
						t.Errorf("%s: Result.Triangles = %d, enumerated %d", name(), gotRes.Triangles, len(want))
					}
					if !gotRes.Planned {
						t.Errorf("%s: Planned not set", name())
					}
					// Pushdown only ever removes wedge checks and, in
					// push-only mode, messages and bytes (every planned
					// batch is a filtered subset of an unplanned one).
					if gotRes.WedgeChecks > baseRes.WedgeChecks {
						t.Errorf("%s: pushdown did MORE wedge checks: %d > %d",
							name(), gotRes.WedgeChecks, baseRes.WedgeChecks)
					}
					if mode == PushOnly {
						if totalMsgs(gotRes) > totalMsgs(baseRes) {
							t.Errorf("%s: pushdown sent MORE messages: %d > %d",
								name(), totalMsgs(gotRes), totalMsgs(baseRes))
						}
						if totalBytes(gotRes) > totalBytes(baseRes) {
							t.Errorf("%s: pushdown sent MORE bytes: %d > %d",
								name(), totalBytes(gotRes), totalBytes(baseRes))
						}
					}
				}
			}
			w.Close()
		}
	}
}

// TestWindowedClosureTimesByteIdentical: the δ-windowed closure survey's
// rendered artifact is byte-for-byte the artifact of the unplanned survey
// post-filtered in the callback, on a Reddit-like temporal stream.
func TestWindowedClosureTimesByteIdentical(t *testing.T) {
	p := gen.DefaultRedditParams()
	p.Users = 2_000
	p.Events = 12_000
	stream := gen.RedditLike(p)
	for _, mode := range []Mode{PushOnly, PushPull} {
		w := ygm.MustWorld(4, ygm.Options{})
		b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
			MergeEdgeMeta: func(a, c uint64) uint64 {
				if a < c {
					return a
				}
				return c
			},
		})
		var g *graph.DODGr[serialize.Unit, uint64]
		w.Parallel(func(r *ygm.Rank) {
			for i := r.ID(); i < len(stream); i += r.Size() {
				b.AddEdge(r, stream[i].U, stream[i].V, stream[i].Time)
			}
			gg := b.Build(r)
			if r.ID() == 0 {
				g = gg
			}
		})

		plan := TemporalPlan().CloseWithin(1 << 10)
		var joint *stats.Joint2D
		res, err := Run(g, Options{Mode: mode}, plan, ClosureTimeAnalysis[serialize.Unit]().Bind(&joint))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}

		// Post-filter baseline: the unplanned survey feeding per-rank
		// maps, keeping only MatchEdges triangles.
		per := make([]map[TimePair]uint64, w.Size())
		for i := range per {
			per[i] = map[TimePair]uint64{}
		}
		s := NewSurvey(g, Options{Mode: mode}, func(r *ygm.Rank, tr *Triangle[serialize.Unit, uint64]) {
			if !plan.MatchEdges(tr.MetaPQ, tr.MetaPR, tr.MetaQR) {
				return
			}
			t1, t2, t3 := sort3(tr.MetaPQ, tr.MetaPR, tr.MetaQR)
			per[r.ID()][TimePair{First: int64(stats.CeilLog2(t2 - t1)), Second: int64(stats.CeilLog2(t3 - t1))}]++
		})
		baseRes := s.Run()
		ref := stats.NewJoint2D()
		for _, m := range per {
			for k, c := range m {
				ref.Add(int(k.First), int(k.Second), c)
			}
		}

		gotOut := joint.Render("closure", "open", "close")
		refOut := ref.Render("closure", "open", "close")
		if gotOut != refOut {
			t.Errorf("mode %v: windowed artifact differs from post-filtered artifact:\n%s\nvs\n%s", mode, gotOut, refOut)
		}
		if res.Triangles >= baseRes.Triangles {
			t.Errorf("mode %v: window did not restrict: %d >= %d", mode, res.Triangles, baseRes.Triangles)
		}
		if totalBytes(res) >= totalBytes(baseRes) {
			t.Errorf("mode %v: pushdown moved no fewer bytes: %d >= %d", mode, totalBytes(res), totalBytes(baseRes))
		}
		w.Close()
	}
}

// TestWindowedMaxEdgeLabelEquivalence: the label-filtered variant equals
// the unplanned distribution restricted to matching triangles.
func TestWindowedMaxEdgeLabelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	nv, ne := 40, 400
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	g := buildWithTimes(t, w, edges, hashTime) // metadata doubles as a label here
	keep := func(em uint64) bool { return em%5 != 0 }
	plan := NewPlan[uint64]().WhereEdge(keep)

	var got, want map[uint64]uint64
	res, err := Run(g, Options{}, plan, MaxEdgeLabelAnalysis[uint64](true).Bind(&got))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(g, Options{}, nil, MaxEdgeLabelAnalysis[uint64](true).Bind(&want)); err != nil {
		t.Fatal(err)
	}
	// Rebuild the expectation by re-surveying with a post-filter callback.
	refCounter := map[uint64]uint64{}
	per := make([]map[uint64]uint64, 3)
	for i := range per {
		per[i] = map[uint64]uint64{}
	}
	s := NewSurvey(g, Options{}, func(r *ygm.Rank, tr *Triangle[uint64, uint64]) {
		if !plan.MatchEdges(tr.MetaPQ, tr.MetaPR, tr.MetaQR) {
			return
		}
		if tr.MetaP == tr.MetaQ || tr.MetaQ == tr.MetaR || tr.MetaP == tr.MetaR {
			return
		}
		max := tr.MetaPQ
		if tr.MetaPR > max {
			max = tr.MetaPR
		}
		if tr.MetaQR > max {
			max = tr.MetaQR
		}
		per[r.ID()][max]++
	})
	s.Run()
	for _, m := range per {
		for k, v := range m {
			refCounter[k] += v
		}
	}
	if len(got) != len(refCounter) {
		t.Fatalf("distribution sizes differ: %d vs %d (unfiltered %d)", len(got), len(refCounter), len(want))
	}
	for k, v := range refCounter {
		if got[k] != v {
			t.Errorf("label %d: %d, want %d", k, got[k], v)
		}
	}
	if res.PrunedBatches == 0 && res.PrunedCandidates == 0 {
		t.Error("label filter pruned nothing — pushdown inactive?")
	}
}
