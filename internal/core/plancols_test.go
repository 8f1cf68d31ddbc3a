package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// TestPlanEvalBudget counts what a planned survey asks of the plan: calls of
// the Timestamps accessor and of a WhereEdge predicate. The plan columns
// evaluate both once per local adjacency entry (|E⁺| over all ranks), and
// after that only the match-time residual (Plan.MatchEdges, at most six
// accessor and three predicate calls per wedge check that finds its
// candidate) touches them — so a Run stays within |E⁺| + 6·WedgeChecks
// whatever |W⁺| is, and a second Run of the same Survey pays only the
// match-time part. The exact figures for the seeded graph (|E⁺| 4 157, |W⁺|
// 16 570 / 16 539, 896 / 895 wedge checks) are pinned; before the columns
// (ISSUE 22's parent) the same plan read 26 333…31 599 accessor and
// 19 939…27 715 predicate calls on every Run — a call or two per wedge.
func TestPlanEvalBudget(t *testing.T) {
	events := redditEvents(800, 40_000, 7)
	span := events[len(events)-1].Time - events[0].Time
	type key struct {
		mode   Mode
		ord    graph.Ordering
		nranks int
	}
	// {accessor, predicate} calls of the first Run and of the second, which
	// is the first less the column build (every entry's predicate call, and
	// an accessor call for the entries the predicate keeps). Push-pull replies
	// omit entries the predicate rules out, so fewer matches reach the
	// residual there, and how many depends on the grants, hence on the ranks.
	want := map[key][2][2]int64{
		{PushOnly, graph.OrderDegree, 1}:     {{5757, 6731}, {2217, 2574}},
		{PushPull, graph.OrderDegree, 1}:     {{5757, 6383}, {2217, 2226}},
		{PushOnly, graph.OrderDegree, 4}:     {{5757, 6731}, {2217, 2574}},
		{PushPull, graph.OrderDegree, 4}:     {{5757, 6392}, {2217, 2235}},
		{PushOnly, graph.OrderDegeneracy, 1}: {{5769, 6731}, {2229, 2574}},
		{PushPull, graph.OrderDegeneracy, 1}: {{5769, 6395}, {2229, 2238}},
		{PushOnly, graph.OrderDegeneracy, 4}: {{5769, 6731}, {2229, 2574}},
		{PushPull, graph.OrderDegeneracy, 4}: {{5769, 6410}, {2229, 2253}},
	}
	for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
		for _, nranks := range []int{1, 4} {
			w := ygm.MustWorld(nranks, ygm.Options{})
			g := buildReddit(t, w, events, ord)
			for _, mode := range []Mode{PushOnly, PushPull} {
				var accessor, predicate atomic.Int64
				plan := NewPlan[uint64]().
					Timestamps(func(em uint64) uint64 { accessor.Add(1); return em }).
					WhereEdge(func(em uint64) bool { predicate.Add(1); return em%7 != 0 }).
					CloseWithin(span / 40)
				s, err := NewPlannedSurvey[serialize.Unit, uint64](g, Options{Mode: mode}, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%v/%v/ranks=%d", mode, ord, nranks)
				var got [2][2]int64
				for run := range got {
					accessor.Store(0)
					predicate.Store(0)
					res := s.Run()
					acc, pred := accessor.Load(), predicate.Load()
					got[run] = [2]int64{acc, pred}
					checks := int64(res.WedgeChecks)
					budget := int64(g.NumUndirectedEdges()) + 6*checks
					if acc > budget || pred > budget {
						t.Errorf("%s run %d: accessor %d, predicate %d calls; budget |E+| + 6·WedgeChecks = %d (|W+| %d)",
							name, run, acc, pred, budget, g.NumWedges())
					}
					// Columns are reused: what is left is the match-time
					// residual, at most 6 (3) calls per wedge check.
					if run == 1 && (acc > 6*checks || pred > 3*checks) {
						t.Errorf("%s second run: accessor %d, predicate %d calls for %d wedge checks — columns rebuilt?",
							name, acc, pred, checks)
					}
				}
				s.Close()
				if got != want[key{mode, ord, nranks}] {
					t.Errorf("%s: {accessor, predicate} calls per run %v, pinned %v", name, got, want[key{mode, ord, nranks}])
				}
			}
			w.Close()
		}
	}
}

// BenchmarkPlannedSurvey times δ-planned counts on the benchmark's graph
// shape (bench/script.go: RedditLike, one user per 8 events, 4 ranks; 1 M
// events, 100 k under -short) at three points of the log-uniform δ range the
// survey-cold workload draws from (1/500 000 to 1/6 of the time axis, as
// bench/script.go's deltaOf), and reports the phases separately: narrow δ is
// the case where nearly every wedge is fully pruned and the dry run's
// survival scan is all there is.
func BenchmarkPlannedSurvey(b *testing.B) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	events := redditEvents(uint64(n/8), n, 7)
	span := float64(events[len(events)-1].Time - events[0].Time)
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	g := buildReddit(b, w, events, graph.OrderDegree)
	ms := func(d time.Duration, n int) float64 { return d.Seconds() * 1e3 / float64(n) }
	for _, dc := range []struct {
		name string
		frac float64
	}{{"narrow", 0.1}, {"mid", 0.5}, {"wide", 0.9}} {
		lo, hi := span/500_000, span/6
		delta := uint64(lo * math.Pow(hi/lo, dc.frac))
		for _, mode := range []Mode{PushPull, PushOnly} {
			b.Run(dc.name+"/"+mode.String(), func(b *testing.B) {
				var dry, push, pull time.Duration
				var res Result
				for i := 0; i < b.N; i++ {
					var err error
					res, err = Run(g, Options{Mode: mode}, TemporalPlan().CloseWithin(delta))
					if err != nil {
						b.Fatal(err)
					}
					dry += res.DryRun.Duration
					push += res.Push.Duration
					pull += res.Pull.Duration
				}
				b.ReportMetric(ms(dry, b.N), "dryrun-ms")
				b.ReportMetric(ms(push, b.N), "push-ms")
				b.ReportMetric(ms(pull, b.N), "pull-ms")
				b.ReportMetric(float64(res.Triangles), "triangles")
				b.ReportMetric(float64(totalMsgs(res)), "msgs")
			})
		}
	}
}

// TestImpureWhereEdgeKeepsFramesConsistent: a WhereEdge predicate that
// answers differently on every call breaks the purity contract, and which
// triangles it selects is unspecified — but it must not be able to make a
// message's header count disagree with its payload, which would send onPush
// or onPull decoding into the next entry's bytes. The predicate is recorded
// once per adjacency entry and every frame is written from that record, so
// the run must not panic, every triangle delivered must be a real triangle
// of the graph carrying the graph's own metadata, none twice, and
// Result.Triangles must equal the callbacks made.
func TestImpureWhereEdgeKeepsFramesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nv := 60
	edges := make([][2]uint64, 900)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	const nranks = 4
	w := ygm.MustWorld(nranks, ygm.Options{})
	defer w.Close()
	g := buildWithTimes(t, w, edges, hashTime)
	all, _ := collect(NewSurvey(g, Options{}, nil), nranks, nil)
	real := make(map[triRec]bool, len(all))
	for _, tr := range all {
		real[tr] = true
	}
	for _, mode := range []Mode{PushOnly, PushPull} {
		var calls atomic.Int64
		plan := TemporalPlan().
			WhereEdge(func(uint64) bool { return calls.Add(1)%2 == 0 }).
			CloseWithin(600)
		s, err := NewPlannedSurvey(g, Options{Mode: mode}, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			got, res := collect(s, nranks, nil)
			if res.Triangles != uint64(len(got)) {
				t.Errorf("%v run %d: Result.Triangles %d, %d callbacks", mode, run, res.Triangles, len(got))
			}
			seen := make(map[triRec]bool, len(got))
			for _, tr := range got {
				if !real[tr] {
					t.Fatalf("%v run %d: delivered %+v, which the unplanned survey does not enumerate", mode, run, tr)
				}
				if seen[tr] {
					t.Fatalf("%v run %d: %+v delivered twice", mode, run, tr)
				}
				seen[tr] = true
			}
			if res.PrunedCandidates == 0 || res.WedgeChecks == 0 {
				t.Errorf("%v run %d: the flipping predicate neither pruned nor passed anything: %+v", mode, run, res)
			}
		}
		s.Close()
	}
}
