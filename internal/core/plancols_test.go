package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// TestPlanEvalBudget counts what a planned survey asks of the plan: calls of
// the Timestamps accessor and of a WhereEdge predicate. The snapshot's
// timestamp columns call the accessor once per local adjacency entry (|E⁺|
// over all ranks) for the first survey that passes that func value, the
// survey's ok column calls each predicate once per entry, and after that
// only the match-time residual touches them: on a pushed batch,
// Plan.MatchEdges (at most six accessor and three predicate calls per wedge
// check that finds its candidate); on a pulled one, nothing — its residual
// reads the columns and the pulled entries' timestamps, which onPull takes
// with one accessor call per pulled entry under a δ. So a Run stays within
// |E⁺| + 6·WedgeChecks whatever |W⁺| is, a second Run of the same Survey
// pays only the match-time part, and so does a second Survey with the same
// accessor on the same snapshot. The exact figures for the seeded graph
// (|E⁺| 4 157, |W⁺| 16 570 / 16 539, 896 / 895 wedge checks) are pinned.
// The snapshot column calls the accessor on every entry, whatever the
// predicate answers for it. Before the plan columns (ISSUE 22's parent) the
// predicated plan read 26 333…31 599 accessor and 19 939…27 715 predicate
// calls on every Run — a call or two per wedge.
func TestPlanEvalBudget(t *testing.T) {
	events := redditEvents(800, 40_000, 7)
	span := events[len(events)-1].Time - events[0].Time
	type key struct {
		mode   Mode
		ord    graph.Ordering
		nranks int
	}
	// {accessor, predicate} calls of the first Run and of the second, which
	// is the first less the column builds (every entry's accessor and
	// predicate call). In push-pull only the pushed batches' matches reach
	// MatchEdges, and the pulled entries' timestamps cost one accessor call
	// each; both depend on the grants, hence on the ranks.
	want := map[key][2][2]int64{
		{PushOnly, graph.OrderDegree, 1}:     {{6374, 6731}, {2217, 2574}},
		{PushPull, graph.OrderDegree, 1}:     {{4816, 4247}, {659, 90}},
		{PushOnly, graph.OrderDegree, 4}:     {{6374, 6731}, {2217, 2574}},
		{PushPull, graph.OrderDegree, 4}:     {{5351, 4358}, {1194, 201}},
		{PushOnly, graph.OrderDegeneracy, 1}: {{6386, 6731}, {2229, 2574}},
		{PushPull, graph.OrderDegeneracy, 1}: {{4823, 4256}, {666, 99}},
		{PushOnly, graph.OrderDegeneracy, 4}: {{6386, 6731}, {2229, 2574}},
		{PushPull, graph.OrderDegeneracy, 4}: {{5380, 4406}, {1223, 249}},
	}
	// Predicate-free: accessor calls of a first Survey with a δ-only plan and
	// of a second Survey, with a plan of its own but the same accessor func
	// value, on the same snapshot — which builds no column. Push-only's
	// residual is the same on any number of ranks; push-pull's depends on the
	// grants, as above.
	wantFree := map[key][2]int64{
		{PushOnly, graph.OrderDegree, 1}:     {7646, 3489},
		{PushPull, graph.OrderDegree, 1}:     {5012, 855},
		{PushOnly, graph.OrderDegree, 4}:     {7646, 3489},
		{PushPull, graph.OrderDegree, 4}:     {5757, 1600},
		{PushOnly, graph.OrderDegeneracy, 1}: {7661, 3504},
		{PushPull, graph.OrderDegeneracy, 1}: {5021, 864},
		{PushOnly, graph.OrderDegeneracy, 4}: {7661, 3504},
		{PushPull, graph.OrderDegeneracy, 4}: {5776, 1619},
	}
	budget := func(name string, g *graph.DODGr[serialize.Unit, uint64], res Result, acc, pred int64) {
		t.Helper()
		checks := int64(res.WedgeChecks)
		if b := int64(g.NumUndirectedEdges()) + 6*checks; acc > b || pred > b {
			t.Errorf("%s: accessor %d, predicate %d calls; budget |E+| + 6·WedgeChecks = %d (|W+| %d)",
				name, acc, pred, b, g.NumWedges())
		}
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
					budget(fmt.Sprintf("%s run %d", name, run), g, res, acc, pred)
					// Columns are reused: what is left is the match-time
					// residual, at most 6 (3) calls per wedge check.
					if checks := int64(res.WedgeChecks); run == 1 && (acc > 6*checks || pred > 3*checks) {
						t.Errorf("%s second run: accessor %d, predicate %d calls for %d wedge checks — columns rebuilt?",
							name, acc, pred, checks)
					}
				}
				s.Close()
				if got != want[key{mode, ord, nranks}] {
					t.Errorf("%s: {accessor, predicate} calls per run %v, pinned %v", name, got, want[key{mode, ord, nranks}])
				}

				var free [2]int64
				timeOf := func(em uint64) uint64 { accessor.Add(1); return em }
				for i := range free {
					accessor.Store(0)
					res, err := Run(g, Options{Mode: mode}, NewPlan[uint64]().Timestamps(timeOf).CloseWithin(span/40))
					if err != nil {
						t.Fatal(err)
					}
					free[i] = accessor.Load()
					budget(fmt.Sprintf("%s predicate-free survey %d", name, i), g, res, free[i], 0)
				}
				if free[0]-free[1] != int64(g.NumUndirectedEdges()) {
					t.Errorf("%s predicate-free: accessor calls %v: the second Survey should skip exactly the |E+| = %d column-build calls",
						name, free, g.NumUndirectedEdges())
				}
				if free != wantFree[key{mode, ord, nranks}] {
					t.Errorf("%s predicate-free: accessor calls per Survey %v, pinned %v", name, free, wantFree[key{mode, ord, nranks}])
				}
			}
			w.Close()
		}
	}
}

// BenchmarkPlannedSurvey times δ-planned counts on the benchmark's graph
// shape (bench/script.go: RedditLike, one user per 8 events, 4 ranks; 1 M
// events, 100 k under -short) at four points of the log-uniform δ range the
// survey-cold workload draws from (1/500 000 to 1/6 of the time axis, as
// bench/script.go's deltaOf): narrow, mid and wide at 0.1, 0.5 and 0.9 of
// the range, and widest at its top (δ = span/6), where survey-cold's tail
// lives. Narrow δ is the case where nearly every wedge is fully pruned and
// the dry run's survival test is all there is.
//
// Each row reports the phases separately, and the work: wedges
// (Result.WedgeChecks) and pulls (Result.PullsGranted), so the cost per
// wedge check can be read from one run. In push-pull mode the phases run
// dry run, pull, push: pull-ms is serving the granted pulls (sending the
// replies and decoding them at the source), and push-ms is the one sweep
// that pushes the declined batches and intersects the granted ones with
// their pulled lists. Compare whole-run ns/op across trees whose phases
// split differently, not the phase metrics. Two more rows, at the mid δ:
//
//   - windowed: a sliding window over 25–100 % of the axis (the iterations
//     cycle through four widths, centred), as 6 of every 20 survey-cold
//     specs carry — the case that builds the survey's own ok column and runs
//     the survival scan behind the gap test;
//   - fresh: the first survey on a new snapshot, which also builds the
//     snapshot's timestamp columns — what a stream pays once per epoch.
//     colbuild-ms is that build alone (timed before the survey, which then
//     finds the columns built); the graph build is not timed.
func BenchmarkPlannedSurvey(b *testing.B) {
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	events := redditEvents(uint64(n/8), n, 7)
	t0 := events[0].Time
	span := float64(events[len(events)-1].Time - t0)
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	g := buildReddit(b, w, events, graph.OrderDegree)
	// The rows but fresh time surveys of a snapshot whose columns are built.
	w.Parallel(func(r *ygm.Rank) { g.Times(r, TemporalPlan().timeOf) })
	ms := func(d time.Duration, n int) float64 { return d.Seconds() * 1e3 / float64(n) }
	deltaAt := func(frac float64) uint64 {
		lo, hi := span/500_000, span/6
		return uint64(lo * math.Pow(hi/lo, frac))
	}
	row := func(name string, mode Mode, fresh bool, plan func(i int) *Plan[uint64]) {
		b.Run(name+"/"+mode.String(), func(b *testing.B) {
			var dry, push, pull, colbuild time.Duration
			var res Result
			g := g
			for i := 0; i < b.N; i++ {
				p := plan(i)
				if fresh {
					b.StopTimer()
					g = buildReddit(b, w, events, graph.OrderDegree)
					b.StartTimer()
					start := time.Now()
					w.Parallel(func(r *ygm.Rank) { g.Times(r, p.timeOf) })
					colbuild += time.Since(start)
				}
				var err error
				res, err = Run(g, Options{Mode: mode}, p)
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
			if fresh {
				b.ReportMetric(ms(colbuild, b.N), "colbuild-ms")
			}
			b.ReportMetric(float64(res.Triangles), "triangles")
			b.ReportMetric(float64(totalMsgs(res)), "msgs")
			b.ReportMetric(float64(res.WedgeChecks), "wedges")
			b.ReportMetric(float64(res.PullsGranted), "pulls")
		})
	}
	for _, mode := range []Mode{PushPull, PushOnly} {
		for _, dc := range []struct {
			name string
			frac float64
		}{{"narrow", 0.1}, {"mid", 0.5}, {"wide", 0.9}, {"widest", 1.0}} {
			delta := deltaAt(dc.frac)
			row(dc.name, mode, false, func(int) *Plan[uint64] { return TemporalPlan().CloseWithin(delta) })
		}
		row("windowed", mode, false, func(i int) *Plan[uint64] {
			width := 0.25 + 0.25*float64(i%4)
			from := t0 + uint64(span*(1-width)/2)
			return TemporalPlan().CloseWithin(deltaAt(0.5)).Window(from, from+uint64(span*width))
		})
		row("fresh", mode, true, func(int) *Plan[uint64] { return TemporalPlan().CloseWithin(deltaAt(0.5)) })
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

// snapshotCols reads g's snapshot columns on every rank: the offsets, and
// timeOf's timestamp columns (built by this call if no survey built them).
func snapshotCols(g *graph.DODGr[serialize.Unit, uint64], timeOf func(uint64) uint64) ([][]int32, []graph.EdgeTimes) {
	w := g.World()
	offs, times := make([][]int32, w.Size()), make([]graph.EdgeTimes, w.Size())
	w.Parallel(func(r *ygm.Rank) {
		offs[r.ID()], times[r.ID()] = g.Offsets(r), g.Times(r, timeOf)
	})
	return offs, times
}

// sameArray reports whether two slices start at the same array element.
func sameArray[T any](a, b []T) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// overlaps reports whether slice a's backing memory, up to its capacity,
// shares a byte with slice b's.
func overlaps[A, B any](a []A, b []B) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	a1 := a0 + uintptr(cap(a))*unsafe.Sizeof(a[:1][0])
	b1 := b0 + uintptr(cap(b))*unsafe.Sizeof(b[:1][0])
	return a0 < b1 && b0 < a1
}

// TestSnapshotColumnsIdentityAndLifetime: a snapshot's timestamp columns
// are keyed by the accessor's func value, exactly — one value shares one
// column, two closures of one literal with different captures never share —
// they live with the snapshot and not in the pooled survey scratch, no
// survey of another snapshot writes them, and AsSnapshot's copy of the graph
// shares them (the shards hold them, so the copy takes no lock with it: go
// vet's copylocks check would name one).
func TestSnapshotColumnsIdentityAndLifetime(t *testing.T) {
	events := redditEvents(400, 12_000, 3)
	span := events[len(events)-1].Time - events[0].Time
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	g1 := buildReddit(t, w, events, graph.OrderDegree)
	g2 := buildReddit(t, w, events, graph.OrderDegree)
	run := func(g *graph.DODGr[serialize.Unit, uint64], mode Mode, plan *Plan[uint64]) {
		t.Helper()
		if _, err := Run(g, Options{Mode: mode}, plan); err != nil {
			t.Fatal(err)
		}
	}

	// One func value shares one column: a second survey with a plan of its
	// own finds the first survey's column and calls the accessor only at
	// match time.
	var calls atomic.Int64
	timeOf := func(em uint64) uint64 { calls.Add(1); return em }
	run(g1, PushPull, NewPlan[uint64]().Timestamps(timeOf).CloseWithin(span/100))
	offs, times := snapshotCols(g1, timeOf)
	saved := make([][2][]uint64, len(times))
	for i, tc := range times {
		saved[i] = [2][]uint64{slices.Clone(tc.TS), slices.Clone(tc.Gap)}
	}
	run(g1, PushOnly, NewPlan[uint64]().Timestamps(timeOf).CloseWithin(span/50))
	_, again := snapshotCols(g1, timeOf)
	for i := range times {
		if !sameArray(times[i].TS, again[i].TS) || !sameArray(times[i].Gap, again[i].Gap) {
			t.Fatalf("rank %d: one accessor value got two columns", i)
		}
	}

	// Two closures from one literal with different captures never share.
	mk := func(shift uint) func(uint64) uint64 { return func(em uint64) uint64 { return em >> shift } }
	_, ta := snapshotCols(g1, mk(0))
	_, tb := snapshotCols(g1, mk(1))
	for i := range ta {
		if len(ta[i].TS) > 0 && sameArray(ta[i].TS, tb[i].TS) {
			t.Fatalf("rank %d: two closures with different captures share a column", i)
		}
		for k := range ta[i].TS {
			if ta[i].TS[k] != saved[i][0][k] || tb[i].TS[k] != saved[i][0][k]>>1 {
				t.Fatalf("rank %d entry %d: columns %d and %d for timestamp %d", i, k, ta[i].TS[k], tb[i].TS[k], saved[i][0][k])
			}
		}
	}

	// Windowed and predicate surveys — on the other snapshot and on this one,
	// with this accessor and with others, in both modes — leave g1's columns
	// byte-identical and where they were. After each Close, the scratch the
	// survey returns to the pool holds no slice of either snapshot.
	var cols [][]uint64
	var allOffs [][]int32
	for _, g := range []*graph.DODGr[serialize.Unit, uint64]{g1, g2} {
		o, ts := snapshotCols(g, timeOf)
		allOffs = append(allOffs, o...)
		for i := range ts {
			cols = append(cols, ts[i].TS, ts[i].Gap)
		}
	}
	for _, g := range []*graph.DODGr[serialize.Unit, uint64]{g2, g1} {
		for _, mode := range []Mode{PushPull, PushOnly} {
			for _, plan := range []*Plan[uint64]{
				NewPlan[uint64]().Timestamps(timeOf).Window(events[0].Time+span/4, events[0].Time+span*3/4).CloseWithin(span / 80),
				NewPlan[uint64]().Timestamps(timeOf).From(events[0].Time + span/2),
				NewPlan[uint64]().Timestamps(timeOf).WhereEdge(func(em uint64) bool { return em%3 != 0 }).CloseWithin(span / 60),
				NewPlan[uint64]().WhereEdge(func(em uint64) bool { return em%5 != 0 }),
				TemporalPlan().Until(events[0].Time + span/3).CloseWithin(span / 40),
			} {
				s, err := NewPlannedSurvey[serialize.Unit, uint64](g, Options{Mode: mode}, plan, nil)
				if err != nil {
					t.Fatal(err)
				}
				s.Run()
				var scs []*surveyScratch
				for i := range s.state {
					scs = append(scs, s.state[i].sc)
				}
				s.Close()
				for _, sc := range scs {
					for _, c := range cols {
						if overlaps(sc.ok, c) || overlaps(sc.parked, c) || overlaps(sc.keep, c) ||
							overlaps(sc.slotOf, c) || overlaps(sc.grants, c) {
							t.Fatalf("a closed survey's pooled scratch holds a snapshot column")
						}
					}
					for _, o := range allOffs {
						if overlaps(sc.keep, o) || overlaps(sc.parked, o) || overlaps(sc.ok, o) {
							t.Fatalf("a closed survey's pooled scratch holds a snapshot's offsets")
						}
					}
				}
			}
		}
	}
	_, after := snapshotCols(g1, timeOf)
	for i := range after {
		if !sameArray(after[i].TS, times[i].TS) || !slices.Equal(after[i].TS, saved[i][0]) || !slices.Equal(after[i].Gap, saved[i][1]) {
			t.Fatalf("rank %d: other surveys rewrote or rebuilt the snapshot's columns", i)
		}
	}

	// AsSnapshot's copy shares the columns: the same slices, no accessor call.
	calls.Store(0)
	offsCopy, copied := snapshotCols(g1.AsSnapshot(), timeOf)
	if calls.Load() != 0 {
		t.Fatalf("AsSnapshot's copy built its own columns: %d accessor calls", calls.Load())
	}
	for i := range copied {
		if !sameArray(copied[i].TS, times[i].TS) || !sameArray(copied[i].Gap, times[i].Gap) || !sameArray(offsCopy[i], offs[i]) {
			t.Fatalf("rank %d: AsSnapshot's copy does not share the columns", i)
		}
	}
}

// TestSnapshotColumnsFollowStream: a stream snapshot copies its timestamp
// columns, list by list, from the previous snapshot's wherever the two share
// an adjacency list. Over ingests and advances, on 1 and 4 ranks, every
// snapshot's columns must equal the definition — the accessor per entry,
// the nearest later timestamp per entry — and a survey reading them must
// answer exactly as one whose accessor (another func value) has its columns
// built from scratch.
func TestSnapshotColumnsFollowStream(t *testing.T) {
	events := redditEvents(300, 9_000, 11)
	const base, batch = 6_000, 150
	span := events[base-1].Time - events[0].Time
	for _, nranks := range []int{1, 4} {
		w := ygm.MustWorld(nranks, ygm.Options{})
		seed := buildReddit(t, w, events[:base], graph.OrderDegree)
		s, err := OpenStream(seed, StreamOptions[uint64]{MergeEdgeMeta: minMerge}, TemporalPlan())
		if err != nil {
			t.Fatal(err)
		}
		timeOf := TemporalPlan().timeOf
		for step, next := 0, base; next < len(events); step++ {
			if step%5 == 4 {
				if _, err := s.Advance(events[next-1].Time - span*3/4); err != nil {
					t.Fatal(err)
				}
			} else {
				edges := make([]graph.Edge[uint64], 0, batch)
				for _, e := range events[next:min(next+batch, len(events))] {
					edges = append(edges, graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time})
				}
				next += len(edges)
				if _, err := s.Ingest(edges); err != nil {
					t.Fatal(err)
				}
			}
			g := s.Materialize()
			delta := span / uint64(50+step%7*40)
			got, err := Run(g, Options{Mode: PushPull}, NewPlan[uint64]().Timestamps(timeOf).CloseWithin(delta))
			if err != nil {
				t.Fatal(err)
			}
			// A capturing closure made now is a func value no snapshot has seen.
			shifted := func(shift uint) func(uint64) uint64 { return func(em uint64) uint64 { return em >> shift } }
			fresh, err := Run(g, Options{Mode: PushPull}, NewPlan[uint64]().Timestamps(shifted(0)).CloseWithin(delta))
			if err != nil {
				t.Fatal(err)
			}
			if got.Triangles != fresh.Triangles || got.PrunedCandidates != fresh.PrunedCandidates || totalMsgs(got) != totalMsgs(fresh) {
				t.Fatalf("ranks %d step %d: copied columns answer %+v, columns built afresh %+v", nranks, step, got, fresh)
			}
			w.Parallel(func(r *ygm.Rank) {
				off, cols := g.Offsets(r), g.Times(r, timeOf)
				for vi, v := range g.LocalVertices(r) {
					for j := range v.Adj {
						k := int(off[vi]) + j
						want := uint64(math.MaxUint64)
						for _, o := range v.Adj[j+1:] {
							want = min(want, absDiff(o.EMeta, v.Adj[j].EMeta))
						}
						if cols.TS[k] != v.Adj[j].EMeta || cols.Gap[k] != want {
							t.Errorf("ranks %d step %d rank %d: entry %d of vertex %d: ts %d gap %d, want %d and %d",
								nranks, step, r.ID(), j, v.ID, cols.TS[k], cols.Gap[k], v.Adj[j].EMeta, want)
							return
						}
					}
				}
			})
			if t.Failed() {
				t.FailNow()
			}
		}
		w.Close()
	}
}
