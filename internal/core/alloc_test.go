//go:build !race

package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// TestStreamIngestAllocBudget pins the steady-state allocation cost of a
// full incremental maintenance round: encode the batch through the pooled
// zero-copy path, run the delta survey (candidate codec, galloping
// intersections, pull replies), and mutate the adjacency in place. The
// budget has ~3.5× headroom over the measured steady state (~34 allocs for
// a 64-edge batch on 4 ranks) but sits two orders of magnitude below what
// a regression to per-message or per-candidate allocation would cost.
// Core-count independent: testing.AllocsPerRun pins GOMAXPROCS(1) while it
// measures (20/20 at GOMAXPROCS 1, 2 and 8).
// Excluded under -race because race instrumentation inserts allocations.
func TestStreamIngestAllocBudget(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	bld := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		gg := bld.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	var count uint64
	st, err := OpenStream(g,
		StreamOptions[uint64]{Survey: Options{Mode: PushOnly}, MergeEdgeMeta: func(a, b uint64) uint64 {
			if a < b {
				return a
			}
			return b
		}},
		TemporalPlan(), CountAnalysis[serialize.Unit, uint64]().Bind(&count))
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}

	rng := rand.New(rand.NewSource(11))
	mkBatch := func() []graph.Edge[uint64] {
		batch := make([]graph.Edge[uint64], 0, 64)
		for i := 0; i < 64; i++ {
			batch = append(batch, graph.Edge[uint64]{
				U: uint64(rng.Intn(400)), V: uint64(rng.Intn(400)), Meta: uint64(i),
			})
		}
		return batch
	}
	// Warm: grow adjacency arrays, candidate scratch, batch pools and the
	// analysis state to their steady-state high-water marks.
	for i := 0; i < 50; i++ {
		if _, err := st.Ingest(mkBatch()); err != nil {
			t.Fatalf("warm ingest %d: %v", i, err)
		}
	}

	batch := mkBatch()
	avg := testing.AllocsPerRun(200, func() {
		if _, err := st.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 120
	if avg > budget {
		t.Errorf("steady-state Ingest of a 64-edge batch: %.1f allocs/op, budget %d", avg, budget)
	}
	if st.Stats().Triangles == 0 {
		t.Fatal("stream counted no triangles; the workload did not exercise the survey path")
	}
}

// TestPlannedRunSteadyStateAllocs: what a planned count allocates per Run —
// a fresh Survey each time, as the engine makes them — does not grow with
// the graph once one Run has sized the pooled scratch (plan columns,
// negotiation tables, survivor list). Two RedditLike graphs eight-fold apart
// are compared, per mode; the larger one's plan columns alone are 600 KB, so
// a Run that allocated them again would stand out by two orders of
// magnitude. The collector is off while counting — a cycle would empty the
// pool (and the ygm batch pool) mid-measurement — and GOMAXPROCS is pinned
// before the sizing Run, not only by AllocsPerRun: a sync.Pool drops what its
// per-P slots hold when the P count changes.
func TestPlannedRunSteadyStateAllocs(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	measure := func(n int, mode Mode) (allocs, bytes float64, colBytes uint64) {
		events := redditEvents(uint64(n/8), n, 7)
		w := ygm.MustWorld(4, ygm.Options{})
		defer w.Close()
		g := buildReddit(t, w, events, graph.OrderDegree)
		plan := TemporalPlan().CloseWithin((events[len(events)-1].Time - events[0].Time) / 300)
		run := func() {
			res, err := Run(g, Options{Mode: mode}, plan)
			if err != nil {
				t.Fatal(err)
			}
			if res.Triangles == 0 || res.PrunedCandidates == 0 {
				t.Fatalf("plan did not both match and prune: %+v", res)
			}
		}
		run() // the first call sizes the scratch
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, run)
		runtime.ReadMemStats(&after)
		// AllocsPerRun makes one warm-up call besides the measured ones.
		bytes = float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
		return allocs, bytes, 9 * g.NumUndirectedEdges()
	}
	for _, mode := range []Mode{PushPull, PushOnly} {
		a1, b1, _ := measure(50_000, mode)
		a8, b8, cols := measure(400_000, mode)
		t.Logf("%v: %.0f allocs / %.0f B per Run at 50k events, %.0f / %.0f B at 400k (plan columns there: %d B)",
			mode, a1, b1, a8, b8, cols)
		// Slack for what is not the survey's: a Parallel region's goroutines
		// and the transport's batch buffers in flight vary a little with the
		// traffic, not with |E|.
		const slackAllocs, slackBytes = 16, 16 << 10
		if a8 > a1+slackAllocs || b8 > b1+slackBytes {
			t.Errorf("%v: a planned Run allocates with the graph: %.0f allocs / %.0f B at 50k events, %.0f / %.0f B at 400k",
				mode, a1, b1, a8, b8)
		}
		if b8 > float64(cols)/8 {
			t.Errorf("%v: %.0f B per Run at 400k events is within 8× of the plan columns (%d B) — are they allocated per Run?", mode, b8, cols)
		}
	}
}
