package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/pushdown_golden.json from this tree")

// buildReddit builds the min-timestamp temporal DODGr of a RedditLike event
// stream on w — the shape of the benchmark's graph (bench/script.go), at
// whatever size the caller's parameters give.
func buildReddit(tb testing.TB, w *ygm.World, events []graph.TemporalEdge, ord graph.Ordering) *graph.DODGr[serialize.Unit, uint64] {
	tb.Helper()
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		Ordering:      ord,
		MergeEdgeMeta: func(a, c uint64) uint64 { return min(a, c) },
	})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(events); i += r.Size() {
			b.AddEdge(r, events[i].U, events[i].V, events[i].Time)
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return g
}

func redditEvents(users uint64, events int, seed int64) []graph.TemporalEdge {
	p := gen.DefaultRedditParams()
	p.Users, p.Events, p.Seed = users, events, seed
	return gen.RedditLike(p)
}

// goldenPhase and goldenCase are what a plan's pushdown must leave exactly
// as it is: the decisions (pulls granted), the work (wedge checks), the
// prune accounting and the wire traffic of every phase.
type goldenPhase struct {
	Messages int64 `json:"messages"`
	Bytes    int64 `json:"bytes"`
}

type goldenCase struct {
	Name              string      `json:"name"`
	Triangles         uint64      `json:"triangles"`
	PullsGranted      uint64      `json:"pulls_granted"`
	WedgeChecks       uint64      `json:"wedge_checks"`
	PrunedBatches     uint64      `json:"pruned_batches"`
	PrunedCandidates  uint64      `json:"pruned_candidates"`
	PrunedPullEntries uint64      `json:"pruned_pull_entries"`
	DryRun            goldenPhase `json:"dry_run"`
	Push              goldenPhase `json:"push"`
	Pull              goldenPhase `json:"pull"`
}

// TestPushdownCountersGolden pins, at 0 tolerance, every counter and every
// phase's message and byte count of planned surveys over a seeded graph
// against testdata/pushdown_golden.json. The file was generated at the
// commit before the plan columns replaced the per-wedge predicate calls
// (ISSUE 22), so passing here means the pushdown's decisions, survivors and
// wire traffic are the parent's to the message. `go test -run
// TestPushdownCountersGolden -update` regenerates it.
func TestPushdownCountersGolden(t *testing.T) {
	events := redditEvents(800, 40_000, 7)
	lo, hi := events[0].Time, events[len(events)-1].Time
	span := hi - lo
	at := func(f float64) uint64 { return lo + uint64(f*float64(span)) }
	third := func(em uint64) bool { return em%3 != 0 }
	plans := []struct {
		name string
		mk   func() *Plan[uint64]
	}{
		{"empty", func() *Plan[uint64] { return TemporalPlan() }},
		{"delta-zero", func() *Plan[uint64] { return TemporalPlan().CloseWithin(0) }},
		{"delta-narrow", func() *Plan[uint64] { return TemporalPlan().CloseWithin(span / 3_000) }},
		{"delta-mid", func() *Plan[uint64] { return TemporalPlan().CloseWithin(span / 300) }},
		{"delta-wide", func() *Plan[uint64] { return TemporalPlan().CloseWithin(span / 6) }},
		{"window", func() *Plan[uint64] { return TemporalPlan().Window(at(0.3), at(0.7)) }},
		{"from-open", func() *Plan[uint64] { return TemporalPlan().From(at(0.5)) }},
		{"until-open", func() *Plan[uint64] { return TemporalPlan().Until(at(0.25)) }},
		{"empty-window", func() *Plan[uint64] { return TemporalPlan().Window(at(0.9), at(0.1)) }},
		{"window+delta", func() *Plan[uint64] { return TemporalPlan().Window(at(0.2), at(0.8)).CloseWithin(span / 300) }},
		{"whereedge", func() *Plan[uint64] { return NewPlan[uint64]().WhereEdge(third) }},
		{"whereedge+delta", func() *Plan[uint64] { return TemporalPlan().WhereEdge(third).CloseWithin(span / 40) }},
	}

	var got []goldenCase
	for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
		w := ygm.MustWorld(4, ygm.Options{})
		g := buildReddit(t, w, events, ord)
		for _, mode := range []Mode{PushOnly, PushPull} {
			for _, pc := range plans {
				res, err := Run(g, Options{Mode: mode}, pc.mk())
				if err != nil {
					t.Fatalf("%s: %v", pc.name, err)
				}
				got = append(got, goldenCase{
					Name:              pc.name + "/" + mode.String() + "/" + ord.String(),
					Triangles:         res.Triangles,
					PullsGranted:      res.PullsGranted,
					WedgeChecks:       res.WedgeChecks,
					PrunedBatches:     res.PrunedBatches,
					PrunedCandidates:  res.PrunedCandidates,
					PrunedPullEntries: res.PrunedPullEntries,
					DryRun:            goldenPhase{res.DryRun.Messages, res.DryRun.Bytes},
					Push:              goldenPhase{res.Push.Messages, res.Push.Bytes},
					Pull:              goldenPhase{res.Pull.Messages, res.Pull.Bytes},
				})
			}
		}
		w.Close()
	}

	path := filepath.Join("testdata", "pushdown_golden.json")
	if *updateGolden {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("case %d:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
