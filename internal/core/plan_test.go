package core

import (
	"errors"
	"testing"

	"tripoll/internal/ygm"
)

// Plan compilation unit tests: the window/δ edge cases the docs promise
// (empty window, δ = 0, open-ended windows), predicate composition, and
// validation of temporal constraints without a timestamp accessor.

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan[uint64]
		want error
	}{
		{"nil", nil, nil},
		{"empty", NewPlan[uint64](), nil},
		{"delta-no-time", NewPlan[uint64]().CloseWithin(5), ErrNoTimestamps},
		{"from-no-time", NewPlan[uint64]().From(5), ErrNoTimestamps},
		{"until-no-time", NewPlan[uint64]().Until(5), ErrNoTimestamps},
		{"window-no-time", NewPlan[uint64]().Window(1, 5), ErrNoTimestamps},
		{"delta-with-time", TemporalPlan().CloseWithin(5), nil},
		{"window-with-time", TemporalPlan().Window(1, 5), nil},
		{"pred-only", NewPlan[uint64]().WhereEdge(func(uint64) bool { return true }), nil},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate() = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestPlanMatchEdges(t *testing.T) {
	cases := []struct {
		name       string
		plan       *Plan[uint64]
		pq, pr, qr uint64
		want       bool
	}{
		{"empty-plan", NewPlan[uint64](), 1, 2, 3, true},
		{"nil-plan", nil, 1, 2, 3, true},
		{"delta-pass", TemporalPlan().CloseWithin(10), 5, 10, 15, true},
		{"delta-fail", TemporalPlan().CloseWithin(9), 5, 10, 15, false},
		{"delta-zero-pass", TemporalPlan().CloseWithin(0), 7, 7, 7, true},
		{"delta-zero-fail", TemporalPlan().CloseWithin(0), 7, 7, 8, false},
		{"window-pass", TemporalPlan().Window(5, 15), 5, 10, 15, true},
		{"window-fail-low", TemporalPlan().Window(6, 15), 5, 10, 15, false},
		{"window-fail-high", TemporalPlan().Window(5, 14), 5, 10, 15, false},
		{"window-empty", TemporalPlan().Window(10, 5), 7, 7, 7, false},
		{"from-open-ended", TemporalPlan().From(10), 10, 20, 1 << 60, true},
		{"from-fail", TemporalPlan().From(10), 9, 20, 30, false},
		{"until-open-ended", TemporalPlan().Until(30), 0, 20, 30, true},
		{"until-fail", TemporalPlan().Until(29), 0, 20, 30, false},
		{"pred-pass", NewPlan[uint64]().WhereEdge(func(em uint64) bool { return em%2 == 0 }), 2, 4, 6, true},
		{"pred-fail-one-edge", NewPlan[uint64]().WhereEdge(func(em uint64) bool { return em%2 == 0 }), 2, 4, 7, false},
		{"preds-and-compose",
			NewPlan[uint64]().
				WhereEdge(func(em uint64) bool { return em%2 == 0 }).
				WhereEdge(func(em uint64) bool { return em < 100 }),
			2, 4, 102, false},
		{"pred-plus-delta",
			TemporalPlan().WhereEdge(func(em uint64) bool { return em > 0 }).CloseWithin(10),
			1, 5, 11, true},
	}
	for _, c := range cases {
		if got := c.plan.MatchEdges(c.pq, c.pr, c.qr); got != c.want {
			t.Errorf("%s: MatchEdges(%d,%d,%d) = %v, want %v", c.name, c.pq, c.pr, c.qr, got, c.want)
		}
	}
}

func TestPlanIsEmptyAndCompile(t *testing.T) {
	var nilPlan *Plan[uint64]
	if !nilPlan.IsEmpty() {
		t.Error("nil plan should be empty")
	}
	if !NewPlan[uint64]().IsEmpty() {
		t.Error("fresh plan should be empty")
	}
	// A Timestamps accessor alone imposes no constraint.
	if !TemporalPlan().IsEmpty() {
		t.Error("TemporalPlan with no constraints should be empty")
	}
	if f := TemporalPlan().compile(); f.active {
		t.Error("empty plan must compile inactive")
	}
	f := TemporalPlan().CloseWithin(3).compile()
	if !f.active || f.hasEdge || !f.hasPair {
		t.Errorf("pure-δ plan compiled wrong: active=%v hasEdge=%v hasPair=%v", f.active, f.hasEdge, f.hasPair)
	}
	f = TemporalPlan().Window(1, 2).compile()
	if !f.active || !f.hasEdge || f.hasPair {
		t.Errorf("window plan compiled wrong: active=%v hasEdge=%v hasPair=%v", f.active, f.hasEdge, f.hasPair)
	}
}

func TestNewPlannedSurveyRejectsInvalidPlan(t *testing.T) {
	w, g := buildMeta(t, 2, k3, ygm.Options{})
	defer w.Close()
	if _, err := NewPlannedSurvey(g, Options{}, NewPlan[uint64]().CloseWithin(1), nil); !errors.Is(err, ErrNoTimestamps) {
		t.Errorf("NewPlannedSurvey(invalid plan) err = %v, want ErrNoTimestamps", err)
	}
	// nil and empty plans degenerate to unplanned surveys.
	s, err := NewPlannedSurvey[uint64, uint64](g, Options{}, nil, nil)
	if err != nil {
		t.Fatalf("nil plan: %v", err)
	}
	if res := s.Run(); res.Planned || res.Triangles != 1 {
		t.Errorf("nil plan: Planned=%v Triangles=%d, want unplanned count 1", res.Planned, res.Triangles)
	}
	s, err = NewPlannedSurvey(g, Options{}, NewPlan[uint64](), nil)
	if err != nil {
		t.Fatalf("empty plan: %v", err)
	}
	if res := s.Run(); res.Planned || res.Triangles != 1 {
		t.Errorf("empty plan: Planned=%v Triangles=%d, want unplanned count 1", res.Planned, res.Triangles)
	}
}

// TestEmptyWindowSendsNothing: a window with start > end matches nothing,
// and pushdown means the survey also *sends* (nearly) nothing — zero
// push-phase messages, every batch pruned at the source.
func TestEmptyWindowSendsNothing(t *testing.T) {
	for _, mode := range []Mode{PushOnly, PushPull} {
		w, g := buildMeta(t, 3, k5, ygm.Options{})
		res, err := Run(g, Options{Mode: mode}, TemporalPlan().Window(10, 5))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Triangles != 0 {
			t.Errorf("mode %v: empty window counted %d triangles", mode, res.Triangles)
		}
		if !res.Planned {
			t.Errorf("mode %v: Planned not set", mode)
		}
		if res.DryRun.Messages != 0 || res.Push.Messages != 0 || res.Pull.Messages != 0 {
			t.Errorf("mode %v: empty window still sent messages: dry=%d push=%d pull=%d",
				mode, res.DryRun.Messages, res.Push.Messages, res.Pull.Messages)
		}
		if res.PrunedBatches == 0 {
			t.Errorf("mode %v: no pruned batches recorded", mode)
		}
		if res.WedgeChecks != 0 {
			t.Errorf("mode %v: empty window still performed %d wedge checks", mode, res.WedgeChecks)
		}
		w.Close()
	}
}

// TestDeltaZeroKeepsSimultaneousTriangles: δ = 0 keeps exactly the
// triangles whose three timestamps are equal.
func TestDeltaZeroKeepsSimultaneousTriangles(t *testing.T) {
	// Two disjoint K3s: one with all-equal timestamps, one without.
	edges := [][2]uint64{{0, 1}, {1, 2}, {0, 2}, {10, 11}, {11, 12}, {10, 12}}
	times := map[[2]uint64]uint64{
		{0, 1}: 50, {1, 2}: 50, {0, 2}: 50,
		{10, 11}: 50, {11, 12}: 50, {10, 12}: 51,
	}
	for _, mode := range []Mode{PushOnly, PushPull} {
		w := ygm.MustWorld(3, ygm.Options{})
		g := buildWithTimes(t, w, edges, func(lo, hi uint64) uint64 { return times[[2]uint64{lo, hi}] })
		res, err := Run(g, Options{Mode: mode}, TemporalPlan().CloseWithin(0))
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Triangles != 1 {
			t.Errorf("mode %v: δ=0 counted %d triangles, want 1", mode, res.Triangles)
		}
		w.Close()
	}
}
