package tripoll_test

import (
	"sync/atomic"
	"testing"

	"tripoll"
	"tripoll/internal/baseline"
	"tripoll/internal/gen"
)

func TestQuickstartCount(t *testing.T) {
	w := tripoll.NewWorld(3)
	defer w.Close()
	g := tripoll.BuildSimple(w, [][2]uint64{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Errorf("triangles = %d, want 1", res.Triangles)
	}
	info := tripoll.Info(g)
	if info.Vertices != 4 || info.PlusEdges != 4 {
		t.Errorf("info = %+v", info)
	}
}

func TestPublicSurveyWithCallback(t *testing.T) {
	w := tripoll.NewWorld(2)
	defer w.Close()
	g := tripoll.BuildSimple(w, gen.Complete(6))
	var fired atomic.Int64
	s := tripoll.NewSurvey(g, tripoll.SurveyOptions{Mode: tripoll.PushOnly},
		func(r *tripoll.Rank, tri *tripoll.Triangle[tripoll.Unit, tripoll.Unit]) {
			fired.Add(1)
		})
	res := s.Run()
	want := baseline.SerialCount(gen.Complete(6))
	if res.Triangles != want || fired.Load() != int64(want) {
		t.Errorf("triangles = %d, callbacks = %d, want %d", res.Triangles, fired.Load(), want)
	}
}

func TestPublicTemporalClosure(t *testing.T) {
	w := tripoll.NewWorld(2)
	defer w.Close()
	edges := []tripoll.TemporalEdge{
		{U: 0, V: 1, Time: 100},
		{U: 1, V: 2, Time: 108},
		{U: 0, V: 2, Time: 228},
		{U: 0, V: 1, Time: 50}, // duplicate — keeps the earlier timestamp
	}
	g := tripoll.BuildTemporal(w, edges)
	var joint *tripoll.Joint2D
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil, tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&joint))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Fatalf("triangles = %d", res.Triangles)
	}
	// With the duplicate reduced to t=50: times 50,108,228 → open = 58 →
	// ceil log2 = 6; close = 178 → ceil log2 = 8.
	if joint.Count(6, 8) != 1 {
		t.Errorf("joint distribution missing (6,8); total=%d", joint.Total())
	}
}

func TestPublicClusteringAndLocalCounts(t *testing.T) {
	w := tripoll.NewWorld(2)
	defer w.Close()
	g := tripoll.BuildSimple(w, gen.Complete(5))
	var counts map[uint64]uint64
	if _, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil, tripoll.VertexCountAnalysis[tripoll.Unit, tripoll.Unit]().Bind(&counts)); err != nil {
		t.Fatal(err)
	}
	for v := uint64(0); v < 5; v++ {
		if counts[v] != 6 { // each K5 vertex is in C(4,2) = 6 triangles
			t.Errorf("t(%d) = %d, want 6", v, counts[v])
		}
	}
	var cs tripoll.ClusteringAccum
	if _, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil, tripoll.ClusteringAnalysis(g).Bind(&cs)); err != nil {
		t.Fatal(err)
	}
	if cs.Stats.Average != 1 || cs.Stats.Global != 1 {
		t.Errorf("K5 clustering = %+v", cs.Stats)
	}
}

func TestPublicWorldOptions(t *testing.T) {
	w, err := tripoll.NewWorldWith(2, tripoll.WorldOptions{Transport: tripoll.TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := tripoll.BuildSimple(w, gen.Complete(4))
	if res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil); err != nil {
		t.Fatal(err)
	} else if res.Triangles != 4 {
		t.Errorf("tcp world count = %d", res.Triangles)
	}
	if _, err := tripoll.NewWorldWith(0, tripoll.WorldOptions{}); err == nil {
		t.Error("expected error for 0 ranks")
	}
}

func TestPublicEdgeListIO(t *testing.T) {
	path := t.TempDir() + "/g.txt"
	edges := []tripoll.TemporalEdge{{U: 0, V: 1, Time: 3}, {U: 1, V: 2, Time: 4}}
	if err := tripoll.WriteEdgeListFile(path, edges); err != nil {
		t.Fatal(err)
	}
	got, err := tripoll.ReadEdgeListFile(path)
	if err != nil || len(got) != 2 {
		t.Fatalf("read: %v %v", got, err)
	}
}

func TestPublicWindowedSurveys(t *testing.T) {
	w := tripoll.NewWorld(3)
	defer w.Close()
	edges := []tripoll.TemporalEdge{
		// A tight triangle (spread 10) and a slow one (spread 500).
		{U: 0, V: 1, Time: 100}, {U: 1, V: 2, Time: 105}, {U: 0, V: 2, Time: 110},
		{U: 3, V: 4, Time: 100}, {U: 4, V: 5, Time: 300}, {U: 3, V: 5, Time: 600},
	}
	g := tripoll.BuildTemporal(w, edges)

	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, tripoll.NewTemporalPlan().CloseWithin(50))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 {
		t.Errorf("δ=50 count = %d, want 1", res.Triangles)
	}
	if !res.Planned || res.PrunedBatches+res.PrunedCandidates == 0 {
		t.Errorf("pushdown inactive: planned=%v pruned=%d/%d", res.Planned, res.PrunedBatches, res.PrunedCandidates)
	}

	var joint *tripoll.Joint2D
	cres, err := tripoll.Run(g, tripoll.SurveyOptions{}, tripoll.NewTemporalPlan().Window(100, 400),
		tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&joint))
	if err != nil {
		t.Fatal(err)
	}
	if cres.Triangles != 1 || joint.Total() != 1 {
		t.Errorf("window [100,400]: triangles=%d joint=%d, want 1/1", cres.Triangles, joint.Total())
	}

	// Temporal constraints without a Timestamps accessor are rejected.
	if _, err := tripoll.Run(g, tripoll.SurveyOptions{}, tripoll.NewSurveyPlan[uint64]().CloseWithin(1)); err != tripoll.ErrPlanNoTimestamps {
		t.Errorf("invalid plan error = %v", err)
	}
}

func TestPublicFusedRun(t *testing.T) {
	w := tripoll.NewWorld(3)
	defer w.Close()
	edges := []tripoll.TemporalEdge{
		{U: 0, V: 1, Time: 100}, {U: 1, V: 2, Time: 105}, {U: 0, V: 2, Time: 110},
		{U: 3, V: 4, Time: 100}, {U: 4, V: 5, Time: 300}, {U: 3, V: 5, Time: 600},
		{U: 2, V: 3, Time: 200},
	}
	g := tripoll.BuildTemporal(w, edges)

	// The README two-analysis quickstart: count and closure times in one
	// fused traversal.
	var total uint64
	var joint *tripoll.Joint2D
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil,
		tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&total),
		tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&joint))
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || res.Triangles != 2 || joint.Total() != 2 {
		t.Errorf("fused count=%d triangles=%d joint=%d, want 2/2/2", total, res.Triangles, joint.Total())
	}
	if len(res.Analyses) != 2 || res.Analyses[0] != "count" || res.Analyses[1] != "closure" {
		t.Errorf("Analyses = %v", res.Analyses)
	}

	// A fused run restricted by a plan: both analyses see only matching
	// triangles.
	var wtotal uint64
	var wjoint *tripoll.Joint2D
	wres, err := tripoll.Run(g, tripoll.SurveyOptions{}, tripoll.NewTemporalPlan().CloseWithin(50),
		tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&wtotal),
		tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&wjoint))
	if err != nil {
		t.Fatal(err)
	}
	if wtotal != 1 || wjoint.Total() != 1 || !wres.Planned {
		t.Errorf("planned fused: count=%d joint=%d planned=%v, want 1/1/true", wtotal, wjoint.Total(), wres.Planned)
	}
}
