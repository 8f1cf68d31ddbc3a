package tripoll_test

import (
	"testing"

	"tripoll"
	"tripoll/datagen"
)

func TestPublicDirectedCensus(t *testing.T) {
	w := tripoll.NewWorld(3)
	defer w.Close()
	b := tripoll.NewGraphBuilder(w,
		tripoll.UnitCodec(),
		tripoll.DirectedCodec(tripoll.UnitCodec()),
		tripoll.BuilderOptions[tripoll.DirectedMeta[tripoll.Unit]]{
			MergeEdgeMeta: tripoll.MergeDirected[tripoll.Unit](nil),
		})
	var g *tripoll.Graph[tripoll.Unit, tripoll.DirectedMeta[tripoll.Unit]]
	w.Parallel(func(r *tripoll.Rank) {
		if r.ID() == 0 {
			// Directed 3-cycle plus a transitive triangle.
			tripoll.AddArc(b, r, 0, 1, tripoll.Unit{})
			tripoll.AddArc(b, r, 1, 2, tripoll.Unit{})
			tripoll.AddArc(b, r, 2, 0, tripoll.Unit{})
			tripoll.AddArc(b, r, 5, 6, tripoll.Unit{})
			tripoll.AddArc(b, r, 5, 7, tripoll.Unit{})
			tripoll.AddArc(b, r, 6, 7, tripoll.Unit{})
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	census, res := tripoll.SurveyDirectedCensus(g, tripoll.SurveyOptions{})
	if res.Triangles != 2 || census.Cyclic != 1 || census.Transitive != 1 {
		t.Errorf("census = %+v (triangles %d)", census, res.Triangles)
	}
	// Direction helpers.
	m := tripoll.ArcMeta[tripoll.Unit](3, 1, tripoll.Unit{})
	if !tripoll.HasArc(m, 3, 1) || tripoll.HasArc(m, 1, 3) {
		t.Error("ArcMeta/HasArc")
	}
}

func TestPublicLabelIndex(t *testing.T) {
	w := tripoll.NewWorld(2)
	defer w.Close()
	b := tripoll.NewGraphBuilder(w, tripoll.StringCodec(), tripoll.UnitCodec(),
		tripoll.BuilderOptions[tripoll.Unit]{})
	var g *tripoll.Graph[string, tripoll.Unit]
	w.Parallel(func(r *tripoll.Rank) {
		if r.ID() == 0 {
			b.AddEdge(r, 0, 1, tripoll.Unit{})
			b.AddEdge(r, 1, 2, tripoll.Unit{})
			b.AddEdge(r, 0, 2, tripoll.Unit{})
			b.SetVertexMeta(r, 0, "red")
			b.SetVertexMeta(r, 1, "blue")
			b.SetVertexMeta(r, 2, "red")
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	ix, res := tripoll.BuildLabelIndex(g, tripoll.SurveyOptions{}, tripoll.StringCodec())
	if res.Triangles != 1 {
		t.Fatalf("triangles = %d", res.Triangles)
	}
	if ix.Query(0, 1, "red") != 1 || ix.Query(0, 2, "blue") != 1 || ix.Query(1, 2, "red") != 1 {
		t.Errorf("label index: %v", ix)
	}
}

func TestPublicSnapshotRoundTrip(t *testing.T) {
	w := tripoll.NewWorld(3)
	defer w.Close()
	edges := datagen.BarabasiAlbert(800, 5, 13)
	g := tripoll.BuildSimple(w, edges)
	before := tripoll.Count(g, tripoll.SurveyOptions{})

	dir := t.TempDir() + "/snap"
	if err := tripoll.SaveGraph(g, dir); err != nil {
		t.Fatal(err)
	}
	g2, err := tripoll.LoadGraph(w, dir, tripoll.UnitCodec(), tripoll.UnitCodec())
	if err != nil {
		t.Fatal(err)
	}
	after := tripoll.Count(g2, tripoll.SurveyOptions{})
	if after.Triangles != before.Triangles {
		t.Errorf("count after reload = %d, want %d", after.Triangles, before.Triangles)
	}
	if tripoll.Info(g2) != tripoll.Info(g) {
		t.Errorf("info drifted: %+v vs %+v", tripoll.Info(g2), tripoll.Info(g))
	}
}

func TestPublicTemporalWindows(t *testing.T) {
	w := tripoll.NewWorld(2)
	defer w.Close()
	g := tripoll.BuildTemporal(w, []tripoll.TemporalEdge{
		{U: 0, V: 1, Time: 10}, {U: 1, V: 2, Time: 20}, {U: 0, V: 2, Time: 30},
	})
	within, total, _ := tripoll.TemporalWindowCount(g, 20, tripoll.SurveyOptions{})
	if total != 1 || within != 1 {
		t.Errorf("window 20: within=%d total=%d", within, total)
	}
	counts, _ := tripoll.TemporalWindowSweep(g, []uint64{5, 25}, tripoll.SurveyOptions{})
	if counts[5] != 0 || counts[25] != 1 {
		t.Errorf("sweep = %v", counts)
	}
}

func TestPublicGroupedWorld(t *testing.T) {
	w, err := tripoll.NewWorldWith(4, tripoll.WorldOptions{GroupSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	g := tripoll.BuildSimple(w, datagen.Complete(8))
	if res := tripoll.Count(g, tripoll.SurveyOptions{}); res.Triangles != 56 {
		t.Errorf("grouped-world count = %d, want 56", res.Triangles)
	}
}
