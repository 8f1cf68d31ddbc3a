package tripoll_test

import (
	"testing"

	"tripoll"
)

// TestStreamQuickstart exercises the public streaming surface end to end:
// seed, ingest, slide, snapshot — the README's streaming quickstart shape.
func TestStreamQuickstart(t *testing.T) {
	w := tripoll.NewWorld(3)
	defer w.Close()
	g := tripoll.BuildTemporal(w, []tripoll.TemporalEdge{
		{U: 0, V: 1, Time: 10}, {U: 1, V: 2, Time: 20}, {U: 0, V: 2, Time: 30},
	})

	keepFirst := func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	var total uint64
	var verts map[uint64]uint64
	s, err := tripoll.OpenStream(g,
		tripoll.StreamOptions[uint64]{MergeEdgeMeta: keepFirst},
		tripoll.NewTemporalPlan(),
		tripoll.StreamCountAnalysis[tripoll.Unit, uint64]().Bind(&total),
		tripoll.StreamVertexCountAnalysis[tripoll.Unit, uint64]().Bind(&verts),
	)
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	if s.Snapshot(); total != 1 {
		t.Fatalf("seed count = %d, want 1", total)
	}

	// One batch closes a second triangle {1,2,3} and opens a wedge.
	res, err := s.Ingest([]tripoll.StreamEdge[uint64]{
		{U: 1, V: 3, Meta: 40}, {U: 2, V: 3, Meta: 50}, {U: 3, V: 4, Meta: 60},
	})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !res.Delta || res.DeltaEdges != 3 || res.Triangles != 1 {
		t.Fatalf("batch result: Delta=%v DeltaEdges=%d Triangles=%d", res.Delta, res.DeltaEdges, res.Triangles)
	}
	if s.Snapshot(); total != 2 || verts[2] != 2 {
		t.Fatalf("after batch: total=%d verts=%v", total, verts)
	}

	// Sliding the window past t=15 retires {0,1}, destroying the seed
	// triangle ({1,2,3} survives: its oldest edge is t=20).
	ares, err := s.Advance(15)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if ares.Rebuilt || ares.DeltaEdges != 1 || ares.Triangles != 1 {
		t.Fatalf("advance result: Rebuilt=%v DeltaEdges=%d Triangles=%d", ares.Rebuilt, ares.DeltaEdges, ares.Triangles)
	}
	st := s.Snapshot()
	if total != 1 || s.Triangles() != 1 {
		t.Fatalf("after expiry: total=%d net=%d", total, s.Triangles())
	}
	if st.Retired != 1 || st.Batches != 1 || st.Advances != 1 {
		t.Fatalf("stream stats: %+v", st)
	}

	// The materialized window snapshot agrees with a full survey.
	g2 := s.Materialize()
	if res, err := tripoll.Run(g2, tripoll.SurveyOptions{}, nil); err != nil {
		t.Fatal(err)
	} else if res.Triangles != 1 {
		t.Fatalf("materialized window count = %d, want 1", res.Triangles)
	}
}
