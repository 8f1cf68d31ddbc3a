package core

import (
	"math/rand"
	"testing"

	"tripoll/internal/baseline"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// buildLabeled builds a graph with vertex label = id % 3 (a small label
// alphabet, as in labeled pattern matching).
func buildLabeled(t testing.TB, nranks int, edges [][2]uint64) (*ygm.World, *graph.DODGr[uint64, serialize.Unit]) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[uint64, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		vset := map[uint64]bool{}
		for i, e := range edges {
			vset[e[0]] = true
			vset[e[1]] = true
			if i%r.Size() == r.ID() {
				b.AddEdge(r, e[0], e[1], serialize.Unit{})
			}
		}
		for v := range vset {
			if v%uint64(r.Size()) == uint64(r.ID()) {
				b.SetVertexMeta(r, v, v%3)
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return w, g
}

func TestLabelIndexSmall(t *testing.T) {
	// Bowtie: triangles (0,1,2) and (2,3,4); labels are id%3.
	w, g := buildLabeled(t, 2, bowtie)
	defer w.Close()
	var ix LabelIndex[uint64]
	res, err := Run(g, Options{}, nil, LabelIndexAnalysis[uint64, serialize.Unit]().Bind(&ix))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 {
		t.Fatalf("triangles = %d", res.Triangles)
	}
	// Edge (0,1) closes with vertex 2 (label 2).
	if ix.Query(0, 1, 2) != 1 || ix.Query(1, 0, 2) != 1 {
		t.Errorf("Query(0,1,label2) = %d", ix.Query(0, 1, 2))
	}
	if ix.Query(0, 1, 0) != 0 {
		t.Error("nonexistent label bucket should be 0")
	}
	// Edge (2,3) closes with vertex 4 (label 1).
	if ix.Query(2, 3, 1) != 1 {
		t.Errorf("Query(2,3,label1) = %d", ix.Query(2, 3, 1))
	}
	// Total index mass = 3 entries per triangle.
	var total uint64
	for _, c := range ix {
		total += c
	}
	if total != 3*res.Triangles {
		t.Errorf("index mass = %d, want %d", total, 3*res.Triangles)
	}
}

func TestLabelIndexMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	edges := make([][2]uint64, 400)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(40)), uint64(rng.Intn(40))}
	}
	want := map[LabelIndexKey[uint64]]uint64{}
	for _, tri := range baseline.SerialTriangles(edges) {
		want[LabelIndexKey[uint64]{Edge: CanonEdge(tri[0], tri[1]), Label: tri[2] % 3}]++
		want[LabelIndexKey[uint64]{Edge: CanonEdge(tri[0], tri[2]), Label: tri[1] % 3}]++
		want[LabelIndexKey[uint64]{Edge: CanonEdge(tri[1], tri[2]), Label: tri[0] % 3}]++
	}
	for _, mode := range []Mode{PushOnly, PushPull} {
		w, g := buildLabeled(t, 3, edges)
		var ix LabelIndex[uint64]
		if _, err := Run(g, Options{Mode: mode}, nil, LabelIndexAnalysis[uint64, serialize.Unit]().Bind(&ix)); err != nil {
			t.Fatal(err)
		}
		if len(ix) != len(want) {
			t.Fatalf("mode %v: %d buckets, want %d", mode, len(ix), len(want))
		}
		for k, c := range want {
			if ix[k] != c {
				t.Errorf("mode %v: bucket %+v = %d, want %d", mode, k, ix[k], c)
			}
		}
		w.Close()
	}
}

func TestLabelIndexStringLabels(t *testing.T) {
	// String labels exercise variable-length keys in the counting set.
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	b := graph.NewBuilder(w, serialize.StringCodec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[string, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		if r.ID() == 0 {
			for _, e := range k4 {
				b.AddEdge(r, e[0], e[1], serialize.Unit{})
			}
			labels := []string{"buyer", "seller", "buyer", "moderator"}
			for v, l := range labels {
				b.SetVertexMeta(r, uint64(v), l)
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	var ix LabelIndex[string]
	res, err := Run(g, Options{}, nil, LabelIndexAnalysis[string, serialize.Unit]().Bind(&ix))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 4 {
		t.Fatalf("triangles = %d", res.Triangles)
	}
	// Edge (0,2) (buyer-buyer) participates in triangles with 1 (seller)
	// and 3 (moderator).
	if ix.Query(0, 2, "seller") != 1 || ix.Query(0, 2, "moderator") != 1 {
		t.Errorf("string-label index: %v", ix)
	}
}
