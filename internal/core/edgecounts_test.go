package core

import (
	"math/rand"
	"testing"

	"tripoll/internal/baseline"
	"tripoll/internal/ygm"
)

func TestCanonEdge(t *testing.T) {
	if CanonEdge(5, 2) != (EdgeKey{First: 2, Second: 5}) {
		t.Error("CanonEdge not canonical")
	}
	if CanonEdge(2, 5) != CanonEdge(5, 2) {
		t.Error("CanonEdge not symmetric")
	}
}

func TestLocalEdgeCountsAgainstSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	edges := make([][2]uint64, 300)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(30)), uint64(rng.Intn(30))}
	}
	// Serial reference: count triangles through each canonical edge.
	want := map[EdgeKey]uint64{}
	for _, tri := range baseline.SerialTriangles(edges) {
		want[CanonEdge(tri[0], tri[1])]++
		want[CanonEdge(tri[0], tri[2])]++
		want[CanonEdge(tri[1], tri[2])]++
	}
	for _, mode := range []Mode{PushOnly, PushPull} {
		w, g := buildMeta(t, 3, edges, ygm.Options{})
		var got map[EdgeKey]uint64
		res, err := Run(g, Options{Mode: mode}, nil, EdgeCountAnalysis[uint64, uint64]().Bind(&got))
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != baseline.SerialCount(edges) {
			t.Errorf("mode %v: triangles = %d", mode, res.Triangles)
		}
		if len(got) != len(want) {
			t.Fatalf("mode %v: %d edges with counts, want %d", mode, len(got), len(want))
		}
		for e, c := range want {
			if got[e] != c {
				t.Errorf("mode %v: edge %v count %d, want %d", mode, e, got[e], c)
			}
		}
		// Consistency: Σ edge counts = 3·|T|.
		var sum uint64
		for _, c := range got {
			sum += c
		}
		if sum != 3*res.Triangles {
			t.Errorf("mode %v: Σ edge counts %d != 3·%d", mode, sum, res.Triangles)
		}
		w.Close()
	}
}

func TestLocalEdgeCountsK4(t *testing.T) {
	w, g := buildMeta(t, 2, k4, ygm.Options{})
	defer w.Close()
	var got map[EdgeKey]uint64
	if _, err := Run(g, Options{}, nil, EdgeCountAnalysis[uint64, uint64]().Bind(&got)); err != nil {
		t.Fatal(err)
	}
	// Every K4 edge supports exactly 2 triangles.
	if len(got) != 6 {
		t.Fatalf("edges = %d", len(got))
	}
	for e, c := range got {
		if c != 2 {
			t.Errorf("edge %v count %d, want 2", e, c)
		}
	}
}
