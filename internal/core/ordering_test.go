package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// buildMetaOrdered is buildMeta with an explicit ordering strategy.
func buildMetaOrdered(t testing.TB, nranks int, edges [][2]uint64, ord graph.Ordering) (*ygm.World, *graph.DODGr[uint64, uint64]) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.Uint64Codec(),
		graph.BuilderOptions[uint64]{Ordering: ord})
	var g *graph.DODGr[uint64, uint64]
	w.Parallel(func(r *ygm.Rank) {
		vset := map[uint64]bool{}
		for i, e := range edges {
			vset[e[0]] = true
			vset[e[1]] = true
			if i%r.Size() != r.ID() {
				continue
			}
			b.AddEdge(r, e[0], e[1], edgeMeta(e[0], e[1]))
		}
		for v := range vset {
			if v%uint64(r.Size()) == uint64(r.ID()) {
				b.SetVertexMeta(r, v, v*3+1)
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return w, g
}

// canonicalTriangles surveys g and returns every triangle as a canonical
// string — sorted vertex ids plus all six metadata items keyed by position —
// so surveys over differently ordered graphs are comparable.
func canonicalTriangles(t testing.TB, g *graph.DODGr[uint64, uint64], mode Mode) []string {
	t.Helper()
	var mu sync.Mutex
	var out []string
	s := NewSurvey(g, Options{Mode: mode}, func(r *ygm.Rank, tri *Triangle[uint64, uint64]) {
		type vm struct {
			id   uint64
			meta uint64
		}
		vs := []vm{{tri.P, tri.MetaP}, {tri.Q, tri.MetaQ}, {tri.R, tri.MetaR}}
		sort.Slice(vs, func(i, j int) bool { return vs[i].id < vs[j].id })
		// Edge metas re-keyed by the sorted endpoint pair via the known
		// deterministic edge metadata, checked against what arrived.
		ems := map[[2]uint64]uint64{
			sortPair(tri.P, tri.Q): tri.MetaPQ,
			sortPair(tri.P, tri.R): tri.MetaPR,
			sortPair(tri.Q, tri.R): tri.MetaQR,
		}
		line := fmt.Sprintf("%d/%d %d/%d %d/%d e:%d,%d,%d",
			vs[0].id, vs[0].meta, vs[1].id, vs[1].meta, vs[2].id, vs[2].meta,
			ems[sortPair(vs[0].id, vs[1].id)], ems[sortPair(vs[0].id, vs[2].id)], ems[sortPair(vs[1].id, vs[2].id)])
		mu.Lock()
		out = append(out, line)
		mu.Unlock()
	})
	res := s.Run()
	if uint64(len(out)) != res.Triangles {
		t.Errorf("callback fired %d times but Result.Triangles = %d", len(out), res.Triangles)
	}
	sort.Strings(out)
	return out
}

func sortPair(a, b uint64) [2]uint64 {
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

// TestOrderingsProduceIdenticalSurveys is the ordering layer's end-to-end
// property: the set of triangles (including all six metadata items) is
// independent of the vertex order that oriented the graph, for both survey
// algorithms.
func TestOrderingsProduceIdenticalSurveys(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := 1 + rng.Intn(4)
		nv := 3 + rng.Intn(30)
		ne := rng.Intn(140)
		edges := make([][2]uint64, 0, ne)
		for i := 0; i < ne; i++ {
			edges = append(edges, [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))})
		}
		for _, mode := range []Mode{PushOnly, PushPull} {
			wDeg, gDeg := buildMetaOrdered(t, nranks, edges, graph.OrderDegree)
			wantTris := canonicalTriangles(t, gDeg, mode)
			wDeg.Close()
			wDgn, gDgn := buildMetaOrdered(t, nranks, edges, graph.OrderDegeneracy)
			gotTris := canonicalTriangles(t, gDgn, mode)
			wDgn.Close()
			if len(wantTris) != len(gotTris) {
				t.Logf("seed %d mode %v: %d vs %d triangles", seed, mode, len(wantTris), len(gotTris))
				return false
			}
			for i := range wantTris {
				if wantTris[i] != gotTris[i] {
					t.Logf("seed %d mode %v: triangle %d differs:\n  degree:     %s\n  degeneracy: %s",
						seed, mode, i, wantTris[i], gotTris[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestResultRecordsOrdering checks the threading of the ordering name into
// survey results.
func TestResultRecordsOrdering(t *testing.T) {
	edges := [][2]uint64{{0, 1}, {1, 2}, {0, 2}}
	wDeg, gDeg := buildMetaOrdered(t, 2, edges, graph.OrderDegree)
	defer wDeg.Close()
	if res, err := Run(gDeg, Options{}, nil); err != nil {
		t.Fatal(err)
	} else if res.Ordering != "degree" {
		t.Errorf("Result.Ordering = %q, want degree", res.Ordering)
	}
	wDgn, gDgn := buildMetaOrdered(t, 2, edges, graph.OrderDegeneracy)
	defer wDgn.Close()
	if res, err := Run(gDgn, Options{}, nil); err != nil {
		t.Fatal(err)
	} else if res.Ordering != "degeneracy" {
		t.Errorf("Result.Ordering = %q, want degeneracy", res.Ordering)
	}
}
