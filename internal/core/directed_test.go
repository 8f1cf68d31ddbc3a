package core

import (
	"math/rand"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

func buildDirected(t testing.TB, nranks int, arcs [][2]uint64) (*ygm.World, *graph.DODGr[serialize.Unit, graph.Directed[serialize.Unit]]) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	b := graph.NewBuilder(w, serialize.UnitCodec(), graph.DirectedCodec(serialize.UnitCodec()),
		graph.BuilderOptions[graph.Directed[serialize.Unit]]{
			MergeEdgeMeta: graph.MergeDirected[serialize.Unit](nil),
		})
	var g *graph.DODGr[serialize.Unit, graph.Directed[serialize.Unit]]
	w.Parallel(func(r *ygm.Rank) {
		for i, a := range arcs {
			if i%r.Size() == r.ID() {
				graph.AddArc(b, r, a[0], a[1], serialize.Unit{})
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return w, g
}

func TestDirectedCensusCycle(t *testing.T) {
	w, g := buildDirected(t, 2, [][2]uint64{{0, 1}, {1, 2}, {2, 0}})
	defer w.Close()
	var c DirectedCensus
	res, err := Run(g, Options{}, nil, DirectedCensusAnalysis[serialize.Unit, serialize.Unit]().Bind(&c))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 1 || c.Cyclic != 1 || c.Total() != 1 {
		t.Errorf("cycle census = %+v (triangles %d)", c, res.Triangles)
	}
}

func TestDirectedCensusTransitiveTournament(t *testing.T) {
	// Transitive tournament on 5 vertices (i→j for i<j): C(5,3) = 10
	// triangles, all transitive, none cyclic.
	var arcs [][2]uint64
	for i := uint64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			arcs = append(arcs, [2]uint64{i, j})
		}
	}
	w, g := buildDirected(t, 3, arcs)
	defer w.Close()
	var c DirectedCensus
	res, err := Run(g, Options{}, nil, DirectedCensusAnalysis[serialize.Unit, serialize.Unit]().Bind(&c))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 10 || c.Transitive != 10 || c.Cyclic != 0 {
		t.Errorf("tournament census = %+v (triangles %d)", c, res.Triangles)
	}
}

func TestDirectedCensusReciprocal(t *testing.T) {
	// Triangle with one bidirectional edge.
	w, g := buildDirected(t, 2, [][2]uint64{{0, 1}, {1, 0}, {1, 2}, {2, 0}})
	defer w.Close()
	var c DirectedCensus
	if _, err := Run(g, Options{}, nil, DirectedCensusAnalysis[serialize.Unit, serialize.Unit]().Bind(&c)); err != nil {
		t.Fatal(err)
	}
	if c.Reciprocal != 1 || c.Total() != 1 {
		t.Errorf("reciprocal census = %+v", c)
	}
}

func TestDirectedCensusRandomTournamentInvariant(t *testing.T) {
	// In any tournament, cyclic + transitive = C(n,3), and the number of
	// cyclic triangles equals C(n,3) − Σ_v C(outdeg(v), 2).
	rng := rand.New(rand.NewSource(8))
	const n = 12
	var arcs [][2]uint64
	out := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(2) == 0 {
				arcs = append(arcs, [2]uint64{i, j})
				out[i]++
			} else {
				arcs = append(arcs, [2]uint64{j, i})
				out[j]++
			}
		}
	}
	total := uint64(n * (n - 1) * (n - 2) / 6)
	var transWant uint64
	for _, d := range out {
		transWant += d * (d - 1) / 2
	}
	for _, mode := range []Mode{PushOnly, PushPull} {
		w, g := buildDirected(t, 4, arcs)
		var c DirectedCensus
		res, err := Run(g, Options{Mode: mode}, nil, DirectedCensusAnalysis[serialize.Unit, serialize.Unit]().Bind(&c))
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != total {
			t.Errorf("mode %v: triangles = %d, want %d", mode, res.Triangles, total)
		}
		if c.Transitive != transWant || c.Cyclic != total-transWant {
			t.Errorf("mode %v: census = %+v, want trans %d cyclic %d", mode, c, transWant, total-transWant)
		}
		w.Close()
	}
}
