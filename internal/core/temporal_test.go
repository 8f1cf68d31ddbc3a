package core

import (
	"testing"

	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

func buildTimestamped(t testing.TB, nranks int, edges []graph.TemporalEdge) (*ygm.World, *graph.DODGr[serialize.Unit, uint64]) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		MergeEdgeMeta: func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		},
	})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i, e := range edges {
			if i%r.Size() == r.ID() {
				b.AddEdge(r, e.U, e.V, e.Time)
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return w, g
}

func TestTemporalWindowCountSmall(t *testing.T) {
	// Two triangles: one spanning 10 time units, one spanning 1000.
	edges := []graph.TemporalEdge{
		{U: 0, V: 1, Time: 100}, {U: 1, V: 2, Time: 105}, {U: 0, V: 2, Time: 110},
		{U: 5, V: 6, Time: 100}, {U: 6, V: 7, Time: 600}, {U: 5, V: 7, Time: 1100},
	}
	w, g := buildTimestamped(t, 3, edges)
	defer w.Close()
	var within uint64
	res, err := Run(g, Options{}, nil, TemporalWindowAnalysis[serialize.Unit](10).Bind(&within))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 || within != 1 {
		t.Errorf("delta=10: within=%d total=%d", within, res.Triangles)
	}
	// The tight triangle spans exactly 10; delta 9 excludes it.
	if _, err := Run(g, Options{}, nil, TemporalWindowAnalysis[serialize.Unit](9).Bind(&within)); err != nil {
		t.Fatal(err)
	}
	if within != 0 {
		t.Errorf("delta=9: within=%d, want 0", within)
	}
	if _, err := Run(g, Options{}, nil, TemporalWindowAnalysis[serialize.Unit](1000).Bind(&within)); err != nil {
		t.Fatal(err)
	}
	if within != 2 {
		t.Errorf("delta=1000: within=%d, want 2", within)
	}
}

func TestTemporalWindowSweepMonotone(t *testing.T) {
	p := gen.DefaultRedditParams()
	p.Users = 500
	p.Events = 6000
	edges := gen.RedditLike(p)
	w, g := buildTimestamped(t, 4, edges)
	defer w.Close()
	deltas := []uint64{0, 100, 10_000, 1 << 40}
	var counts []uint64
	res, err := Run(g, Options{}, nil, TemporalSweepAnalysis[serialize.Unit](deltas).Bind(&counts))
	if err != nil {
		t.Fatal(err)
	}
	if counts[3] != res.Triangles {
		t.Errorf("unbounded window %d != total %d", counts[3], res.Triangles)
	}
	// Monotone in delta.
	prev := uint64(0)
	for i := range deltas {
		if counts[i] < prev {
			t.Errorf("window counts not monotone: %v", counts)
		}
		prev = counts[i]
	}
	// Sweep agrees with individual windows.
	for i, d := range deltas[:3] {
		var within uint64
		if _, err := Run(g, Options{}, nil, TemporalWindowAnalysis[serialize.Unit](d).Bind(&within)); err != nil {
			t.Fatal(err)
		}
		if within != counts[i] {
			t.Errorf("sweep[%d] = %d, individual = %d", d, counts[i], within)
		}
	}
}
