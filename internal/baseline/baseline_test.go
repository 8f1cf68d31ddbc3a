package baseline

import (
	"math/rand"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

func randomEdges(rng *rand.Rand, nv, ne int) [][2]uint64 {
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	return edges
}

func TestSerialCountKnown(t *testing.T) {
	k4 := [][2]uint64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if got := SerialCount(k4); got != 4 {
		t.Errorf("K4 = %d, want 4", got)
	}
	if got := SerialCount([][2]uint64{{0, 1}, {1, 2}}); got != 0 {
		t.Errorf("path = %d, want 0", got)
	}
	// Duplicates and self-loops are tolerated.
	if got := SerialCount([][2]uint64{{0, 1}, {1, 0}, {1, 2}, {0, 2}, {2, 2}}); got != 1 {
		t.Errorf("dirty K3 = %d, want 1", got)
	}
	if got := SerialCount(nil); got != 0 {
		t.Errorf("empty = %d", got)
	}
}

func TestSerialTrianglesEnumeration(t *testing.T) {
	tris := SerialTriangles([][2]uint64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	if len(tris) != 2 {
		t.Fatalf("bowtie: %d triangles", len(tris))
	}
	for _, tri := range tris {
		set := map[uint64]bool{tri[0]: true, tri[1]: true, tri[2]: true}
		if len(set) != 3 {
			t.Errorf("degenerate triangle %v", tri)
		}
	}
}

func TestSerialLocalCounts(t *testing.T) {
	counts := SerialLocalCounts([][2]uint64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	if counts[2] != 2 || counts[0] != 1 || counts[4] != 1 {
		t.Errorf("bowtie local counts = %v", counts)
	}
}

func buildUnit(t testing.TB, nranks int, edges [][2]uint64) (*ygm.World, *graph.DODGr[serialize.Unit, serialize.Unit]) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[serialize.Unit, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		for i, e := range edges {
			if i%r.Size() == r.ID() {
				b.AddEdge(r, e[0], e[1], serialize.Unit{})
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return w, g
}

func TestDistributedBaselinesMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 4; trial++ {
		edges := randomEdges(rng, 20+rng.Intn(40), 100+rng.Intn(300))
		want := SerialCount(edges)
		for _, nranks := range []int{1, 3} {
			w, g := buildUnit(t, nranks, edges)
			if got := WedgeQueryCount(g); got.Triangles != want {
				t.Errorf("trial %d WedgeQuery/%d: %d, want %d", trial, nranks, got.Triangles, want)
			}
			if got := ReplicatedCount(g); got.Triangles != want {
				t.Errorf("trial %d Replicated/%d: %d, want %d", trial, nranks, got.Triangles, want)
			}
			if got := EdgeCentricCount(g); got.Triangles != want {
				t.Errorf("trial %d EdgeCentric/%d: %d, want %d", trial, nranks, got.Triangles, want)
			}
			w.Close()
		}
	}
}

func TestWedgeQuerySendsPerWedgeMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := randomEdges(rng, 30, 300)
	w, g := buildUnit(t, 2, edges)
	defer w.Close()
	res := WedgeQueryCount(g)
	if res.Messages != int64(g.NumWedges()) {
		t.Errorf("messages = %d, want |W+| = %d", res.Messages, g.NumWedges())
	}
	if res.Bytes == 0 || res.Duration <= 0 {
		t.Errorf("missing stats: %+v", res)
	}
}

func TestReplicatedVolumeScalesWithRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := randomEdges(rng, 40, 400)
	w2, g2 := buildUnit(t, 2, edges)
	defer w2.Close()
	w4, g4 := buildUnit(t, 4, edges)
	defer w4.Close()
	r2, r4 := ReplicatedCount(g2), ReplicatedCount(g4)
	// Full replication: broadcast volume must grow ~linearly with ranks.
	if r4.Bytes < r2.Bytes*3/2 {
		t.Errorf("replication volume did not scale: 2 ranks %d bytes, 4 ranks %d bytes", r2.Bytes, r4.Bytes)
	}
}
