package analysis

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"tripoll/internal/gen"
)

// naivePeel is the differential reference for the dense kernel: the
// textbook peel over maps, one minimum-support edge at a time at the
// running-maximum level, decrementing the other two edges of every
// topological triangle still alive — quadratic, and nothing shared with
// the kernel. edges must be normalized; sup gets the kernel's clamp.
func naivePeel(edges []Edge, sup []int32) []int32 {
	m := int32(len(edges))
	id := make(map[Edge]int, m)
	adj := map[uint64]map[uint64]bool{}
	s := make([]int32, m)
	for i, e := range edges {
		id[e] = i
		s[i] = max(0, min(sup[i], m))
		for _, d := range [2]Edge{e, {U: e.V, V: e.U}} {
			if adj[d.U] == nil {
				adj[d.U] = map[uint64]bool{}
			}
			adj[d.U][d.V] = true
		}
	}
	k := make([]int32, m)
	level := int32(0)
	for range edges {
		best := -1
		for i := range edges {
			if k[i] == 0 && (best < 0 || s[i] < s[best]) {
				best = i
			}
		}
		level = max(level, s[best])
		k[best] = level + 2
		e := edges[best]
		delete(adj[e.U], e.V)
		delete(adj[e.V], e.U)
		for w := range adj[e.U] {
			if adj[e.V][w] {
				s[id[Canon(e.U, w)]]--
				s[id[Canon(e.V, w)]]--
			}
		}
	}
	return k
}

// naiveSupports counts each normalized edge's triangles by set lookups.
func naiveSupports(edges []Edge) []int32 {
	has := make(map[Edge]bool, len(edges))
	verts := map[uint64]bool{}
	for _, e := range edges {
		has[e] = true
		verts[e.U], verts[e.V] = true, true
	}
	sup := make([]int32, len(edges))
	for i, e := range edges {
		for w := range verts {
			if w != e.U && w != e.V && has[Canon(e.U, w)] && has[Canon(e.V, w)] {
				sup[i]++
			}
		}
	}
	return sup
}

// checkAgainstNaive runs every entry point over one raw edge list (any
// order, duplicates and self-loops allowed) and the supplied supports
// skew(true support), and compares each with the reference.
func checkAgainstNaive(t *testing.T, label string, raw []Edge, skew func(i int, s int32) int32) {
	t.Helper()
	es := normalize(slices.Clone(raw))
	exact := naiveSupports(es)

	got := Decompose(slices.Clone(raw))
	if !slices.Equal(got.Edges, es) {
		t.Fatalf("%s: Decompose edges = %v, want %v", label, got.Edges, es)
	}
	if want := naivePeel(es, exact); !slices.Equal(got.K, want) {
		t.Fatalf("%s: Decompose ≠ reference\n edges %v\n got  %v\n want %v", label, es, got.K, want)
	}

	sup := make([]int32, len(es))
	counts := make(map[Edge]uint64, len(es))
	for i, e := range es {
		sup[i] = skew(i, exact[i])
		counts[e] = uint64(sup[i])
	}
	want := naivePeel(es, sup)
	fromMap := TrussFromSupports(slices.Clone(raw), counts)
	if len(fromMap) != len(es) {
		t.Fatalf("%s: TrussFromSupports has %d edges, want %d", label, len(fromMap), len(es))
	}
	dense := Peel(es, slices.Clone(sup))
	for i, e := range es {
		if dense.K[i] != want[i] || fromMap[e] != int(want[i]) {
			t.Fatalf("%s: edge %v support %d (true %d): Peel %d, TrussFromSupports %d, reference %d",
				label, e, sup[i], exact[i], dense.K[i], fromMap[e], want[i])
		}
	}
}

// TestPeelMatchesNaiveProperty: the dense kernel ≡ the naive peel on random
// graphs with duplicate edges and self-loops, on the degenerate shapes, and
// under supplied supports that are exact, under-counted (what a δ filter
// does to an index window) and over-counted.
func TestPeelMatchesNaiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	skews := []struct {
		name string
		fn   func(i int, s int32) int32
	}{
		{"exact", func(_ int, s int32) int32 { return s }},
		{"under", func(_ int, s int32) int32 { return s - int32(rng.Intn(int(s)+1)) }},
		{"over", func(_ int, s int32) int32 { return s + int32(rng.Intn(4)) }},
		{"absurd", func(i int, s int32) int32 { return s + int32(i%3)*1_000_000 }},
	}
	type shape struct {
		name string
		raw  [][2]uint64
	}
	shapes := []shape{
		{"empty", nil},
		{"one-edge", [][2]uint64{{7, 3}}},
		{"loop-only", [][2]uint64{{4, 4}}},
		{"K6", gen.Complete(6)},
		{"K4+K5", append(gen.Complete(4), shift(gen.Complete(5), 3)...)},
	}
	for trial := 0; trial < 40; trial++ {
		n := uint64(4 + rng.Intn(36))
		raw := gen.ErdosRenyi(n, 1+rng.Intn(int(n*n/3)), int64(trial))
		if trial%2 == 0 {
			raw = gen.BarabasiAlbert(n, 2+rng.Intn(4), int64(trial))
		}
		for i := rng.Intn(8); i > 0; i-- { // duplicates (either direction) and loops
			e := raw[rng.Intn(len(raw))]
			raw = append(raw, [2]uint64{e[1], e[0]}, [2]uint64{e[0], e[0]})
		}
		rng.Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
		shapes = append(shapes, shape{fmt.Sprintf("random-%d", trial), raw})
	}
	for _, sh := range shapes {
		for _, sk := range skews {
			checkAgainstNaive(t, sh.name+"/"+sk.name, edgesOf(sh.raw), sk.fn)
		}
	}
}

func shift(raw [][2]uint64, by uint64) [][2]uint64 {
	out := make([][2]uint64, len(raw))
	for i, e := range raw {
		out[i] = [2]uint64{e[0] + by, e[1] + by}
	}
	return out
}

// FuzzPeel: any byte string read as (u, v, support) triples must decompose
// without panicking and agree with the reference, through the normalizing
// map entry point and the dense one.
func FuzzPeel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 0, 2, 1, 2, 3, 0})
	f.Add([]byte{1, 1, 9, 2, 1, 200, 1, 2, 0, 3, 1, 255, 3, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*400 {
			data = data[:3*400] // the reference is quadratic
		}
		var raw []Edge
		byEdge := map[Edge]int32{}
		for ; len(data) >= 3; data = data[3:] {
			e := Edge{U: uint64(data[0] % 32), V: uint64(data[1] % 32)}
			raw = append(raw, e)
			byEdge[Canon(e.U, e.V)] = int32(data[2])
		}
		es := normalize(slices.Clone(raw))
		checkAgainstNaive(t, "fuzz", raw, func(i int, _ int32) int32 { return byEdge[es[i]] })
	})
}

// redditEdges returns the first m distinct undirected edges of a RedditLike
// event stream shaped like the benchmark's (bench/script.go drawEvents).
func redditEdges(tb testing.TB, m int) []Edge {
	tb.Helper()
	p := gen.DefaultRedditParams()
	p.Events = 10 * m
	p.Users = uint64(p.Events / 8)
	seen := make(map[Edge]bool, m)
	out := make([]Edge, 0, m)
	for _, ev := range gen.RedditLike(p) {
		if e := Canon(ev.U, ev.V); ev.U != ev.V && !seen[e] && len(out) < m {
			seen[e] = true
			out = append(out, e)
		}
	}
	if len(out) < m {
		tb.Fatalf("RedditLike gave %d distinct edges, want %d", len(out), m)
	}
	return normalize(out)
}

// TestKernelAllocsIndependentOfSize is the complexity guard that does not
// read a clock: the kernel's allocation count is one small constant
// whatever the graph, so a per-edge or per-vertex map, a per-level queue or
// a growing scratch buffer cannot creep back in unseen.
func TestKernelAllocsIndependentOfSize(t *testing.T) {
	// No collections while counting: a GC cycle runs runtime clean-ups that
	// allocate, and the larger graph triggers more cycles.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(m int) (peel, decompose float64) {
		es := redditEdges(t, m)
		exact := buildCSR(es).supports()
		sup := make([]int32, len(es))
		peel = testing.AllocsPerRun(5, func() {
			copy(sup, exact)
			Peel(es, sup)
		})
		decompose = testing.AllocsPerRun(5, func() { Decompose(es) })
		return peel, decompose
	}
	p1, d1 := measure(1_000)
	p16, d16 := measure(16_000)
	if p1 != p16 || d1 != d16 {
		t.Errorf("allocations grow with the graph: Peel %.0f → %.0f, Decompose %.0f → %.0f (m = 1k → 16k)", p1, p16, d1, d16)
	}
	const budget = 10
	if p16 > budget || d16 > budget {
		t.Errorf("Peel %.0f, Decompose %.0f allocations; budget %d", p16, d16, budget)
	}
}

// BenchmarkPeel times the whole kernel — CSR build, support count, bucket
// peel — on RedditLike graphs of the benchmark's shape. EXPERIMENTS.md's
// truss section records these against the map-based peel they replaced.
func BenchmarkPeel(b *testing.B) {
	for _, m := range []int{5_000, 50_000, 200_000} {
		b.Run(fmt.Sprintf("edges=%d", m), func(b *testing.B) {
			es := redditEdges(b, m)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = Decompose(es)
			}
			b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

var benchSink Trussness
