package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"tripoll/internal/baseline"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// buildMeta constructs a DODGr with deterministic metadata:
// meta(v) = v*3+1 and meta(u,v) = min*1e6 + max.
func buildMeta(t testing.TB, nranks int, edges [][2]uint64, opts ygm.Options) (*ygm.World, *graph.DODGr[uint64, uint64]) {
	t.Helper()
	w := ygm.MustWorld(nranks, opts)
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{})
	var g *graph.DODGr[uint64, uint64]
	w.Parallel(func(r *ygm.Rank) {
		vset := map[uint64]bool{}
		for i, e := range edges {
			vset[e[0]] = true
			vset[e[1]] = true
			if i%r.Size() != r.ID() {
				continue
			}
			lo, hi := e[0], e[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			b.AddEdge(r, e[0], e[1], lo*1_000_000+hi)
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

func edgeMeta(u, v uint64) uint64 {
	if u > v {
		u, v = v, u
	}
	return u*1_000_000 + v
}

var (
	k3     = [][2]uint64{{0, 1}, {1, 2}, {0, 2}}
	k4     = [][2]uint64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	k5     = [][2]uint64{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}
	star   = [][2]uint64{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}
	path   = [][2]uint64{{0, 1}, {1, 2}, {2, 3}, {3, 4}}
	bowtie = [][2]uint64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}}
)

func TestCountKnownGraphs(t *testing.T) {
	cases := []struct {
		name  string
		edges [][2]uint64
		want  uint64
	}{
		{"K3", k3, 1},
		{"K4", k4, 4},
		{"K5", k5, 10},
		{"star", star, 0},
		{"path", path, 0},
		{"bowtie", bowtie, 2},
	}
	for _, c := range cases {
		for _, mode := range []Mode{PushOnly, PushPull} {
			for _, nranks := range []int{1, 2, 4} {
				w, g := buildMeta(t, nranks, c.edges, ygm.Options{})
				res, err := Run(g, Options{Mode: mode}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if res.Triangles != c.want {
					t.Errorf("%s/%v/%d ranks: count = %d, want %d", c.name, mode, nranks, res.Triangles, c.want)
				}
				w.Close()
			}
		}
	}
}

func TestCountAgainstSerialBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		nv := 20 + rng.Intn(60)
		ne := 50 + rng.Intn(400)
		edges := make([][2]uint64, ne)
		for i := range edges {
			edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
		}
		want := baseline.SerialCount(edges)
		for _, mode := range []Mode{PushOnly, PushPull} {
			w, g := buildMeta(t, 3, edges, ygm.Options{})
			res, err := Run(g, Options{Mode: mode}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Triangles != want {
				t.Errorf("trial %d mode %v: count = %d, want %d", trial, mode, res.Triangles, want)
			}
			w.Close()
		}
	}
}

func TestEnumerationMatchesSerialExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	nv, ne := 40, 300
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	want := baseline.SerialTriangles(edges)
	for _, mode := range []Mode{PushOnly, PushPull} {
		w, g := buildMeta(t, 4, edges, ygm.Options{})
		perRank := make([][][3]uint64, 4)
		s := NewSurvey(g, Options{Mode: mode}, func(r *ygm.Rank, tr *Triangle[uint64, uint64]) {
			perRank[r.ID()] = append(perRank[r.ID()], [3]uint64{tr.P, tr.Q, tr.R})
		})
		res := s.Run()
		var got [][3]uint64
		for _, s := range perRank {
			got = append(got, s...)
		}
		sort.Slice(got, func(i, j int) bool {
			a, b := got[i], got[j]
			if a[0] != b[0] {
				return a[0] < b[0]
			}
			if a[1] != b[1] {
				return a[1] < b[1]
			}
			return a[2] < b[2]
		})
		if len(got) != len(want) {
			t.Fatalf("mode %v: %d triangles, want %d", mode, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("mode %v: triangle %d = %v, want %v", mode, i, got[i], want[i])
			}
		}
		if res.Triangles != uint64(len(want)) {
			t.Errorf("mode %v: result count %d != enumerated %d", mode, res.Triangles, len(want))
		}
		w.Close()
	}
}

func TestMetadataColocationInvariant(t *testing.T) {
	// The central §4 guarantee: when the callback fires, all six metadata
	// items match the claimed vertex ids — wherever the callback runs.
	rng := rand.New(rand.NewSource(5))
	nv, ne := 30, 250
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	deg := map[uint64]uint32{}
	seen := map[[2]uint64]bool{}
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if !seen[[2]uint64{u, v}] {
			seen[[2]uint64{u, v}] = true
			deg[u]++
			deg[v]++
		}
	}
	for _, mode := range []Mode{PushOnly, PushPull} {
		w, g := buildMeta(t, 4, edges, ygm.Options{})
		s := NewSurvey(g, Options{Mode: mode}, func(r *ygm.Rank, tr *Triangle[uint64, uint64]) {
			if tr.MetaP != tr.P*3+1 || tr.MetaQ != tr.Q*3+1 || tr.MetaR != tr.R*3+1 {
				t.Errorf("mode %v: vertex metadata mismatch on Δ(%d,%d,%d): %d %d %d",
					mode, tr.P, tr.Q, tr.R, tr.MetaP, tr.MetaQ, tr.MetaR)
			}
			if tr.MetaPQ != edgeMeta(tr.P, tr.Q) || tr.MetaPR != edgeMeta(tr.P, tr.R) || tr.MetaQR != edgeMeta(tr.Q, tr.R) {
				t.Errorf("mode %v: edge metadata mismatch on Δ(%d,%d,%d)", mode, tr.P, tr.Q, tr.R)
			}
			if !graph.Less(deg[tr.P], tr.P, deg[tr.Q], tr.Q) || !graph.Less(deg[tr.Q], tr.Q, deg[tr.R], tr.R) {
				t.Errorf("mode %v: triangle (%d,%d,%d) not in <+ order", mode, tr.P, tr.Q, tr.R)
			}
		})
		s.Run()
		w.Close()
	}
}

func TestPushPullEqualsPushOnlyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nranks := 1 + rng.Intn(4)
		nv := 5 + rng.Intn(40)
		ne := rng.Intn(300)
		edges := make([][2]uint64, ne)
		for i := range edges {
			edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
		}
		want := baseline.SerialCount(edges)
		w, g := buildMeta(t, nranks, edges, ygm.Options{})
		defer w.Close()
		a, err := Run(g, Options{Mode: PushOnly}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(g, Options{Mode: PushPull}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a.Triangles == want && b.Triangles == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestPullFactorExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nv, ne := 40, 400
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	want := baseline.SerialCount(edges)
	grants := map[float64]uint64{}
	for _, pf := range []float64{1e-9, 0.5, 1.0, 2.0, 1e9} {
		w, g := buildMeta(t, 3, edges, ygm.Options{})
		res, err := Run(g, Options{Mode: PushPull, PullFactor: pf}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Errorf("PullFactor %g: count = %d, want %d", pf, res.Triangles, want)
		}
		grants[pf] = res.PullsGranted
		w.Close()
	}
	if grants[1e-9] == 0 {
		t.Error("tiny PullFactor should grant pulls")
	}
	// Raising the factor can only make pulling less attractive. (A huge
	// factor still grants pulls for zero-out-degree targets: the paper's
	// inequality |Adj+(q)| < vol holds trivially at 0, and shipping an
	// empty list beats receiving vol candidate edges.)
	if grants[1e-9] < grants[1.0] || grants[1.0] < grants[1e9] {
		t.Errorf("grants not monotone in PullFactor: %v", grants)
	}
}

func TestPullFactorClampsNonPositive(t *testing.T) {
	// A negative factor would flip the dry-run pull inequality: every
	// target with a non-empty adjacency would satisfy |Adj+|·PF < vol and
	// grant a pull, degrading Push-Pull into nonsense grants. Non-positive
	// (and NaN) factors must clamp to the paper's 1.0 and behave
	// identically to it.
	rng := rand.New(rand.NewSource(4))
	nv, ne := 40, 400
	edges := make([][2]uint64, ne)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	want := baseline.SerialCount(edges)
	w, g := buildMeta(t, 3, edges, ygm.Options{})
	defer w.Close()
	ref, err := Run(g, Options{Mode: PushPull, PullFactor: 1.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Triangles != want {
		t.Fatalf("reference count = %d, want %d", ref.Triangles, want)
	}
	for _, pf := range []float64{-1.0, -1e9, 0, math.NaN()} {
		res, err := Run(g, Options{Mode: PushPull, PullFactor: pf}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Errorf("PullFactor %v: count = %d, want %d", pf, res.Triangles, want)
		}
		if res.PullsGranted != ref.PullsGranted {
			t.Errorf("PullFactor %v: grants = %d, want the clamped default's %d",
				pf, res.PullsGranted, ref.PullsGranted)
		}
	}
}

func TestSurveyOverTCPTransport(t *testing.T) {
	want := baseline.SerialCount(k5)
	w, g := buildMeta(t, 3, k5, ygm.Options{Transport: ygm.TransportTCP})
	defer w.Close()
	for _, mode := range []Mode{PushOnly, PushPull} {
		res, err := Run(g, Options{Mode: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Triangles != want {
			t.Errorf("tcp/%v: count = %d, want %d", mode, res.Triangles, want)
		}
	}
}

func TestSurveyRerunnable(t *testing.T) {
	w, g := buildMeta(t, 2, k4, ygm.Options{})
	defer w.Close()
	s := NewSurvey(g, Options{}, nil)
	for i := 0; i < 3; i++ {
		if res := s.Run(); res.Triangles != 4 {
			t.Errorf("run %d: count = %d", i, res.Triangles)
		}
	}
}

func TestResultPhaseAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edges := make([][2]uint64, 600)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(50)), uint64(rng.Intn(50))}
	}
	w, g := buildMeta(t, 4, edges, ygm.Options{})
	defer w.Close()

	po, err := Run(g, Options{Mode: PushOnly}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if po.Push.Bytes == 0 || po.Push.Messages == 0 {
		t.Errorf("push-only: empty push phase stats: %+v", po.Push)
	}
	if po.DryRun.Bytes != 0 || po.Pull.Bytes != 0 {
		t.Error("push-only must not use dry-run/pull phases")
	}
	if po.WedgeChecks == 0 {
		t.Error("no wedge checks recorded")
	}

	pp, err := Run(g, Options{Mode: PushPull}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pp.DryRun.Bytes == 0 {
		t.Error("push-pull: dry run sent no bytes")
	}
	if pp.Triangles != po.Triangles {
		t.Errorf("mode mismatch: %d vs %d", pp.Triangles, po.Triangles)
	}
	if pp.Total <= 0 || po.Total <= 0 {
		t.Error("total duration not recorded")
	}
}

func TestLocalVertexCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edges := make([][2]uint64, 200)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(25)), uint64(rng.Intn(25))}
	}
	want := baseline.SerialLocalCounts(edges)
	w, g := buildMeta(t, 3, edges, ygm.Options{})
	defer w.Close()
	var got map[uint64]uint64
	res, err := Run(g, Options{}, nil, VertexCountAnalysis[uint64, uint64]().Bind(&got))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != baseline.SerialCount(edges) {
		t.Errorf("count = %d", res.Triangles)
	}
	if len(got) != len(want) {
		t.Fatalf("local counts: %d vertices, want %d", len(got), len(want))
	}
	for v, c := range want {
		if got[v] != c {
			t.Errorf("t(%d) = %d, want %d", v, got[v], c)
		}
	}
}

func TestClusteringCoefficientsK4(t *testing.T) {
	w, g := buildMeta(t, 2, k4, ygm.Options{})
	defer w.Close()
	var acc ClusteringAccum
	if _, err := Run(g, Options{}, nil, ClusteringAnalysis(g).Bind(&acc)); err != nil {
		t.Fatal(err)
	}
	cs := acc.Stats
	if cs.Average != 1.0 {
		t.Errorf("K4 average cc = %v, want 1", cs.Average)
	}
	if cs.Global != 1.0 {
		t.Errorf("K4 transitivity = %v, want 1", cs.Global)
	}
	if cs.Triangles != 4 || cs.Wedges != 12 {
		t.Errorf("K4 stats: %+v", cs)
	}
}

func TestClusteringCoefficientsBowtie(t *testing.T) {
	w, g := buildMeta(t, 2, bowtie, ygm.Options{})
	defer w.Close()
	var acc ClusteringAccum
	if _, err := Run(g, Options{}, nil, ClusteringAnalysis(g).Bind(&acc)); err != nil {
		t.Fatal(err)
	}
	cs := acc.Stats
	// Bowtie: center vertex 2 has d=4, t=2 → cc = 2·2/(4·3) = 1/3; the four
	// outer vertices have d=2, t=1 → cc = 1. Average = (4 + 1/3)/5 = 13/15.
	want := 13.0 / 15.0
	if diff := cs.Average - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("bowtie average cc = %v, want %v", cs.Average, want)
	}
	// Transitivity: 3·2 / (C(4,2) + 4·C(2,2)) = 6/10.
	if diff := cs.Global - 0.6; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("bowtie transitivity = %v, want 0.6", cs.Global)
	}
}

func TestMaxEdgeLabelDistribution(t *testing.T) {
	// Two triangles sharing vertex 2 (bowtie). With meta(v)=v·3+1 all
	// labels are distinct, so both triangles count. Max edge label of
	// Δ(0,1,2) = edgeMeta(1,2); of Δ(2,3,4) = edgeMeta(3,4).
	w, g := buildMeta(t, 3, bowtie, ygm.Options{})
	defer w.Close()
	var dist map[uint64]uint64
	res, err := Run(g, Options{}, nil, MaxEdgeLabelAnalysis[uint64](true).Bind(&dist))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 {
		t.Fatalf("count = %d", res.Triangles)
	}
	if dist[edgeMeta(1, 2)] != 1 || dist[edgeMeta(3, 4)] != 1 {
		t.Errorf("distribution = %v", dist)
	}
}

func TestDegreeTriplesSurvey(t *testing.T) {
	// Vertex metadata = degree. K4: every vertex degree 3, ⌈log₂3⌉ = 2.
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	b := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.UnitCodec(), graph.BuilderOptions[serialize.Unit]{})
	var g *graph.DODGr[uint64, serialize.Unit]
	w.Parallel(func(r *ygm.Rank) {
		if r.ID() == 0 {
			for _, e := range k4 {
				b.AddEdge(r, e[0], e[1], serialize.Unit{})
			}
			for v := uint64(0); v < 4; v++ {
				b.SetVertexMeta(r, v, 3) // d(v) in K4
			}
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	var dist map[DegreeTriple]uint64
	res, err := Run(g, Options{}, nil, DegreeTripleAnalysis[serialize.Unit]().Bind(&dist))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 4 {
		t.Fatalf("count = %d", res.Triangles)
	}
	key := DegreeTriple{First: 2, Second: 2, Third: 2}
	if dist[key] != 4 || len(dist) != 1 {
		t.Errorf("distribution = %v", dist)
	}
}

func TestClosureTimes(t *testing.T) {
	// Triangle with timestamps 10, 14, 74: t1=10 t2=14 t3=74.
	// open = ceil(log2(4)) = 2, close = ceil(log2(64)) = 6.
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		if r.ID() == 0 {
			b.AddEdge(r, 0, 1, 10)
			b.AddEdge(r, 1, 2, 14)
			b.AddEdge(r, 0, 2, 74)
			// Second triangle closed instantly: all timestamps equal.
			b.AddEdge(r, 5, 6, 100)
			b.AddEdge(r, 6, 7, 100)
			b.AddEdge(r, 5, 7, 100)
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	var joint *stats.Joint2D
	res, err := Run(g, Options{}, nil, ClosureTimeAnalysis[serialize.Unit]().Bind(&joint))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 {
		t.Fatalf("count = %d", res.Triangles)
	}
	if joint.Count(2, 6) != 1 {
		t.Errorf("expected (2,6) bucket, joint = %v", joint)
	}
	if joint.Count(-1, -1) != 1 {
		t.Errorf("expected instantaneous (-1,-1) bucket")
	}
	if joint.Total() != 2 {
		t.Errorf("joint total = %d", joint.Total())
	}
}

func TestModeString(t *testing.T) {
	if PushPull.String() != "push-pull" || PushOnly.String() != "push-only" || Mode(9).String() != "unknown-mode" {
		t.Error("Mode.String")
	}
}

func TestEmptyGraphSurvey(t *testing.T) {
	w, g := buildMeta(t, 2, [][2]uint64{{1, 2}}, ygm.Options{})
	defer w.Close()
	for _, mode := range []Mode{PushOnly, PushPull} {
		if res, err := Run(g, Options{Mode: mode}, nil); err != nil {
			t.Fatal(err)
		} else if res.Triangles != 0 {
			t.Errorf("single edge graph: %d triangles", res.Triangles)
		}
	}
}
