package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// The fusion equivalence property: Run(g, opts, plan, a1, a2, …) produces
// results identical — rendered byte-for-byte — to running each analysis
// alone, across both modes, both ordering strategies, and planned as well
// as unplanned surveys. Fusing analyses must change only the traffic, never
// any answer.

// canon renders an analysis result deterministically (map keys sorted) so
// equality can be checked byte-for-byte.
func canon(v any) string {
	switch m := v.(type) {
	case uint64:
		return fmt.Sprintf("%d", m)
	case []uint64:
		return fmt.Sprintf("%v", m)
	case map[uint64]uint64:
		keys := make([]uint64, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%d:%d;", k, m[k])
		}
		return sb.String()
	case map[EdgeKey]uint64:
		keys := make([]EdgeKey, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].First != keys[j].First {
				return keys[i].First < keys[j].First
			}
			return keys[i].Second < keys[j].Second
		})
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%d-%d:%d;", k.First, k.Second, m[k])
		}
		return sb.String()
	case LabelIndex[uint64]:
		keys := make([]LabelIndexKey[uint64], 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.Edge != b.Edge {
				if a.Edge.First != b.Edge.First {
					return a.Edge.First < b.Edge.First
				}
				return a.Edge.Second < b.Edge.Second
			}
			return a.Label < b.Label
		})
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%d-%d/%d:%d;", k.Edge.First, k.Edge.Second, k.Label, m[k])
		}
		return sb.String()
	case *stats.Joint2D:
		return m.Render("", "x", "y") + fmt.Sprintf("|total=%d", m.Total())
	default:
		t := fmt.Sprintf("%#v", v)
		return t
	}
}

func TestFusedEquivalentToSolo(t *testing.T) {
	plans := []struct {
		name string
		mk   func() *Plan[uint64]
	}{
		{"unplanned", func() *Plan[uint64] { return nil }},
		{"delta", func() *Plan[uint64] { return TemporalPlan().CloseWithin(200) }},
		{"edgepred+window", func() *Plan[uint64] {
			return TemporalPlan().WhereEdge(func(em uint64) bool { return em%3 != 0 }).Window(50, 900)
		}},
	}
	rng := rand.New(rand.NewSource(23))
	nv := 45
	edges := make([][2]uint64, 400)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(nv)), uint64(rng.Intn(nv))}
	}
	const nranks = 4
	for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
		w := ygm.MustWorld(nranks, ygm.Options{})
		g := buildWithTimesOrdered(t, w, edges, hashTime, ord)
		for _, mode := range []Mode{PushOnly, PushPull} {
			for _, pc := range plans {
				name := fmt.Sprintf("%s/%s/%s", ord, mode, pc.name)

				// The stock analyses under test, each with a solo-run and a
				// fused-run output slot.
				var soloCount, fusedCount uint64
				var soloVerts, fusedVerts map[uint64]uint64
				var soloEdges, fusedEdges map[EdgeKey]uint64
				var soloJoint, fusedJoint *stats.Joint2D
				var soloLabels, fusedLabels map[uint64]uint64
				var soloIx, fusedIx LabelIndex[uint64]
				var soloSweep, fusedSweep []uint64
				deltas := []uint64{50, 400, 150}

				solo := []struct {
					att Attached[uint64, uint64]
					out func() any
				}{
					{CountAnalysis[uint64, uint64]().Bind(&soloCount), func() any { return soloCount }},
					{VertexCountAnalysis[uint64, uint64]().Bind(&soloVerts), func() any { return soloVerts }},
					{EdgeCountAnalysis[uint64, uint64]().Bind(&soloEdges), func() any { return soloEdges }},
					{ClosureTimeAnalysis[uint64]().Bind(&soloJoint), func() any { return soloJoint }},
					{MaxEdgeLabelAnalysis[uint64](true).Bind(&soloLabels), func() any { return soloLabels }},
					{LabelIndexAnalysis[uint64, uint64]().Bind(&soloIx), func() any { return soloIx }},
					{TemporalSweepAnalysis[uint64](deltas).Bind(&soloSweep), func() any { return soloSweep }},
				}
				fusedAtt := []Attached[uint64, uint64]{
					CountAnalysis[uint64, uint64]().Bind(&fusedCount),
					VertexCountAnalysis[uint64, uint64]().Bind(&fusedVerts),
					EdgeCountAnalysis[uint64, uint64]().Bind(&fusedEdges),
					ClosureTimeAnalysis[uint64]().Bind(&fusedJoint),
					MaxEdgeLabelAnalysis[uint64](true).Bind(&fusedLabels),
					LabelIndexAnalysis[uint64, uint64]().Bind(&fusedIx),
					TemporalSweepAnalysis[uint64](deltas).Bind(&fusedSweep),
				}
				fusedOut := []func() any{
					func() any { return fusedCount },
					func() any { return fusedVerts },
					func() any { return fusedEdges },
					func() any { return fusedJoint },
					func() any { return fusedLabels },
					func() any { return fusedIx },
					func() any { return fusedSweep },
				}

				var soloMsgs, soloBytes int64
				var soloTriangles uint64
				for i, s := range solo {
					res, err := Run(g, Options{Mode: mode}, pc.mk(), s.att)
					if err != nil {
						t.Fatalf("%s: solo run %d: %v", name, i, err)
					}
					soloMsgs += totalMsgs(res)
					soloBytes += totalBytes(res)
					soloTriangles = res.Triangles
				}
				fres, err := Run(g, Options{Mode: mode}, pc.mk(), fusedAtt...)
				if err != nil {
					t.Fatalf("%s: fused run: %v", name, err)
				}
				if fres.Triangles != soloTriangles {
					t.Fatalf("%s: fused enumerated %d triangles, solo %d", name, fres.Triangles, soloTriangles)
				}
				for i, s := range solo {
					want, got := canon(s.out()), canon(fusedOut[i]())
					if want != got {
						t.Errorf("%s: analysis %q differs fused vs solo:\nfused: %s\nsolo:  %s",
							name, fusedAtt[i].AnalysisName(), got, want)
					}
				}
				// Fusing k analyses must cost exactly one traversal: 1/k of
				// the sequential messages (phase traffic does not depend on
				// attached analyses, only on graph, mode and plan). Bytes
				// carry per-batch framing whose flush boundaries depend on
				// scheduling, so they only reduce strictly, not exactly.
				k := int64(len(solo))
				if totalMsgs(fres)*k != soloMsgs {
					t.Errorf("%s: fused moved %d msgs; %d sequential runs moved %d (want exactly k×)",
						name, totalMsgs(fres), k, soloMsgs)
				}
				if soloMsgs > 0 && (totalMsgs(fres) >= soloMsgs || totalBytes(fres) >= soloBytes) {
					t.Errorf("%s: fused traffic %d msgs/%d bytes not strictly below sequential %d/%d",
						name, totalMsgs(fres), totalBytes(fres), soloMsgs, soloBytes)
				}
				wantNames := make([]string, len(fusedAtt))
				for i, a := range fusedAtt {
					wantNames[i] = a.AnalysisName()
				}
				if !reflect.DeepEqual(fres.Analyses, wantNames) {
					t.Errorf("%s: Result.Analyses = %v, want %v", name, fres.Analyses, wantNames)
				}
			}
		}
		w.Close()
	}
}

// TestReduceAcrossRankCounts exercises the tree reduction at power-of-two
// and odd world sizes: merged accumulators must agree with the engine's
// own triangle count at every size.
func TestReduceAcrossRankCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	edges := make([][2]uint64, 300)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(30)), uint64(rng.Intn(30))}
	}
	var wantCount uint64
	var wantVerts map[uint64]uint64
	for i, nranks := range []int{1, 2, 3, 5, 8} {
		w := ygm.MustWorld(nranks, ygm.Options{})
		g := buildWithTimes(t, w, edges, hashTime)
		var count uint64
		var verts map[uint64]uint64
		res, err := Run(g, Options{},
			nil,
			CountAnalysis[uint64, uint64]().Bind(&count),
			VertexCountAnalysis[uint64, uint64]().Bind(&verts),
		)
		if err != nil {
			t.Fatalf("%d ranks: %v", nranks, err)
		}
		if count != res.Triangles {
			t.Errorf("%d ranks: count analysis %d != Result.Triangles %d", nranks, count, res.Triangles)
		}
		var sum uint64
		for _, c := range verts {
			sum += c
		}
		if sum != 3*res.Triangles {
			t.Errorf("%d ranks: vertex counts sum %d, want 3·|T| = %d", nranks, sum, 3*res.Triangles)
		}
		if i == 0 {
			wantCount, wantVerts = count, verts
		} else {
			if count != wantCount || !reflect.DeepEqual(verts, wantVerts) {
				t.Errorf("%d ranks: results differ from 1-rank run", nranks)
			}
		}
		w.Close()
	}
}

// TestSweepSingleTraversal asserts the satellite claim directly: a
// TemporalSweepAnalysis over many deltas reports the phase stats of a
// *single* traversal — identical to one bare count of the same graph in
// the same mode — and names the sweep in Result.Analyses.
func TestSweepSingleTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := make([][2]uint64, 350)
	for i := range edges {
		edges[i] = [2]uint64{uint64(rng.Intn(40)), uint64(rng.Intn(40))}
	}
	const nranks = 4
	w := ygm.MustWorld(nranks, ygm.Options{})
	g := buildWithTimes(t, w, edges, hashTime)
	defer w.Close()
	deltas := []uint64{10, 100, 400, 999}
	for _, mode := range []Mode{PushOnly, PushPull} {
		var counts []uint64
		res, err := Run(g, Options{Mode: mode}, nil, TemporalSweepAnalysis[uint64](deltas).Bind(&counts))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Run(g, Options{Mode: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if totalMsgs(res) != totalMsgs(ref) || totalBytes(res) != totalBytes(ref) {
			t.Errorf("%s: sweep over %d deltas moved %d msgs/%d bytes; a single traversal moves %d/%d",
				mode, len(deltas), totalMsgs(res), totalBytes(res), totalMsgs(ref), totalBytes(ref))
		}
		if res.WedgeChecks != ref.WedgeChecks {
			t.Errorf("%s: sweep performed %d wedge checks, single traversal %d",
				mode, res.WedgeChecks, ref.WedgeChecks)
		}
		want := []string{fmt.Sprintf("sweep[%d deltas]", len(deltas))}
		if !reflect.DeepEqual(res.Analyses, want) {
			t.Errorf("%s: Result.Analyses = %v, want %v", mode, res.Analyses, want)
		}
		// Every per-delta answer must match its standalone windowed count.
		for i, d := range deltas {
			var within uint64
			one, err := Run(g, Options{Mode: mode}, nil, TemporalWindowAnalysis[uint64](d).Bind(&within))
			if err != nil {
				t.Fatal(err)
			}
			if counts[i] != within {
				t.Errorf("%s: sweep[δ=%d] = %d, standalone window count %d", mode, d, counts[i], within)
			}
			if one.Triangles != res.Triangles {
				t.Errorf("%s: standalone total %d, sweep traversal saw %d", mode, one.Triangles, res.Triangles)
			}
		}
		// Monotonicity over sorted deltas (sanity on the shared spread).
		if counts[0] > counts[1] || counts[1] > counts[2] || counts[2] > counts[3] {
			t.Errorf("%s: sweep counts not monotone in delta: %v", mode, counts)
		}
	}
}

// TestClusteringAnalysisKnownGraph pins the clustering analysis to closed
// forms on K4: every vertex has cc = 1, transitivity 1, 4 triangles, 12
// wedges.
func TestClusteringAnalysisKnownGraph(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	edges := [][2]uint64{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	g := buildWithTimes(t, w, edges, func(lo, hi uint64) uint64 { return lo + hi })
	var acc ClusteringAccum
	res, err := Run(g, Options{}, nil, ClusteringAnalysis(g).Bind(&acc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 4 {
		t.Fatalf("K4 has 4 triangles, engine found %d", res.Triangles)
	}
	s := acc.Stats
	if s.Average != 1.0 || s.Global != 1.0 || s.Triangles != 4 || s.Wedges != 12 {
		t.Errorf("K4 clustering = %+v, want Average=1 Global=1 Triangles=4 Wedges=12", s)
	}
}

// TestRunNoAnalyses pins the degenerate form: Run with no analyses is the
// bare count, with an empty (but attributable) Analyses list; a bare
// Survey.Run leaves Analyses nil.
func TestRunNoAnalyses(t *testing.T) {
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	edges := [][2]uint64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 0}}
	g := buildWithTimes(t, w, edges, func(lo, hi uint64) uint64 { return 0 })
	res, err := Run[uint64, uint64](g, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Triangles != 2 { // Δ012 and Δ023
		t.Fatalf("triangles = %d, want 2", res.Triangles)
	}
	if res.Analyses == nil || len(res.Analyses) != 0 {
		t.Errorf("Run with no analyses: Analyses = %#v, want empty non-nil", res.Analyses)
	}
	if bare := NewSurvey(g, Options{}, nil).Run(); bare.Analyses != nil {
		t.Errorf("bare Survey.Run: Analyses = %#v, want nil", bare.Analyses)
	}
	if _, err := Run[uint64, uint64](g, Options{}, NewPlan[uint64]().CloseWithin(5)); err == nil {
		t.Error("Run accepted a temporal plan without a Timestamps accessor")
	}
	// Malformed analyses are rejected up front, not mid-reduction.
	var out uint64
	noMerge := Analysis[uint64, uint64, uint64]{
		Name:    "no-merge",
		Observe: func(_ *ygm.Rank, acc uint64, _ *Triangle[uint64, uint64]) uint64 { return acc + 1 },
	}
	if _, err := Run(g, Options{}, nil, noMerge.Bind(&out)); err == nil {
		t.Error("Run accepted a Merge-less analysis on a multi-rank world")
	}
	noObserve := Analysis[uint64, uint64, uint64]{Name: "no-observe"}
	if _, err := Run(g, Options{}, nil, noObserve.Bind(&out)); err == nil {
		t.Error("Run accepted an Observe-less analysis")
	}
}
