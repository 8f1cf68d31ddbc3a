package truss

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"tripoll/internal/analysis"
	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// The truss parity property: the distributed analyses — span-bucketed
// support accumulated over the fused traversal, peeled at Finalize — must
// produce byte-identical JSON to the single-machine reference
// (analysis.TrussDecomposition on the same windowed edge set), across
// orderings × transports × modes.

func minMerge(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

type edgeRec struct {
	u, v, ts uint64
}

// genEdges produces a random multigraph with duplicates; the canonical
// live set after min-merge is what both sides must agree on.
func genEdges(seed int64, n int, nv uint64, horizon uint64) []edgeRec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]edgeRec, 0, n)
	for i := 0; i < n; i++ {
		u, v := rng.Uint64()%nv, rng.Uint64()%nv
		if u == v {
			continue
		}
		out = append(out, edgeRec{u, v, rng.Uint64() % horizon})
	}
	return out
}

// liveSet folds the records into the canonical (min-merged) edge set.
func liveSet(recs []edgeRec) map[analysis.Edge]uint64 {
	live := map[analysis.Edge]uint64{}
	for _, e := range recs {
		k := analysis.Canon(e.u, e.v)
		if old, ok := live[k]; ok {
			live[k] = minMerge(old, e.ts)
		} else {
			live[k] = e.ts
		}
	}
	return live
}

func buildGraph(w *ygm.World, recs []edgeRec, ord graph.Ordering) *graph.DODGr[serialize.Unit, uint64] {
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{Ordering: ord, MergeEdgeMeta: minMerge})
	var g *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(recs); i += r.Size() {
			b.AddEdge(r, recs[i].u, recs[i].v, recs[i].ts)
		}
		gg := b.Build(r)
		if r.ID() == 0 {
			g = gg
		}
	})
	return g
}

// serialDecomp is the reference: trussness of the subgraph of live edges
// timestamped inside the window.
func serialDecomp(live map[analysis.Edge]uint64, wn Window) analysis.Trussness {
	var edges []analysis.Edge
	for e, ts := range live {
		if ts >= wn.From && ts <= wn.Until {
			edges = append(edges, e)
		}
	}
	return analysis.Decompose(edges)
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

func TestTrussParityProperty(t *testing.T) {
	const horizon = 1 << 10
	recs := genEdges(11, 420, 48, horizon)
	live := liveSet(recs)
	windows := []Window{
		WholeWindow(),
		{From: 0, Until: horizon / 2},
		{From: horizon / 4, Until: horizon - 1},
	}
	spans := []Window{
		{From: 0, Until: horizon / 3},
		{From: horizon / 4, Until: 3 * horizon / 4},
		{From: 0, Until: horizon},
	}
	for _, tr := range []ygm.TransportKind{ygm.TransportChannel, ygm.TransportTCP} {
		for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
			for _, mode := range []core.Mode{core.PushOnly, core.PushPull} {
				label := fmt.Sprintf("%v/%v/%v", tr, ord, mode)
				w := ygm.MustWorld(3, ygm.Options{Transport: tr})
				g := buildGraph(w, recs, ord)

				for wi, win := range windows {
					plan := core.TemporalPlan().Window(win.From, win.Until)
					var out *Accum
					if _, err := core.Run(g, core.Options{Mode: mode}, plan,
						TrussnessAnalysis(g, win).Bind(&out)); err != nil {
						t.Fatalf("%s: run trussness: %v", label, err)
					}
					ref := serialDecomp(live, win)
					want := mustJSON(t, buildDecomp(ref))
					got := mustJSON(t, out.Outcome())
					if got != want {
						t.Errorf("%s: window %d: trussness diverges\n got  %s\n want %s", label, wi, got, want)
					}

					var mout *Accum
					if _, err := core.Run(g, core.Options{Mode: mode}, plan,
						MaxTrussAnalysis(g, win).Bind(&mout)); err != nil {
						t.Fatalf("%s: run maxtruss: %v", label, err)
					}
					if got, want := mustJSON(t, mout.Outcome()), mustJSON(t, buildMax(ref)); got != want {
						t.Errorf("%s: window %d: maxtruss diverges\n got  %s\n want %s", label, wi, got, want)
					}
				}

				env := WholeWindow()
				k, sp, err := SpanTrussArgs{K: 3, Spans: spans}.Normalize(env)
				if err != nil {
					t.Fatalf("%s: normalize: %v", label, err)
				}
				var sout *Accum
				if _, err := core.Run(g, core.Options{Mode: mode}, core.TemporalPlan(),
					SpanTrussAnalysis(g, env, k, sp).Bind(&sout)); err != nil {
					t.Fatalf("%s: run spantruss: %v", label, err)
				}
				want := SpanResult{K: k, Spans: make([]SpanTruss, len(sp))}
				for i, s := range sp {
					want.Spans[i] = buildSpanTruss(k, s, serialDecomp(live, s))
				}
				if got, wantS := mustJSON(t, sout.Outcome()), mustJSON(t, want); got != wantS {
					t.Errorf("%s: spantruss diverges\n got  %s\n want %s", label, got, wantS)
				}

				w.Close()
			}
		}
	}
}

// TestSpanTrussArgsNormalize pins the argument defaults and rejections.
func TestSpanTrussArgsNormalize(t *testing.T) {
	env := Window{From: 10, Until: 90}
	k, spans, err := SpanTrussArgs{}.Normalize(env)
	if err != nil || k != 3 || len(spans) != 1 || spans[0] != env {
		t.Fatalf("zero args: got k=%d spans=%v err=%v, want k=3 spans=[env]", k, spans, err)
	}
	if _, _, err := (SpanTrussArgs{K: 1}).Normalize(env); err == nil {
		t.Fatal("k=1 must be rejected")
	}
	if _, _, err := (SpanTrussArgs{Spans: []Window{{From: 5, Until: 2}}}).Normalize(env); err == nil {
		t.Fatal("inverted span must be rejected")
	}
}

// TestSpanTrussArgBounds: the span count and k are bounded before any peel
// is scheduled, with one typed error, on the path the traversal analyses
// take (Normalize, ahead of SpanTrussAnalysis) and on the index's.
func TestSpanTrussArgBounds(t *testing.T) {
	spans := func(n int) []Window {
		out := make([]Window, n)
		for i := range out {
			out[i] = Window{From: uint64(i), Until: uint64(i) + 10}
		}
		return out
	}
	tooBig := int64(MaxK) + 1 // wraps negative where int is 32 bits: rejected either way
	cases := []struct {
		name string
		args SpanTrussArgs
		bad  bool
	}{
		{"defaults", SpanTrussArgs{}, false},
		{"k=2", SpanTrussArgs{K: 2}, false},
		{"k=MaxK", SpanTrussArgs{K: MaxK}, false},
		{"MaxSpans spans", SpanTrussArgs{Spans: spans(MaxSpans)}, false},
		{"k=1", SpanTrussArgs{K: 1}, true},
		{"k<0", SpanTrussArgs{K: -3}, true},
		{"k>MaxK", SpanTrussArgs{K: int(tooBig)}, true},
		{"MaxSpans+1 spans", SpanTrussArgs{Spans: spans(MaxSpans + 1)}, true},
		{"inverted span", SpanTrussArgs{Spans: []Window{{From: 5, Until: 2}}}, true},
	}
	ix := NewIndex[serialize.Unit](IndexOptions{})
	if _, _, err := ix.ServeQuery("spantruss", []byte(`{"k":"three"}`), nil, nil, nil); !errors.Is(err, ErrBadSpanTrussArgs) {
		t.Errorf("undecodable args: err = %v, want ErrBadSpanTrussArgs", err)
	}
	for _, tc := range cases {
		_, _, err := tc.args.Normalize(WholeWindow())
		if tc.bad != errors.Is(err, ErrBadSpanTrussArgs) || tc.bad != (err != nil) {
			t.Errorf("%s: Normalize err = %v, want rejection %v", tc.name, err, tc.bad)
		}
		raw, _ := json.Marshal(tc.args)
		_, handled, err := ix.ServeQuery("spantruss", raw, nil, nil, nil)
		if !handled || tc.bad != errors.Is(err, ErrBadSpanTrussArgs) || tc.bad != (err != nil) {
			t.Errorf("%s: ServeQuery handled=%v err = %v, want rejection %v", tc.name, handled, err, tc.bad)
		}
	}
}
