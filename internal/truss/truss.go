// Package truss is the temporal truss subsystem: span-truss decomposition
// over time-windowed triangle support, in two complementary forms.
//
// The first form is a family of first-class Analysis values —
// TrussnessAnalysis, MaxTrussAnalysis, SpanTrussAnalysis — that ride the
// fused traversal exactly like the stock surveys: Observe folds each
// plan-matching triangle into per-edge support counters, the standard
// reduction merges them, and Finalize (which, per the ClusteringAnalysis
// precedent, may run collectives) gathers the window's edge set and peels
// it with analysis.Peel. This is Lotito-style span-truss
// mining (PAPERS.md): the k-truss of the subgraph induced by a time span,
// under the plan's closed-window and close-within-δ semantics.
//
// The second form is a maintained triangle-span index (Index, in
// index.go) that keeps the same per-edge span-bucketed support current
// under Stream Ingest/Advance — Hu et al.'s dynamic-maintenance angle —
// so repeated queries answer without re-enumerating. Both forms funnel
// through the same peel and the same outcome builders, which is what
// makes their results byte-identical (property-tested).
//
// Decomposition semantics, shared by both paths, for a closed window
// [from, until] (optionally δ-constrained):
//
//   - the edge set is every live edge whose timestamp lies in the window;
//   - support(e) is the number of triangles containing e whose timestamp
//     envelope [lo, hi] (min/max of the three edge timestamps) satisfies
//     from ≤ lo ∧ hi ≤ until ∧ (hi − lo ≤ δ when constrained);
//   - trussness is the peel of that edge set seeded with those supports.
//
// With exact window supports the peel equals analysis.Decompose on the
// window subgraph whenever δ is absent; δ tightens support only, giving
// the span-constrained-triangle variant.
package truss

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"tripoll/internal/analysis"
	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// Window is a closed timestamp interval [From, Until] on edge timestamps.
type Window struct {
	From  uint64 `json:"from"`
	Until uint64 `json:"until"`
}

// WholeWindow spans every representable timestamp.
func WholeWindow() Window { return Window{From: 0, Until: ^uint64(0)} }

// contains reports whether the closed envelope [lo, hi] fits the window.
func (wn Window) contains(lo, hi uint64) bool { return wn.From <= lo && hi <= wn.Until }

// intersect clips wn to the envelope env.
func (wn Window) intersect(env Window) Window {
	out := wn
	if env.From > out.From {
		out.From = env.From
	}
	if env.Until < out.Until {
		out.Until = env.Until
	}
	return out
}

// SpanEdge keys the distributed accumulator: a span slot (0 for the
// analyses that use a single window) and a canonical edge.
type SpanEdge struct {
	Span uint32
	U, V uint64
}

// Accum is the cross-rank accumulator shared by all truss analyses:
// span-bucketed per-edge triangle support. It crosses process boundaries
// through the reduction's gob exchange (registered in internal/dist), so
// its exported surface must stay gob-friendly; the finalized outcome is
// unexported and computed after the reduce, on every process alike.
type Accum struct {
	Support map[SpanEdge]uint64

	outcome any
}

// Outcome returns the finalized result (one of Decomp, MaxResult,
// SpanResult), or nil before Finalize ran.
func (a *Accum) Outcome() any {
	if a == nil {
		return nil
	}
	return a.outcome
}

func newAccum() *Accum { return &Accum{Support: make(map[SpanEdge]uint64)} }

func mergeAccum(a, b *Accum) *Accum {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Support == nil {
		a.Support = b.Support
		return a
	}
	for k, n := range b.Support {
		a.Support[k] += n
	}
	return a
}

func (a *Accum) bump(span uint32, x, y uint64) {
	if x > y {
		x, y = y, x
	}
	a.Support[SpanEdge{Span: span, U: x, V: y}]++
}

// envelope returns the min and max of a triangle's three edge timestamps.
func envelope(a, b, c uint64) (lo, hi uint64) {
	lo, hi = a, a
	if b < lo {
		lo = b
	}
	if b > hi {
		hi = b
	}
	if c < lo {
		lo = c
	}
	if c > hi {
		hi = c
	}
	return lo, hi
}

// Result types. All slices are sorted deterministically so that JSON
// output is byte-identical across ranks, transports and the two serving
// paths (traversal vs maintained index).

// EdgeTruss is one edge's trussness.
type EdgeTruss struct {
	U uint64 `json:"u"`
	V uint64 `json:"v"`
	K int    `json:"k"`
}

// Decomp is the full per-edge trussness decomposition of a window.
type Decomp struct {
	Edges []EdgeTruss `json:"edges"`
	Max   int         `json:"max"`
}

// TrussSize is the size of one k-truss level.
type TrussSize struct {
	K     int `json:"k"`
	Edges int `json:"edges"`
}

// MaxResult summarizes a window's decomposition: the maximum trussness
// and the size of every k-truss.
type MaxResult struct {
	Max   int         `json:"max"`
	Sizes []TrussSize `json:"sizes"`
}

// EdgePair is a canonical undirected edge.
type EdgePair struct {
	U uint64 `json:"u"`
	V uint64 `json:"v"`
}

// SpanTruss is the maximal k-truss of one time span: every edge whose
// trussness within the span reaches k.
type SpanTruss struct {
	From  uint64     `json:"from"`
	Until uint64     `json:"until"`
	Size  int        `json:"size"`
	Edges []EdgePair `json:"edges"`
}

// SpanResult is the Lotito-style span-truss answer: the k-truss per
// requested span.
type SpanResult struct {
	K     int         `json:"k"`
	Spans []SpanTruss `json:"spans"`
}

// The outcome builders walk the kernel's dense result, which is already in
// canonical (U, V) order.

func buildDecomp(tr analysis.Trussness) Decomp {
	d := Decomp{Edges: make([]EdgeTruss, len(tr.Edges)), Max: tr.Max()}
	for i, e := range tr.Edges {
		d.Edges[i] = EdgeTruss{U: e.U, V: e.V, K: int(tr.K[i])}
	}
	return d
}

func buildMax(tr analysis.Trussness) MaxResult {
	sizes := tr.Sizes()
	m := MaxResult{Max: tr.Max(), Sizes: []TrussSize{}}
	for k := 2; k < len(sizes); k++ {
		m.Sizes = append(m.Sizes, TrussSize{K: k, Edges: sizes[k]})
	}
	return m
}

func buildSpanTruss(k int, wn Window, tr analysis.Trussness) SpanTruss {
	st := SpanTruss{From: wn.From, Until: wn.Until, Edges: []EdgePair{}}
	for i, e := range tr.Edges {
		if int(tr.K[i]) >= k {
			st.Edges = append(st.Edges, EdgePair{U: e.U, V: e.V})
		}
	}
	st.Size = len(st.Edges)
	return st
}

// SpanTrussArgs are the JSON arguments of the spantruss analysis.
type SpanTrussArgs struct {
	// K selects which k-truss to report per span; 0 defaults to 3.
	K int `json:"k"`
	// Spans are the time spans to decompose; empty defaults to the
	// query's whole window. Spans are clipped to the query window.
	Spans []Window `json:"spans"`
}

// Bounds on spantruss arguments. Every span is one full peel on the
// serving goroutine, so their number is capped; trussness is an int32 in
// the kernel, so no edge can reach a larger k.
const (
	MaxSpans = 64
	MaxK     = math.MaxInt32
)

// ErrBadSpanTrussArgs is wrapped by every rejection of spantruss
// arguments; tripolld reports it as 400 Bad Request.
var ErrBadSpanTrussArgs = errors.New("truss: bad spantruss args")

// Normalize validates the arguments against the query envelope, applying
// defaults. The returned spans preserve input order (they key the result).
// Rejections wrap ErrBadSpanTrussArgs.
func (a SpanTrussArgs) Normalize(env Window) (k int, spans []Window, err error) {
	k = a.K
	if k == 0 {
		k = 3
	}
	if k < 2 || k > MaxK {
		return 0, nil, fmt.Errorf("%w: k must be in [2, %d] (got %d)", ErrBadSpanTrussArgs, MaxK, a.K)
	}
	spans = a.Spans
	if len(spans) > MaxSpans {
		return 0, nil, fmt.Errorf("%w: %d spans, at most %d allowed", ErrBadSpanTrussArgs, len(spans), MaxSpans)
	}
	if len(spans) == 0 {
		spans = []Window{env}
	}
	for i, sp := range spans {
		if sp.From > sp.Until {
			return 0, nil, fmt.Errorf("%w: span %d inverted: from %d > until %d", ErrBadSpanTrussArgs, i, sp.From, sp.Until)
		}
	}
	return k, spans, nil
}

// edgeTS is one gathered window edge with its timestamp.
type edgeTS struct {
	e  analysis.Edge
	ts uint64
}

// gatherWindowEdges assembles, identically on every process, the
// undirected edges of g whose timestamp lies in the window, in the peel's
// canonical ascending order. Each edge is
// read once from its <+-source's adjacency (the DODGr stores G⁺, one
// directed copy per undirected edge), flattened rank-locally and
// exchanged with one AllGather — the same collective-in-Finalize
// discipline as ClusteringAnalysis's degree pass. Must be called outside
// parallel regions; collective.
func gatherWindowEdges[VM any](g *graph.DODGr[VM, uint64], win Window) []edgeTS {
	w := g.World()
	var all [][]uint64
	w.Parallel(func(r *ygm.Rank) {
		var flat []uint64
		for _, v := range g.LocalVertices(r) {
			for _, o := range v.Adj {
				if o.EMeta < win.From || o.EMeta > win.Until {
					continue
				}
				flat = append(flat, v.ID, o.Target, o.EMeta)
			}
		}
		gathered := ygm.AllGather(r, flat)
		if r.ID() == w.LeaderID() {
			all = gathered
		}
	})
	var out []edgeTS
	for _, buf := range all {
		for i := 0; i+3 <= len(buf); i += 3 {
			out = append(out, edgeTS{e: analysis.Canon(buf[i], buf[i+1]), ts: buf[i+2]})
		}
	}
	slices.SortFunc(out, func(a, b edgeTS) int { return a.e.Compare(b.e) })
	return out
}

// spanDecompose peels one span: the gathered edges restricted to the
// span's window, each seeded with the support accumulated under its
// (span, edge) key — one lookup per window edge, whatever else the
// accumulator holds.
func spanDecompose(acc *Accum, span uint32, wn Window, edges []edgeTS) analysis.Trussness {
	var in []analysis.Edge
	var sup []int32
	for _, e := range edges {
		if e.ts < wn.From || e.ts > wn.Until {
			continue
		}
		in = append(in, e.e)
		sup = append(sup, analysis.SupportOf(acc.Support[SpanEdge{Span: span, U: e.e.U, V: e.e.V}]))
	}
	return analysis.Peel(in, sup)
}

// TrussnessAnalysis computes the per-edge trussness of the window's
// subgraph. Observe counts every triangle it is handed — window and δ
// filtering is the attached plan's job (the engine compiles the query's
// from/until/δ into the plan; standalone callers must pass a matching
// plan to Run/OpenStream). The constructor captures g because Finalize
// gathers the window's edge set collectively.
func TrussnessAnalysis[VM any](g *graph.DODGr[VM, uint64], win Window) core.Analysis[VM, uint64, *Accum] {
	return core.Analysis[VM, uint64, *Accum]{
		Name:     "trussness",
		NewAccum: newAccum,
		Observe:  observeWhole[VM],
		Merge:    mergeAccum,
		Finalize: func(acc *Accum) *Accum {
			acc.outcome = buildDecomp(spanDecompose(acc, 0, win, gatherWindowEdges(g, win)))
			return acc
		},
	}
}

// MaxTrussAnalysis computes the maximum trussness and k-truss sizes of
// the window's subgraph. Same observation and plan contract as
// TrussnessAnalysis.
func MaxTrussAnalysis[VM any](g *graph.DODGr[VM, uint64], win Window) core.Analysis[VM, uint64, *Accum] {
	return core.Analysis[VM, uint64, *Accum]{
		Name:     "maxtruss",
		NewAccum: newAccum,
		Observe:  observeWhole[VM],
		Merge:    mergeAccum,
		Finalize: func(acc *Accum) *Accum {
			acc.outcome = buildMax(spanDecompose(acc, 0, win, gatherWindowEdges(g, win)))
			return acc
		},
	}
}

func observeWhole[VM any](_ *ygm.Rank, acc *Accum, t *core.Triangle[VM, uint64]) *Accum {
	acc.bump(0, t.P, t.Q)
	acc.bump(0, t.P, t.R)
	acc.bump(0, t.Q, t.R)
	return acc
}

// SpanTrussAnalysis mines the maximal k-truss of each requested span
// (clipped to the query envelope env, which the plan must match): Observe
// routes each triangle's support to every span containing its timestamp
// envelope, and Finalize peels each span independently from one shared
// edge gather.
func SpanTrussAnalysis[VM any](g *graph.DODGr[VM, uint64], env Window, k int, spans []Window) core.Analysis[VM, uint64, *Accum] {
	clipped := make([]Window, len(spans))
	for i, sp := range spans {
		clipped[i] = sp.intersect(env)
	}
	return core.Analysis[VM, uint64, *Accum]{
		Name:     "spantruss",
		NewAccum: newAccum,
		Observe: func(_ *ygm.Rank, acc *Accum, t *core.Triangle[VM, uint64]) *Accum {
			lo, hi := envelope(t.MetaPQ, t.MetaPR, t.MetaQR)
			for i, sp := range clipped {
				if sp.contains(lo, hi) {
					acc.bump(uint32(i), t.P, t.Q)
					acc.bump(uint32(i), t.P, t.R)
					acc.bump(uint32(i), t.Q, t.R)
				}
			}
			return acc
		},
		Merge: mergeAccum,
		Finalize: func(acc *Accum) *Accum {
			edges := gatherWindowEdges(g, env)
			out := SpanResult{K: k, Spans: make([]SpanTruss, len(spans))}
			for i, sp := range spans {
				tr := spanDecompose(acc, uint32(i), clipped[i], edges)
				out.Spans[i] = buildSpanTruss(k, sp, tr)
			}
			acc.outcome = out
			return acc
		},
	}
}
