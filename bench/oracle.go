package main

// The answer oracle: expected values computed serially — the baseline's
// single-threaded triangle enumeration over a plain map of the live edge
// set, and analysis.TrussDecomposition for truss — never by the code under
// test.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"tripoll/internal/analysis"
	"tripoll/internal/baseline"
	"tripoll/internal/core"
	"tripoll/internal/engine"
	"tripoll/internal/graph"
	"tripoll/internal/stats"
	"tripoll/internal/truss"
)

// refGraph is the reference edge set: canonical pair → timestamp, under
// the served stream's semantics (a repeated pair keeps the earlier
// timestamp; an expired pair is gone, and a later insertion starts afresh).
type refGraph map[[2]uint64]uint64

func pairOf(u, v uint64) [2]uint64 {
	if u > v {
		u, v = v, u
	}
	return [2]uint64{u, v}
}

func (g refGraph) insert(u, v, t uint64) {
	if u == v {
		return
	}
	k := pairOf(u, v)
	if old, ok := g[k]; !ok || t < old {
		g[k] = t
	}
}

func (g refGraph) apply(o *op) {
	switch o.kind {
	case opIngest:
		for _, e := range o.batch {
			g.insert(e.U, e.V, e.Meta)
		}
	case opAdvance:
		for k, t := range g {
			if t < o.cutoff {
				delete(g, k)
			}
		}
	}
}

func refOf(base []graph.TemporalEdge) refGraph {
	g := make(refGraph, len(base)/4)
	for _, e := range base {
		g.insert(e.U, e.V, e.Time)
	}
	return g
}

func (g refGraph) pairs() [][2]uint64 {
	out := make([][2]uint64, 0, len(g))
	for k := range g {
		out = append(out, k)
	}
	return out
}

// refTri is one reference triangle with its three edge timestamps sorted.
type refTri struct {
	v  [3]uint64
	ts [3]uint64
}

func (g refGraph) triangles() []refTri {
	tris := baseline.SerialTriangles(g.pairs())
	out := make([]refTri, len(tris))
	for i, t := range tris {
		a, b, c := g[pairOf(t[0], t[1])], g[pairOf(t[0], t[2])], g[pairOf(t[1], t[2])]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b, c = c, b
		}
		if a > b {
			a, b = b, a
		}
		out[i] = refTri{v: t, ts: [3]uint64{a, b, c}}
	}
	return out
}

// matches is the plan predicate of a spec: every timestamp inside
// [From, Until] and the spread at most Delta.
func matches(s *engine.Spec, t *refTri) bool {
	if s.From != nil && t.ts[0] < *s.From {
		return false
	}
	if s.Until != nil && t.ts[2] > *s.Until {
		return false
	}
	return s.Delta == nil || t.ts[2]-t.ts[0] <= *s.Delta
}

// expect returns the canonical JSON of the value a survey spec must
// produce over the reference triangles.
func expect(s *engine.Spec, tris []refTri) ([]byte, error) {
	var v any
	switch s.Analysis {
	case "count":
		var n uint64
		for i := range tris {
			if matches(s, &tris[i]) {
				n++
			}
		}
		v = n
	case "sweep":
		var args struct {
			Deltas []uint64 `json:"deltas"`
		}
		if err := json.Unmarshal(s.Args, &args); err != nil {
			return nil, err
		}
		counts := make([]uint64, len(args.Deltas))
		for i := range tris {
			if !matches(s, &tris[i]) {
				continue
			}
			for j, d := range args.Deltas {
				if tris[i].ts[2]-tris[i].ts[0] <= d {
					counts[j]++
				}
			}
		}
		v = counts
	case "closure":
		j := stats.NewJoint2D()
		for i := range tris {
			if t := &tris[i]; matches(s, t) {
				j.Add(stats.CeilLog2(t.ts[1]-t.ts[0]), stats.CeilLog2(t.ts[2]-t.ts[0]), 1)
			}
		}
		v = j.Cells()
	case "localcounts", "cc":
		counts := make(map[uint64]uint64)
		for i := range tris {
			if t := &tris[i]; matches(s, t) {
				counts[t.v[0]]++
				counts[t.v[1]]++
				counts[t.v[2]]++
			}
		}
		v = counts
	case "edgecounts":
		counts := make(map[core.EdgeKey]uint64)
		for i := range tris {
			if t := &tris[i]; matches(s, t) {
				counts[core.CanonEdge(t.v[0], t.v[1])]++
				counts[core.CanonEdge(t.v[0], t.v[2])]++
				counts[core.CanonEdge(t.v[1], t.v[2])]++
			}
		}
		v = engine.JSONValue(counts)
	default:
		return nil, fmt.Errorf("oracle: no reference for analysis %q", s.Analysis)
	}
	return canonical(v)
}

// expectMaxTruss is the reference answer of a maxtruss query: the serial
// truss decomposition of the edges timestamped inside the spec's window.
func (g refGraph) expectMaxTruss(s *engine.Spec) ([]byte, error) {
	edges := make([]analysis.Edge, 0, len(g))
	for k, t := range g {
		if (s.From == nil || t >= *s.From) && (s.Until == nil || t <= *s.Until) {
			edges = append(edges, analysis.Edge{U: k[0], V: k[1]})
		}
	}
	tr := analysis.TrussDecomposition(edges)
	res := truss.MaxResult{Max: analysis.MaxTruss(tr), Sizes: []truss.TrussSize{}}
	sizes := analysis.TrussSizes(tr)
	for k := 2; k <= res.Max; k++ {
		res.Sizes = append(res.Sizes, truss.TrussSize{K: k, Edges: sizes[k]})
	}
	return canonical(res)
}

// canonical marshals v the one way both sides of a comparison use: through
// a generic decode, so object keys come out sorted and formatting drops out.
func canonical(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return canonicalJSON(raw)
}

func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var generic any
	if err := dec.Decode(&generic); err != nil {
		return nil, err
	}
	return json.Marshal(generic)
}

// comparable reduces a served value to what the oracle predicts: for "cc"
// the per-vertex counts (its float statistics derive from them and the
// degrees; the serial reference does not recompute floats), everything
// else whole.
func comparable(class string, value json.RawMessage) ([]byte, error) {
	if class == "cc" {
		var cc struct {
			Counts json.RawMessage
		}
		if err := json.Unmarshal(value, &cc); err != nil {
			return nil, err
		}
		value = cc.Counts
	}
	return canonicalJSON(value)
}

// attachOracle computes the workload's expected answers before anything
// is timed. On survey-cold and serve-hot, whose query round runs against the
// unmutated base graph, every `every`-th distinct spec (in script order)
// gets its serial answer; on truss-index, whose query rounds alternate with
// write rounds, the first maxtruss query of every query round gets the serial
// decomposition of its window at that point of the script. Every scripted
// repeat of a checked query is held to the same bytes (answers.check). On
// all workloads the final query's answer is computed over base + ingested −
// expired edges.
func (w *workload) attachOracle() error {
	ref := refOf(w.base)
	for i := range w.warm {
		ref.apply(&w.warm[i])
	}
	every := map[string]int{surveyCold: 10, serveHot: 4}[w.name]
	var tris []refTri
	if every > 0 {
		tris = ref.triangles()
	}
	wants := make(map[string][]byte)
	for r := range w.rounds {
		checked := false
		for _, o := range w.rounds[r].ops() {
			var err error
			switch {
			case o.kind != opQuery:
				ref.apply(o)
			case every > 0:
				want, seen := wants[string(o.body)]
				if !seen {
					if len(wants)%every == 0 {
						if want, err = expect(&o.spec, tris); err != nil {
							return err
						}
					}
					wants[string(o.body)] = want
				}
				o.want = want
			case w.name == trussIndex && o.class == "maxtruss" && !checked:
				checked = true
				if o.want, err = ref.expectMaxTruss(&o.spec); err != nil {
					return err
				}
			}
		}
	}
	// serve-hot's warm-up is what first asks each catalogue entry: that is
	// the answer the oracle sees, the timed repeats are held to its bytes.
	for i := range w.warm {
		if want, ok := wants[string(w.warm[i].body)]; ok {
			w.warm[i].want = want
		}
	}
	var err error
	if w.final.spec.Analysis == "maxtruss" {
		w.final.want, err = ref.expectMaxTruss(&w.final.spec)
	} else {
		w.final.want, err = canonical(baseline.SerialCount(ref.pairs()))
	}
	return err
}
