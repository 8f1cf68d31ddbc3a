package tripoll

import (
	"tripoll/internal/core"
	"tripoll/internal/stats"
)

// TriangleSurvey is a reusable prepared survey; construct with NewSurvey
// outside Parallel regions, Run as many times as desired, then Close to
// give its handler slots (and what they pin) back to the world.
type TriangleSurvey[VM, EM any] = core.Survey[VM, EM]

// NewSurvey prepares a reusable triangle survey of g, invoking cb on every
// triangle with all six metadata items colocated.
func NewSurvey[VM, EM any](g *Graph[VM, EM], opts SurveyOptions, cb Callback[VM, EM]) *TriangleSurvey[VM, EM] {
	return core.NewSurvey(g, opts, cb)
}

// SurveyPlan declares which triangles a survey cares about — edge-metadata
// predicates (WhereEdge), temporal δ-windows (CloseWithin) and sliding
// time windows (From/Until/Window) — and compiles them into filters pushed
// into the survey's communication phases: wedge batches whose known
// metadata already violates a predicate are never enqueued, and pull
// replies omit adjacency entries that cannot complete a matching triangle.
// Results are identical to surveying unplanned and post-filtering with
// MatchEdges in the callback (property-tested); the difference is the
// traffic, which Result's phase stats and Pruned* counters quantify and
// `tripoll-bench -exp pushdown` measures.
//
// WhereEdge predicates and the Timestamps accessor must be pure functions of
// the edge metadata: a survey evaluates each predicate once per adjacency
// entry (not once per wedge) and keeps the answers for every Run of that
// survey; the accessor is evaluated once per adjacency entry per graph, and
// its answers are kept for every survey that passes the same func value.
// Both are asked again only in MatchEdges before a callback fires.
type SurveyPlan[EM any] = core.Plan[EM]

// NewSurveyPlan returns an empty plan over the graph's edge-metadata type;
// add constraints fluently. Temporal constraints need a Timestamps
// accessor — for uint64-timestamp metadata use NewTemporalPlan.
func NewSurveyPlan[EM any]() *SurveyPlan[EM] { return core.NewPlan[EM]() }

// NewTemporalPlan returns a plan for uint64-timestamp edge metadata (the
// BuildTemporal configuration) with the timestamp accessor pre-installed:
//
//	plan := tripoll.NewTemporalPlan().CloseWithin(3600) // δ-window: 1h
//	res, _ := tripoll.Run(g, tripoll.SurveyOptions{}, plan)
func NewTemporalPlan() *SurveyPlan[uint64] { return core.TemporalPlan() }

// ErrPlanNoTimestamps is returned when a plan sets a temporal constraint
// without a Timestamps accessor.
var ErrPlanNoTimestamps = core.ErrNoTimestamps

// NewPlannedSurvey prepares a reusable survey restricted to plan-matching
// triangles, with the plan's predicates pushed down into every phase. A
// nil or empty plan degenerates to NewSurvey.
func NewPlannedSurvey[VM, EM any](g *Graph[VM, EM], opts SurveyOptions, plan *SurveyPlan[EM], cb Callback[VM, EM]) (*TriangleSurvey[VM, EM], error) {
	return core.NewPlannedSurvey(g, opts, plan, cb)
}

// ClusteringStats summarizes clustering coefficients.
type ClusteringStats = core.ClusteringStats

// Joint2D is a two-dimensional bucket histogram (the Fig. 6 artifact).
type Joint2D = stats.Joint2D

// DegreeTriple is a log₂-bucketed degree 3-tuple (§5.9).
type DegreeTriple = core.DegreeTriple

// GraphInfo is the Tab. 1 row for a built graph.
type GraphInfo struct {
	Vertices      uint64
	DirectedEdges uint64 // symmetrized directed edge count (Tab. 1's |E|)
	PlusEdges     uint64 // edges of G⁺ (undirected count)
	Wedges        uint64 // |W⁺|
	MaxDegree     uint32
	MaxOutDegree  uint32
	Ordering      string // vertex-ordering strategy the graph was built with
	Degeneracy    uint32 // k-core bound; 0 unless built with OrderDegeneracy
}

// Info summarizes a built graph.
func Info[VM, EM any](g *Graph[VM, EM]) GraphInfo {
	return GraphInfo{
		Vertices:      g.NumVertices(),
		DirectedEdges: g.NumDirectedEdges(),
		PlusEdges:     g.NumUndirectedEdges(),
		Wedges:        g.NumWedges(),
		MaxDegree:     g.MaxDegree(),
		MaxOutDegree:  g.MaxOutDegree(),
		Ordering:      g.Ordering().String(),
		Degeneracy:    g.Degeneracy(),
	}
}

// BuildSimple is a convenience constructor for metadata-free graphs: it
// distributes the given undirected edges across ranks and builds the
// DODGr in one call.
func BuildSimple(w *World, edges [][2]uint64) *Graph[Unit, Unit] {
	b := NewGraphBuilder(w, UnitCodec(), UnitCodec(), BuilderOptions[Unit]{})
	var g *Graph[Unit, Unit]
	first, count := w.LocalSpan()
	w.Parallel(func(r *Rank) {
		// Stride over the local span only: in a multi-process world the
		// edge list lives in the driver process and remote ranks see an
		// empty slice, so the local ranks must cover it between them.
		for i := r.ID() - first; i < len(edges); i += count {
			b.AddEdge(r, edges[i][0], edges[i][1], Unit{})
		}
		gg := b.Build(r)
		if r.ID() == w.LeaderID() {
			g = gg
		}
	})
	return g
}

// BuildTemporal is a convenience constructor for timestamped multigraphs:
// duplicate edges keep the chronologically first timestamp, the §5.2
// reduction.
func BuildTemporal(w *World, edges []TemporalEdge) *Graph[Unit, uint64] {
	b := NewGraphBuilder(w, UnitCodec(), Uint64Codec(), BuilderOptions[uint64]{
		MergeEdgeMeta: func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		},
	})
	var g *Graph[Unit, uint64]
	first, count := w.LocalSpan()
	w.Parallel(func(r *Rank) {
		for i := r.ID() - first; i < len(edges); i += count {
			b.AddEdge(r, edges[i].U, edges[i].V, edges[i].Time)
		}
		gg := b.Build(r)
		if r.ID() == w.LeaderID() {
			g = gg
		}
	})
	return g
}
