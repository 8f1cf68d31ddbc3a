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

// Count runs the simple triangle-counting survey of Alg. 2 (a survey with
// no callback).
//
// Deprecated: equivalent to Run(g, opts, nil); kept as the conventional
// name for the bare count.
func Count[VM, EM any](g *Graph[VM, EM], opts SurveyOptions) Result {
	return core.Count(g, opts)
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
// the edge metadata: a survey evaluates them once per adjacency entry (not
// once per wedge), keeps the answers for every Run of that survey, and asks
// again only in MatchEdges before a callback fires.
type SurveyPlan[EM any] = core.Plan[EM]

// NewSurveyPlan returns an empty plan over the graph's edge-metadata type;
// add constraints fluently. Temporal constraints need a Timestamps
// accessor — for uint64-timestamp metadata use NewTemporalPlan.
func NewSurveyPlan[EM any]() *SurveyPlan[EM] { return core.NewPlan[EM]() }

// NewTemporalPlan returns a plan for uint64-timestamp edge metadata (the
// BuildTemporal configuration) with the timestamp accessor pre-installed:
//
//	plan := tripoll.NewTemporalPlan().CloseWithin(3600) // δ-window: 1h
//	res, _ := tripoll.WindowedCount(g, plan, tripoll.SurveyOptions{})
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

// WindowedCount counts plan-matching triangles — the δ-windowed /
// time-windowed / metadata-filtered analog of Count. Result.Triangles is
// the matching count.
//
// Deprecated: equivalent to Run(g, opts, plan); kept as the conventional
// name for the bare windowed count.
func WindowedCount[VM, EM any](g *Graph[VM, EM], plan *SurveyPlan[EM], opts SurveyOptions) (Result, error) {
	return core.WindowedCount(g, plan, opts)
}

// WindowedClosureTimes is ClosureTimes restricted to plan-matching
// triangles, with the plan pushed down into the communication phases.
//
// Deprecated: use Run with ClosureTimeAnalysis and a plan, which fuses
// with other analyses in one traversal.
func WindowedClosureTimes[VM any](g *Graph[VM, uint64], plan *SurveyPlan[uint64], opts SurveyOptions) (*Joint2D, Result, error) {
	return core.WindowedClosureTimes(g, plan, opts)
}

// WindowedMaxEdgeLabelDistribution is MaxEdgeLabelDistribution restricted
// to plan-matching triangles; the plan's predicates range over edge labels.
//
// Deprecated: use Run with MaxEdgeLabelAnalysis and a plan, which fuses
// with other analyses in one traversal.
func WindowedMaxEdgeLabelDistribution[VM comparable](g *Graph[VM, uint64], plan *SurveyPlan[uint64], opts SurveyOptions) (map[uint64]uint64, Result, error) {
	return core.WindowedMaxEdgeLabelDistribution(g, plan, opts)
}

// LocalVertexCounts computes per-vertex triangle participation counts and
// gathers the global map — the primitive behind truss decomposition and
// clustering coefficients (§5.3).
//
// Deprecated: use Run with VertexCountAnalysis, which fuses with other
// analyses in one traversal.
func LocalVertexCounts[VM, EM any](g *Graph[VM, EM], opts SurveyOptions) (map[uint64]uint64, Result) {
	return core.LocalVertexCounts(g, opts)
}

// ClusteringStats summarizes clustering coefficients.
type ClusteringStats = core.ClusteringStats

// ClusteringCoefficients derives average and global clustering
// coefficients from local triangle counts.
//
// Deprecated: use Run with ClusteringAnalysis, which fuses with other
// analyses in one traversal.
func ClusteringCoefficients[VM, EM any](g *Graph[VM, EM], opts SurveyOptions) (ClusteringStats, Result) {
	return core.ClusteringCoefficients(g, opts)
}

// MaxEdgeLabelDistribution is Alg. 3: among triangles with pairwise
// distinct vertex labels, the distribution of the maximum edge label.
//
// Deprecated: use Run with MaxEdgeLabelAnalysis, which fuses with other
// analyses in one traversal.
func MaxEdgeLabelDistribution[VM comparable](g *Graph[VM, uint64], opts SurveyOptions) (map[uint64]uint64, Result) {
	return core.MaxEdgeLabelDistribution(g, opts)
}

// Joint2D is a two-dimensional bucket histogram (the Fig. 6 artifact).
type Joint2D = stats.Joint2D

// ClosureTimes is Alg. 4 (the §5.7 Reddit survey): for each triangle with
// edge timestamps t1 ≤ t2 ≤ t3, counts the joint ceil-log₂ bucket pair of
// the wedge opening time (t2−t1) and triangle closing time (t3−t1).
//
// Deprecated: use Run with ClosureTimeAnalysis, which fuses with other
// analyses in one traversal.
func ClosureTimes[VM any](g *Graph[VM, uint64], opts SurveyOptions) (*Joint2D, Result) {
	return core.ClosureTimes(g, opts)
}

// DegreeTriple is a log₂-bucketed degree 3-tuple (§5.9).
type DegreeTriple = core.DegreeTriple

// DegreeTriples counts log₂-bucketed degree triples across all triangles;
// vertex metadata must hold each vertex's degree (§5.9's configuration).
//
// Deprecated: use Run with DegreeTripleAnalysis, which fuses with other
// analyses in one traversal.
func DegreeTriples[EM any](g *Graph[uint64, EM], opts SurveyOptions) (map[DegreeTriple]uint64, Result) {
	return core.DegreeTriples(g, opts)
}

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
