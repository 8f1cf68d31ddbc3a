package tripoll

import (
	"tripoll/internal/analysis"
	"tripoll/internal/core"
	"tripoll/internal/engine"
)

// The unified analysis API: every triangle survey is an Analysis value —
// an accumulator factory, a per-triangle Observe, a commutative Merge and
// a Finalize — and Run executes any number of them in a single fused
// traversal (one dry run, one push, one pull). k fused analyses move the
// enumeration traffic once instead of k times; `tripoll-bench -exp fusion`
// measures the saving.
//
//	var total uint64
//	var joint *tripoll.Joint2D
//	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil,
//	    tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&total),
//	    tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&joint))

// Analysis describes one triangle analysis as a first-class value; see
// the stock constructors below and core.Analysis for the contract each
// field must satisfy. Bind it to an output destination to attach it to a
// Run or a Stream.
type Analysis[VM, EM, T any] = core.Analysis[VM, EM, T]

// AttachedAnalysis is an Analysis bound to its output via Bind, ready to
// fuse into a Run or to attach to a Stream.
type AttachedAnalysis[VM, EM any] = core.Attached[VM, EM]

// Run executes every attached analysis in one fused traversal of g,
// optionally restricted (and communication-pruned) by a survey plan; pass
// nil for an unrestricted survey. Result.Analyses names the fused
// analyses; with none attached, Run degenerates to a pure count.
//
// Run is the single-shot form of the query engine: one ephemeral Engine,
// one traversal, no scheduler or cache. Long-lived services that answer
// many (possibly concurrent) questions of the same graphs should hold an
// Engine instead — concurrently submitted compatible queries then share
// traversals and repeated queries hit the result cache (DESIGN.md §10).
func Run[VM, EM any](g *Graph[VM, EM], opts SurveyOptions, plan *SurveyPlan[EM], analyses ...AttachedAnalysis[VM, EM]) (Result, error) {
	return engine.Once(g, opts, plan, analyses...)
}

// Stock analyses — the paper's surveys as fusable values.

// CountAnalysis counts observed triangles (Alg. 2 as an attachable value).
func CountAnalysis[VM, EM any]() Analysis[VM, EM, uint64] {
	return core.CountAnalysis[VM, EM]()
}

// VertexCountAnalysis accumulates per-vertex triangle participation
// counts (§5.3).
func VertexCountAnalysis[VM, EM any]() Analysis[VM, EM, map[uint64]uint64] {
	return core.VertexCountAnalysis[VM, EM]()
}

// EdgeKey canonically names an undirected edge (smaller endpoint first).
type EdgeKey = core.EdgeKey

// CanonEdge returns the canonical key for {u, v}.
var CanonEdge = core.CanonEdge

// EdgeCountAnalysis accumulates per-edge triangle participation counts,
// keyed by canonical edge — the truss decomposition input (§5.3).
func EdgeCountAnalysis[VM, EM any]() Analysis[VM, EM, map[EdgeKey]uint64] {
	return core.EdgeCountAnalysis[VM, EM]()
}

// ClusteringAccum is ClusteringAnalysis's accumulator/result: per-vertex
// counts plus the derived statistics.
type ClusteringAccum = core.ClusteringAccum

// ClusteringAnalysis derives average and global clustering coefficients
// from fused per-vertex counts.
func ClusteringAnalysis[VM, EM any](g *Graph[VM, EM]) Analysis[VM, EM, ClusteringAccum] {
	return core.ClusteringAnalysis(g)
}

// MaxEdgeLabelAnalysis is Alg. 3: the distribution of the maximum edge
// label across triangles. distinctLabels applies the algorithm's guard
// that the three vertex labels be pairwise distinct; pass false on graphs
// whose vertices carry no labels.
func MaxEdgeLabelAnalysis[VM comparable](distinctLabels bool) Analysis[VM, uint64, map[uint64]uint64] {
	return core.MaxEdgeLabelAnalysis[VM](distinctLabels)
}

// ClosureTimeAnalysis is Alg. 4 (the §5.7 Reddit survey): the joint
// ceil-log₂ distribution of wedge opening and triangle closing times.
func ClosureTimeAnalysis[VM any]() Analysis[VM, uint64, *Joint2D] {
	return core.ClosureTimeAnalysis[VM]()
}

// DegreeTripleAnalysis counts log₂-bucketed degree triples (§5.9); vertex
// metadata must hold each vertex's degree.
func DegreeTripleAnalysis[EM any]() Analysis[uint64, EM, map[DegreeTriple]uint64] {
	return core.DegreeTripleAnalysis[EM]()
}

// DirectedCensusAnalysis classifies triangles of a directed input graph
// as cyclic, transitive, reciprocal-containing or undirected-containing.
func DirectedCensusAnalysis[VM, EM any]() Analysis[VM, DirectedMeta[EM], DirectedCensus] {
	return core.DirectedCensusAnalysis[VM, EM]()
}

// LabelIndexAnalysis builds the labeled triangle index of Reza et al.
// [45]: per-edge counts of triangles closing with each vertex label.
func LabelIndexAnalysis[VM comparable, EM any]() Analysis[VM, EM, LabelIndex[VM]] {
	return core.LabelIndexAnalysis[VM, EM]()
}

// TemporalWindowAnalysis counts triangles whose edge timestamps span at
// most delta. For a lone δ-window prefer a plan with CloseWithin, which
// also prunes the communication.
func TemporalWindowAnalysis[VM any](delta uint64) Analysis[VM, uint64, uint64] {
	return core.TemporalWindowAnalysis[VM](delta)
}

// TemporalSweepAnalysis evaluates every δ threshold in one pass; the
// result is one within-window count per delta, indexed like deltas.
func TemporalSweepAnalysis[VM any](deltas []uint64) Analysis[VM, uint64, []uint64] {
	return core.TemporalSweepAnalysis[VM](deltas)
}

// --- Truss analysis post-processing --------------------------------------

// TrussEdge is an undirected edge in canonical form for truss analysis.
type TrussEdge = analysis.Edge

// Truss analysis post-processing (single-machine peeling over
// survey-produced edge counts), the [15] application of local counts.
var (
	TrussDecomposition  = analysis.TrussDecomposition
	TrussFromEdgeCounts = analysis.TrussFromEdgeCounts
	TrussSizes          = analysis.TrussSizes
	MaxTruss            = analysis.MaxTruss
)
