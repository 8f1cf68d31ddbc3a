package tripoll

import (
	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
)

// --- Directed-input support (§4: two-bit original directionality) -------

// Direction is the original-directionality tag of a symmetrized edge.
type Direction = graph.Direction

// Direction values.
const (
	DirNone     = graph.DirNone
	DirForward  = graph.DirForward
	DirBackward = graph.DirBackward
	DirBoth     = graph.DirBoth
)

// DirectedMeta wraps edge metadata with original directionality.
type DirectedMeta[EM any] = graph.Directed[EM]

// ArcMeta, HasArc and the codec/merge helpers for directed ingestion.
func ArcMeta[EM any](u, v uint64, meta EM) DirectedMeta[EM] { return graph.ArcMeta(u, v, meta) }

// HasArc reports whether the original graph contained the arc from → to.
func HasArc[EM any](d DirectedMeta[EM], from, to uint64) bool { return graph.HasArc(d, from, to) }

// DirectedCodec serializes DirectedMeta.
func DirectedCodec[EM any](em Codec[EM]) Codec[DirectedMeta[EM]] { return graph.DirectedCodec(em) }

// MergeDirected builds the multi-edge merge for directed ingestion
// (direction bits OR together; payloads combine via mergeMeta).
func MergeDirected[EM any](mergeMeta func(a, b EM) EM) func(a, b DirectedMeta[EM]) DirectedMeta[EM] {
	return graph.MergeDirected(mergeMeta)
}

// AddArc inserts the directed arc u→v (symmetrized for identification,
// orientation preserved in metadata).
func AddArc[VM, EM any](b *GraphBuilder[VM, DirectedMeta[EM]], r *Rank, u, v uint64, meta EM) {
	graph.AddArc(b, r, u, v, meta)
}

// DirectedCensus classifies triangles of a directed graph as cyclic,
// transitive, reciprocal-containing, or undirected-containing.
type DirectedCensus = core.DirectedCensus

// SurveyDirectedCensus runs the directed-motif census.
//
// Deprecated: use Run with DirectedCensusAnalysis, which fuses with other
// analyses in one traversal.
func SurveyDirectedCensus[VM, EM any](g *Graph[VM, DirectedMeta[EM]], opts SurveyOptions) (DirectedCensus, Result) {
	return core.SurveyDirectedCensus(g, opts)
}

// --- Labeled triangle index ([45]) ---------------------------------------

// LabelIndexKey is one (edge, closing-vertex-label) bucket.
type LabelIndexKey[VM comparable] = core.LabelIndexKey[VM]

// LabelIndex maps (edge, label) buckets to triangle counts.
type LabelIndex[VM comparable] = core.LabelIndex[VM]

// BuildLabelIndex surveys the graph once into a labeled triangle index:
// per-edge counts of triangles closing with each vertex label, the
// pattern-matching acceleration structure of Reza et al. [45]. labelCodec
// is unused now that accumulation is rank-local; the parameter is retained
// for source compatibility.
//
// Deprecated: use Run with LabelIndexAnalysis, which fuses with other
// analyses in one traversal and needs no codec.
func BuildLabelIndex[VM comparable, EM any](g *Graph[VM, EM], opts SurveyOptions, labelCodec serialize.Codec[VM]) (LabelIndex[VM], Result) {
	return core.BuildLabelIndex(g, opts, labelCodec)
}

// --- Temporal windows ([40]-style δ-motifs) -------------------------------

// TemporalWindowCount counts triangles whose edge timestamps span at most
// delta.
//
// Deprecated: use Run with TemporalWindowAnalysis (or, to also prune the
// communication, a plan with CloseWithin).
func TemporalWindowCount[VM any](g *Graph[VM, uint64], delta uint64, opts SurveyOptions) (within, total uint64, res Result) {
	return core.TemporalWindowCount(g, delta, opts)
}

// TemporalWindowSweep evaluates several windows in one fused survey pass —
// a single traversal covering every delta, whose phase stats the returned
// Result reports.
//
// Deprecated: use Run with TemporalSweepAnalysis, which additionally fuses
// with other analyses.
func TemporalWindowSweep[VM any](g *Graph[VM, uint64], deltas []uint64, opts SurveyOptions) (map[uint64]uint64, Result) {
	return core.TemporalWindowSweep(g, deltas, opts)
}

// --- Snapshots -------------------------------------------------------------

// SaveGraph persists a built graph to dir; LoadGraph restores it into a
// world of the same size with the same codecs. Construction is the
// expensive step, so build once and survey many.
func SaveGraph[VM, EM any](g *Graph[VM, EM], dir string) error { return g.Save(dir) }

// LoadGraph restores a snapshot written by SaveGraph.
func LoadGraph[VM, EM any](w *World, dir string, vm Codec[VM], em Codec[EM]) (*Graph[VM, EM], error) {
	return graph.Load(w, dir, vm, em)
}
