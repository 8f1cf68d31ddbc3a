package tripoll

import (
	"tripoll/internal/core"
	"tripoll/internal/graph"
)

// Streaming survey maintenance: OpenStream turns a built Graph into the
// seed of a mutating, timestamped edge set and keeps any number of fused
// analyses continuously correct as batches arrive and the window
// slides — without re-surveying the whole graph per batch. Each batch runs
// a delta-scoped dry run/push/pull over only the changed edges (the
// triangles containing edge {u,v} are exactly N(u) ∩ N(v)), reusing the
// survey-plan pushdown filters and the fused-analysis accumulator
// discipline; `tripoll-bench -exp stream` measures the saving against
// per-batch full recomputes.
//
//	var total uint64
//	s, _ := tripoll.OpenStream(g,
//	    tripoll.StreamOptions[uint64]{MergeEdgeMeta: keepFirst},
//	    tripoll.NewTemporalPlan(),
//	    tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&total))
//	s.Ingest(batch)          // observe the triangles the batch created
//	s.Advance(now - window)  // retire old edges, reverse their triangles
//	s.Snapshot()             // publish current results into bound outputs
//
// The Analysis a Run takes is the one a stream takes. Its optional
// Unobserve makes it invertible, so expiry reverses triangles out of it;
// without one, expiry falls back to a windowed epoch rebuild. Its Clone
// keeps snapshots off the live accumulators. Count, VertexCount,
// MaxEdgeLabel and ClosureTime carry both. See DESIGN.md §9 for the delta
// traversal, the expiry semantics and the invertibility contract.

// EdgeStreamBatch is one batch of undirected timestamped edge insertions.
type EdgeStreamBatch[EM any] = []graph.Edge[EM]

// StreamEdge is one undirected edge insertion with metadata.
type StreamEdge[EM any] = graph.Edge[EM]

// Stream maintains fused analyses over a mutating timestamped edge set;
// open one with OpenStream.
type Stream[VM, EM any] = core.Stream[VM, EM]

// StreamOptions configures a stream: the delta traversal's survey options
// and the multigraph metadata merge.
type StreamOptions[EM any] = core.StreamOptions[EM]

// StreamStats are a stream's cumulative counters.
type StreamStats = core.StreamStats

// ErrStreamNoTimestamps is returned by Stream.Advance when the stream's
// plan has no Timestamps accessor to read expiry times from.
var ErrStreamNoTimestamps = core.ErrStreamNoTimestamps

// StreamSink is a maintained structure kept continuously consistent with a
// stream's live window: where an analysis folds triangles into an
// accumulator, a sink keeps an index (e.g. NewTrussIndex). Sinks attach at
// open via OpenStreamSinks.
type StreamSink[VM, EM any] = core.StreamSink[VM, EM]

// OpenStream opens a stream over g's world, partitioning and ordering,
// seeded with g's edges and vertex metadata: the attached analyses start
// out holding exactly what a fused Run over g would produce, and every
// Ingest/Advance batch maintains them incrementally from there. A non-nil
// plan restricts the analyses to plan-matching triangles with its
// predicates pushed into the delta traversal (and its Timestamps accessor
// is what Advance expires by). Call outside Parallel regions.
func OpenStream[VM, EM any](g *Graph[VM, EM], opts StreamOptions[EM], plan *SurveyPlan[EM], analyses ...AttachedAnalysis[VM, EM]) (*Stream[VM, EM], error) {
	return core.OpenStream(g, opts, plan, analyses...)
}

// OpenStreamSinks is OpenStream with maintained sinks attached: each sink
// observes the seed graph's edges and triangles before the first batch and
// is kept consistent through every Ingest/Advance thereafter. Sinks must
// attach at open — attached later they would have missed the seed events.
func OpenStreamSinks[VM, EM any](g *Graph[VM, EM], opts StreamOptions[EM], plan *SurveyPlan[EM], sinks []StreamSink[VM, EM], analyses ...AttachedAnalysis[VM, EM]) (*Stream[VM, EM], error) {
	return core.OpenStreamSinks(g, opts, plan, sinks, analyses...)
}
