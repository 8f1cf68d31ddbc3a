package core

import (
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// Stream sinks. A StreamSink is the structural counterpart of an attached
// analysis: where an analysis folds each triangle into an accumulator and
// forgets it, a sink *keeps* a maintained data structure (an index)
// continuously consistent with the stream's live window. Sinks see three
// kinds of events:
//
//   - edge events: the seed graph's edges (SinkSeedEdge, once per
//     undirected edge, from inside the seed parallel region) and every
//     premerged Ingest batch (SinkBatch, outside parallel regions — the
//     premerged batch is deterministic and identical on every process of a
//     broadcast world, so no exchange is needed);
//   - triangle events: every enumerated triangle (SinkTriangle), from the
//     seed traversal, the delta traversals and epoch rebuilds, with the
//     batch's sign. Triangles are identified on exactly one rank of one
//     process, so rank-local recordings must be published collectively —
//     that is SinkCommit's job;
//   - watermark events: SinkExpire(cutoff) mirrors the shard tombstone
//     pass — everything timestamped below the cutoff left the window —
//     and SinkReset mirrors an epoch rebuild's accumulator reset: derived
//     triangle state is dropped and repopulated by the rebuild's full
//     traversal (edge state is maintained structurally and survives).
//
// SinkCommit runs once per collective stream operation (open, Ingest,
// Advance), outside parallel regions, in the same order on every process.
// It is where a sink exchanges rank-local event buffers (typically via
// ygm.AllGather inside its own w.Parallel region) and applies the merged
// update deterministically — after it returns, every process holds an
// identical index. A sink that buffers nothing still participates: the
// collective must run in lockstep on every process of a distributed world.
//
// Unlike Attached, this interface has no unexported methods: maintained
// index structures live outside this package (see internal/truss).
type StreamSink[VM, EM any] interface {
	// SinkName identifies the sink in diagnostics.
	SinkName() string
	// SinkOpen announces the world size before any event is delivered.
	SinkOpen(nranks int)
	// SinkSeedEdge records one seed edge {u, v}. Called inside the seed
	// parallel region on the rank owning the forward half; exactly one
	// call per undirected seed edge, world-wide.
	SinkSeedEdge(r *ygm.Rank, u, v uint64, em EM)
	// SinkTriangle records one enumerated triangle with the batch's sign
	// (+1 for creations and full traversals, -1 for expiry deltas). Called
	// from traversal callbacks and handlers; the Triangle points into
	// reused scratch and must be copied if retained.
	SinkTriangle(r *ygm.Rank, t *Triangle[VM, EM], sign int)
	// SinkBatch applies one premerged Ingest batch (self-loops dropped,
	// in-batch duplicates merged, endpoints ordered lo < hi). Outside
	// parallel regions; identical on every process.
	SinkBatch(batch []graph.Edge[EM])
	// SinkExpire drops sink state timestamped below the cutoff watermark,
	// mirroring the shard tombstone pass. Outside parallel regions.
	SinkExpire(cutoff uint64)
	// SinkReset discards triangle-derived state ahead of an epoch
	// rebuild's full re-traversal (which re-delivers every live-window
	// triangle via SinkTriangle). Structural edge state must survive.
	SinkReset()
	// SinkInvertible reports whether the sink tolerates the delta expiry
	// path; false forces Advance into an epoch rebuild, exactly like a
	// non-invertible analysis.
	SinkInvertible() bool
	// SinkCommit publishes rank-local event buffers collectively and
	// applies them; see the package comment. Runs outside parallel
	// regions, once per stream operation, on every process in order.
	SinkCommit(w *ygm.World)
}

// OpenStreamSinks is OpenStream with maintained sinks attached: every sink
// observes the seed graph (edges and triangles) before the first batch and
// is kept consistent through every Ingest/Advance thereafter. Sinks must
// be attached at open time — a sink attached later would have missed the
// seed events; durable recovery relies on this by re-seeding sinks from
// the checkpoint snapshot before WAL replay. Must be called outside
// parallel regions.
func OpenStreamSinks[VM, EM any](g *graph.DODGr[VM, EM], opts StreamOptions[EM], plan *Plan[EM], sinks []StreamSink[VM, EM], analyses ...Attached[VM, EM]) (*Stream[VM, EM], error) {
	return openStream(g, opts, plan, sinks, analyses)
}

// Sinks returns the sinks attached at open time, in attachment order.
func (s *Stream[VM, EM]) Sinks() []StreamSink[VM, EM] { return s.sinks }

// sinkCommit runs every sink's commit collective, in attachment order —
// the same order on every process.
func (s *Stream[VM, EM]) sinkCommit() {
	for _, sk := range s.sinks {
		sk.SinkCommit(s.w)
	}
}
