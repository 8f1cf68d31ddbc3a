package tripoll

import (
	"tripoll/internal/truss"
)

// Temporal truss subsystem (DESIGN.md §15): span-truss analyses as
// first-class query-engine analyses, and a maintained triangle-span index
// that answers them without re-enumerating triangles.
//
// The traversal path: "trussness", "maxtruss" and "spantruss" are
// registered in TemporalQueryRegistry, so any engine (and tripolld's
// /v1/query) serves them. Each fused traversal accumulates span-bucketed
// per-edge triangle support; Finalize peels support into trussness with
// the same single-machine peeling TrussDecomposition uses, so distributed
// and serial answers are byte-identical.
//
// The maintained path: NewTrussIndex builds a StreamSink recording, per
// live edge, the span-bucketed support contributed by every triangle the
// stream enumerates. Attach it at open (OpenStreamSinks, or
// Engine.OpenDurableStream via a sink-aware open) and then to the engine
// with Engine.AttachIndex — repeated truss queries are answered from the
// index, with zero traversals and zero messages:
//
//	ix := tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
//	s, _ := tripoll.OpenStreamSinks(g, opts, plan,
//	    []tripoll.StreamSink[tripoll.Unit, uint64]{ix})
//	eng.RegisterStream("g", s)
//	eng.AttachIndex("g", ix)

// TrussWindow is a closed timestamp window [From, Until] for truss
// analyses; the zero From / ^uint64(0) Until pair is the whole axis.
type TrussWindow = truss.Window

// WholeTrussWindow returns the unbounded window.
func WholeTrussWindow() TrussWindow { return truss.WholeWindow() }

// Truss analysis results (the "trussness", "maxtruss" and "spantruss"
// query values, JSON-shaped as tripolld serves them).
type (
	// TrussnessResult lists every edge's trussness plus the maximum.
	TrussnessResult = truss.Decomp
	// TrussnessEdge is one edge's trussness.
	TrussnessEdge = truss.EdgeTruss
	// MaxTrussResult is the maximum trussness with per-k truss sizes.
	MaxTrussResult = truss.MaxResult
	// SpanTrussResult lists the maximal k-truss per requested span.
	SpanTrussResult = truss.SpanResult
	// SpanTrussQueryArgs is the JSON argument shape of "spantruss".
	SpanTrussQueryArgs = truss.SpanTrussArgs
)

// TrussIndex is the maintained triangle-span index: a StreamSink (attach
// with OpenStreamSinks) and a QueryIndexServer (attach with
// Engine.AttachIndex). VM is the stream's vertex metadata type; edge
// metadata must be uint64 timestamps.
type TrussIndex[VM any] = truss.Index[VM]

// TrussIndexStats reports a truss index's size and serving counters.
type TrussIndexStats = truss.IndexStats

// NewTrussIndex creates an empty triangle-span index. mergeTimestamp must
// be the same reduction as the stream's StreamOptions.MergeEdgeMeta (nil
// keeps the stored timestamp, mirroring the stream's nil default) — the
// index replays edge events through it to stay bit-identical to the
// stream's shards.
func NewTrussIndex[VM any](mergeTimestamp func(a, b uint64) uint64) *TrussIndex[VM] {
	return truss.NewIndex[VM](truss.IndexOptions{MergeTimestamp: mergeTimestamp})
}

// WindowTrussness surveys g and returns every edge's trussness within the
// window (the "trussness" analysis as a one-shot call).
func WindowTrussness[VM any](g *Graph[VM, uint64], win TrussWindow, opts SurveyOptions) (TrussnessResult, error) {
	var out *truss.Accum
	if _, err := Run(g, opts, NewTemporalPlan().Window(win.From, win.Until),
		truss.TrussnessAnalysis(g, win).Bind(&out)); err != nil {
		return TrussnessResult{}, err
	}
	return out.Outcome().(TrussnessResult), nil
}

// WindowSpanTruss surveys g once and returns the maximal k-truss for each
// requested span (the "spantruss" analysis as a one-shot call).
func WindowSpanTruss[VM any](g *Graph[VM, uint64], k int, spans []TrussWindow, opts SurveyOptions) (SpanTrussResult, error) {
	env := truss.WholeWindow()
	args := truss.SpanTrussArgs{K: k, Spans: spans}
	kk, sp, err := args.Normalize(env)
	if err != nil {
		return SpanTrussResult{}, err
	}
	var out *truss.Accum
	if _, err := Run(g, opts, NewTemporalPlan(),
		truss.SpanTrussAnalysis(g, env, kk, sp).Bind(&out)); err != nil {
		return SpanTrussResult{}, err
	}
	return out.Outcome().(SpanTrussResult), nil
}

// ErrBadSpanTrussArgs is wrapped by every rejection of "spantruss"
// arguments: k outside [2, MaxInt32], more than truss.MaxSpans (64) spans,
// an inverted span. tripolld answers it with 400 Bad Request.
var ErrBadSpanTrussArgs = truss.ErrBadSpanTrussArgs
