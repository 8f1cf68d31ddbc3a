package tripoll

import (
	"tripoll/internal/engine"
	"tripoll/internal/serialize"
	"tripoll/internal/wal"
)

// Engine is the long-lived query engine (DESIGN.md §10): graphs and
// streams are registered by name, any goroutine submits QuerySpecs, and an
// admission scheduler coalesces compatible concurrently-pending queries —
// same graph and traversal options, union-able plans — into one fused
// traversal, re-restricting each job to its own plan at the callback so
// every job gets exactly its solo answer. An epoch-keyed result cache
// makes repeated questions free; stream mutations through the engine bump
// the epoch and invalidate precisely.
//
//	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(),
//	    tripoll.QueryEngineOptions[uint64]{Timestamps: func(t uint64) uint64 { return t }})
//	defer eng.Close()
//	eng.Register("web", g)
//	jobs, _ := eng.SubmitAll(ctx,
//	    tripoll.QuerySpec{Analysis: "count", Delta: tripoll.OptUint64(3600)},
//	    tripoll.QuerySpec{Analysis: "closure", Delta: tripoll.OptUint64(7200)})
//	for _, j := range jobs {
//	    res, err := j.Wait(ctx) // both answered by ONE traversal
//	    ...
//	}
//
// cmd/tripolld serves this API over HTTP; the legacy Run free function is
// a single-shot engine.
type Engine[VM, EM any] = engine.Engine[VM, EM]

// QueryEngineOptions configures an Engine; Timestamps enables the
// temporal constraints of QuerySpecs.
type QueryEngineOptions[EM any] = engine.EngineOptions[EM]

// DefaultQueryCacheBytes is the result cache's byte budget when
// QueryEngineOptions.CacheBytes is zero (tripolld's -cache-mb default).
const DefaultQueryCacheBytes = engine.DefaultCacheBytes

// QueryJob is the handle Submit returns: a one-shot future for a
// QueryResult.
type QueryJob = engine.Job

// QueryJobStatus is a job's lifecycle state.
type QueryJobStatus = engine.JobStatus

// Job lifecycle states.
const (
	QueryJobPending = engine.JobPending
	QueryJobRunning = engine.JobRunning
	QueryJobDone    = engine.JobDone
	QueryJobFailed  = engine.JobFailed
)

// QueryResult is one job's answer: the analysis value, the epoch it
// describes, cache/coalescing provenance and the shared traversal's
// statistics.
type QueryResult = engine.QueryResult

// EngineStats counts submissions, cache hits, dedupes, coalesced jobs,
// traversals and their traffic.
type EngineStats = engine.Stats

// AnalysisInfo describes one registered analysis — name, doc, argument
// schema and result shape — as reported by Engine.AnalysisInfos and
// tripolld's GET /v1/analyses.
type AnalysisInfo = engine.AnalysisInfo

// AnalysisArgSpec describes one JSON argument of a registered analysis.
type AnalysisArgSpec = engine.ArgSpec

// QueryIndexServer is a maintained index the engine consults before
// traversing: Engine.AttachIndex binds one to a registered graph, and
// queries the index can answer skip snapshot materialization and traversal
// entirely (QueryResult.IndexServed). NewTrussIndex implements it.
type QueryIndexServer = engine.IndexServer

// DurableStreamOptions configures Engine.OpenDurableStream: the WAL
// directory, fsync policy, segment rotation size and checkpoint cadence
// (DESIGN.md §11) — and, in a multi-process world, the Policy name the
// worker processes map back to their side of the stream configuration
// (DESIGN.md §14).
type DurableStreamOptions = engine.DurableOptions

// StreamMutator is the mutation-path counterpart of
// QueryEngineOptions.Fanout (DESIGN.md §14): when set, every durable
// stream mutation is WAL-logged driver-side and then broadcast to the
// worker processes for a collective apply, two-phase committed.
// dist.Cluster implements it.
type StreamMutator = engine.Mutator

// DurableStreamStatus reports a durable stream's WAL and checkpoint state
// (Engine.DurableStatus; surfaced by tripolld's /metrics).
type DurableStreamStatus = engine.DurableStatus

// WALStats counts a write-ahead log's extent and lifetime activity.
type WALStats = wal.Stats

// WAL fsync policies for DurableStreamOptions.Sync.
const (
	// WALSyncAlways fsyncs every appended mutation before it is applied —
	// an acknowledged batch survives any crash.
	WALSyncAlways = wal.SyncAlways
	// WALSyncNever leaves flushing to the OS; a crash may lose the most
	// recently acknowledged batches.
	WALSyncNever = wal.SyncNever
)

// ErrEngineClosed is returned by Submit and friends after Close.
var ErrEngineClosed = engine.ErrClosed

// ErrJobNotDone is returned by QueryJob.Result while the job is in flight.
var ErrJobNotDone = engine.ErrNotDone

// ErrEngineOverloaded is returned at admission when the pending queue is
// at QueryEngineOptions.MaxPending; retrying after a backoff is always
// safe (a shed job had no effect).
var ErrEngineOverloaded = engine.ErrOverloaded

// ErrWALCorrupt is the base class of unrecoverable write-ahead log damage
// (errors.Is).
var ErrWALCorrupt = wal.ErrCorrupt

// NewQueryEngine creates an engine over the given analysis registry and
// starts its scheduler. Register graphs, Submit from any goroutine, Close
// when done (registered graphs and their Worlds remain the caller's).
func NewQueryEngine[VM, EM any](reg *QueryRegistry[VM, EM], opts QueryEngineOptions[EM]) *Engine[VM, EM] {
	return engine.New(reg, opts)
}

// NewTemporalQueryEngine is the stock temporal configuration in one call:
// the TemporalQueryRegistry over identity timestamps — the engine behind
// cmd/tripoll and cmd/tripolld.
func NewTemporalQueryEngine() *Engine[serialize.Unit, uint64] {
	return engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
		Timestamps: func(t uint64) uint64 { return t },
	})
}
