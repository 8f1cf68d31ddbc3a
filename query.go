package tripoll

import (
	"tripoll/internal/engine"
	"tripoll/internal/serialize"
)

// QuerySpec is a serializable (JSON) query: a named analysis plus the
// declarative plan restricting it — δ-window, sliding time window, mode.
// Specs are what make queries wire-shippable: cmd/tripolld accepts them as
// request bodies, the CLI compiles its flags into them, and the Engine's
// coalescer and result cache key on their canonical parts. See Engine for
// execution semantics.
//
//	spec := tripoll.QuerySpec{Analysis: "count", Delta: tripoll.OptUint64(3600)}
//	job, _ := eng.Submit(ctx, spec)
//	res, _ := job.Wait(ctx)
type QuerySpec = engine.Spec

// OptUint64 builds an optional QuerySpec field (Delta/From/Until) in place.
var OptUint64 = engine.Uint64

// QueryRegistry maps analysis names to factories, making them addressable
// from QuerySpecs. Build one with NewQueryRegistry for custom metadata
// types, or use TemporalQueryRegistry for the stock temporal configuration.
type QueryRegistry[VM, EM any] = engine.Registry[VM, EM]

// QueryAnalysisInstance is one compiled occurrence of a registry analysis:
// an attached analysis to fuse into the traversal plus a reader for its
// finalized result.
type QueryAnalysisInstance[VM, EM any] = engine.Instance[VM, EM]

// QueryAnalysisFactory compiles a QuerySpec's analysis against a concrete
// graph; register factories on a QueryRegistry.
type QueryAnalysisFactory[VM, EM any] = engine.Factory[VM, EM]

// NewQueryRegistry returns an empty registry for graphs with VM vertex and
// EM edge metadata.
func NewQueryRegistry[VM, EM any]() *QueryRegistry[VM, EM] {
	return engine.NewRegistry[VM, EM]()
}

// TemporalQueryRegistry returns the stock registry for BuildTemporal
// graphs (Unit vertex metadata, uint64 timestamps): count, closure,
// localcounts, edgecounts, labels, cc and sweep.
func TemporalQueryRegistry() *QueryRegistry[serialize.Unit, uint64] {
	return engine.TemporalRegistry()
}

// QueryJSONValue converts a stock analysis result into a faithfully
// JSON-marshalable form (Joint2D grids become sorted cell lists, EdgeKey
// maps become sorted edge lists); QueryResult.AppendJSON, which builds
// every reply tripolld ships, applies it.
var QueryJSONValue = engine.JSONValue
