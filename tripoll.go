// Package tripoll is a Go implementation of TriPoll (Steil et al., SC
// 2021): distributed surveys of triangles in massive-scale temporal graphs
// with metadata.
//
// A survey enumerates every triangle of an undirected graph whose vertices
// and edges carry arbitrary metadata, and applies a user-defined callback
// to each triangle's six metadata items (three vertex metas, three edge
// metas), guaranteed colocated at the executing rank. Counting, closure-
// time analysis, label distributions and custom analyses are all callbacks
// over the same engine.
//
// The runtime simulates MPI ranks as goroutines exchanging serialized,
// buffered messages (optionally over loopback TCP); see DESIGN.md for the
// fidelity argument and internal/ygm for the communication layer.
//
// Quick start:
//
//	w := tripoll.NewWorld(4)
//	defer w.Close()
//	b := tripoll.NewGraphBuilder(w, tripoll.UnitCodec(), tripoll.UnitCodec(), tripoll.BuilderOptions[tripoll.Unit]{})
//	var g *tripoll.Graph[tripoll.Unit, tripoll.Unit]
//	w.Parallel(func(r *tripoll.Rank) {
//	    if r.ID() == 0 {
//	        b.AddEdge(r, 0, 1, tripoll.Unit{})
//	        b.AddEdge(r, 1, 2, tripoll.Unit{})
//	        b.AddEdge(r, 0, 2, tripoll.Unit{})
//	    }
//	    gg := b.Build(r)
//	    if r.ID() == 0 { g = gg }
//	})
//	res, _ := tripoll.Run(g, tripoll.SurveyOptions{}, nil)
//	fmt.Println(res.Triangles) // 1
//
// Surveys can carry a SurveyPlan — edge-metadata predicates, temporal
// δ-windows and sliding time windows compiled into filters that prune
// communication before it leaves the rank (predicate pushdown; DESIGN.md
// §7). See NewTemporalPlan and Run.
//
// Every stock survey is also available as an Analysis value; Run fuses any
// number of them into a single traversal, so asking k questions costs one
// enumeration instead of k (DESIGN.md §8):
//
//	var total uint64
//	var joint *tripoll.Joint2D
//	res, _ := tripoll.Run(g, tripoll.SurveyOptions{}, nil,
//	    tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(&total),
//	    tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(&joint))
//
// When edges arrive as a timestamped stream, OpenStream maintains fused
// analyses incrementally over edge batches and a sliding window, without
// re-surveying per batch (DESIGN.md §9): see Stream, StreamAnalysis and
// the stock Stream*Analysis constructors in stream.go.
//
// Services answering many (possibly concurrent) questions hold a query
// Engine: graphs and streams register by name, clients submit
// serializable QuerySpecs from any goroutine, compatible concurrent
// queries coalesce into shared fused traversals, and repeated questions
// hit an epoch-keyed result cache (DESIGN.md §10); cmd/tripolld serves
// the same API over HTTP. See Engine, QuerySpec and NewTemporalQueryEngine.
package tripoll

import (
	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// World is the communicator owning the simulated ranks.
type World = ygm.World

// Rank is one simulated MPI rank; SPMD code receives it in Parallel.
type Rank = ygm.Rank

// WorldOptions configures transports and buffering.
type WorldOptions = ygm.Options

// WorldStats aggregates transport traffic across a World's ranks
// (World.Stats; surfaced by tripolld's /metrics).
type WorldStats = ygm.Stats

// TransportChannel and TransportTCP select the batch transport.
const (
	TransportChannel = ygm.TransportChannel
	TransportTCP     = ygm.TransportTCP
)

// NewWorld creates a communicator with n ranks and default options,
// panicking on invalid configuration (n < 1).
func NewWorld(n int) *World { return ygm.MustWorld(n, ygm.Options{}) }

// NewWorldWith creates a communicator with explicit options.
func NewWorldWith(n int, opts WorldOptions) (*World, error) { return ygm.NewWorld(n, opts) }

// Codec serializes a metadata type across rank boundaries.
type Codec[T any] = serialize.Codec[T]

// Unit is the zero-byte dummy metadata for plain topology surveys.
type Unit = serialize.Unit

// Re-exported codec constructors for common metadata types.
var (
	UnitCodec    = serialize.UnitCodec
	BoolCodec    = serialize.BoolCodec
	Uint64Codec  = serialize.Uint64Codec
	Int64Codec   = serialize.Int64Codec
	Float64Codec = serialize.Float64Codec
	StringCodec  = serialize.StringCodec
	BytesCodec   = serialize.BytesCodec
)

// Pair and Triple are composite metadata/key types with codec combinators.
type (
	Pair[A, B any]      = serialize.Pair[A, B]
	Triple[A, B, C any] = serialize.Triple[A, B, C]
)

// PairCodec and TripleCodec compose element codecs.
func PairCodec[A, B any](a Codec[A], b Codec[B]) Codec[Pair[A, B]] {
	return serialize.PairCodec(a, b)
}

// TripleCodec composes three element codecs.
func TripleCodec[A, B, C any](a Codec[A], b Codec[B], c Codec[C]) Codec[Triple[A, B, C]] {
	return serialize.TripleCodec(a, b, c)
}

// Graph is the distributed degree-ordered graph with inlined metadata
// (DODGr); build one with a GraphBuilder, then survey it any number of
// times.
type Graph[VM, EM any] = graph.DODGr[VM, EM]

// GraphBuilder ingests undirected edges (and optional vertex metadata)
// from all ranks and assembles the Graph.
type GraphBuilder[VM, EM any] = graph.Builder[VM, EM]

// BuilderOptions configures partitioning and multi-edge merging.
type BuilderOptions[EM any] = graph.BuilderOptions[EM]

// Partitioners for vertex placement.
type (
	HashPartition   = graph.HashPartition
	CyclicPartition = graph.CyclicPartition
)

// OrderingStrategy selects the vertex order <+ that orients the input into
// the directed survey graph: set it on BuilderOptions.Ordering.
type OrderingStrategy = graph.Ordering

// OrderDegree is the paper's degree-based order (the default);
// OrderDegeneracy runs a distributed k-core peel during Build, bounding
// every out-degree — and so every pushed wedge batch — by the graph's
// degeneracy.
const (
	OrderDegree     = graph.OrderDegree
	OrderDegeneracy = graph.OrderDegeneracy
)

// NewGraphBuilder creates a distributed graph builder. Call outside
// Parallel regions.
func NewGraphBuilder[VM, EM any](w *World, vm Codec[VM], em Codec[EM], opts BuilderOptions[EM]) *GraphBuilder[VM, EM] {
	return graph.NewBuilder(w, vm, em, opts)
}

// TemporalEdge is the on-disk edge representation of the CLI tools.
type TemporalEdge = graph.TemporalEdge

// ReadEdgeListFile and WriteEdgeListFile move edge lists to/from the
// whitespace text format ("u v [timestamp]").
var (
	ReadEdgeListFile  = graph.ReadEdgeListFile
	WriteEdgeListFile = graph.WriteEdgeListFile
)

// AllReduceSum and friends are the collective operations available between
// survey phases (Alg. 2's all_reduce).
var (
	AllReduceSum = ygm.AllReduceSum
	AllReduceMax = ygm.AllReduceMax
)

// Triangle is one discovered triangle with vertices in pivot order
// P <+ Q <+ R and all six metadata items.
type Triangle[VM, EM any] = core.Triangle[VM, EM]

// Callback is the survey operation executed once per triangle.
type Callback[VM, EM any] = core.Callback[VM, EM]

// SurveyOptions selects the algorithm (push-pull by default) and its
// tuning knobs.
type SurveyOptions = core.Options

// Mode selects Push-Only (Alg. 1) or Push-Pull (§4.4).
type Mode = core.Mode

// PushPull and PushOnly are the two survey algorithms.
const (
	PushPull = core.PushPull
	PushOnly = core.PushOnly
)

// Result reports triangle totals, per-phase times and communication.
type Result = core.Result

// PhaseStats is one phase's duration and traffic.
type PhaseStats = core.PhaseStats
