// Package benchsurface pins the root-module surface the benchmark module
// (bench/, its own module under `replace tripoll => ../`) compiles against.
// Tier-1 never builds bench/, so without this file a refactor could move or
// delete a name the instrument uses and stay green. Every package-level name
// bench/*.go takes from the root module is referenced below, generic ones
// with the type arguments bench instantiates them with; anything not listed
// here is free to move or go.
//
// Regenerate the list (78 names from 13 packages) from the repository root:
//
//	grep -ohE '\b(tripoll|datagen|analysis|baseline|core|dist|engine|graph|serialize|stats|truss|wal|ygm)\.[A-Z][A-Za-z0-9_]*' bench/*.go | sort -u
//
// and the packages with:
//
//	grep -h '"tripoll' bench/*.go | sort -u
package benchsurface_test

import (
	"testing"

	"tripoll"
	"tripoll/datagen"
	"tripoll/internal/analysis"
	"tripoll/internal/baseline"
	"tripoll/internal/core"
	"tripoll/internal/dist"
	"tripoll/internal/engine"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/truss"
	"tripoll/internal/wal"
	"tripoll/internal/ygm"
)

type unit = serialize.Unit

// Types and constants.
var (
	_ analysis.Edge
	_ core.EdgeKey
	_ core.Options
	_ core.Result
	_ = core.PushOnly
	_ = core.PushPull
	_ dist.BuildSpec
	_ *dist.Cluster
	_ dist.Config
	_ engine.Spec
	_ *graph.DODGr[unit, uint64]
	_ graph.Edge[uint64]
	_ graph.TemporalEdge
	_ *graph.TriSpanStore
	_ serialize.Codec[uint64]
	_ *serialize.Decoder
	_ *serialize.Encoder
	_ serialize.Unit
	_ tripoll.DurableStreamOptions
	_ *tripoll.Engine[tripoll.Unit, uint64]
	_ *tripoll.Graph[tripoll.Unit, uint64]
	_ tripoll.QueryEngineOptions[uint64]
	_ tripoll.QueryResult
	_ *tripoll.Stream[tripoll.Unit, uint64]
	_ tripoll.StreamOptions[uint64]
	_ tripoll.StreamSink[tripoll.Unit, uint64]
	_ *tripoll.TrussIndex[tripoll.Unit]
	_ = tripoll.TransportTCP
	_ tripoll.Unit
	_ = tripoll.WALSyncAlways
	_ *tripoll.World
	_ tripoll.WorldOptions
	_ truss.MaxResult
	_ truss.TrussSize
	_ wal.Options
	_ wal.Stats
	_ = wal.SyncAlways
	_ = wal.SyncNever
	_ wal.SyncPolicy
	_ ygm.Options
	_ *ygm.Rank
	_ = ygm.TransportChannel
	_ ygm.TransportKind
	_ = ygm.TransportTCP
)

// Functions.
var (
	_ = analysis.MaxTruss
	_ = analysis.TrussDecomposition
	_ = analysis.TrussFromSupports
	_ = analysis.TrussSizes
	_ = baseline.SerialCount
	_ = baseline.SerialTriangles
	_ = core.CanonEdge
	_ = core.Run[unit, uint64]
	_ = datagen.DefaultRedditParams
	_ = datagen.RedditLike
	_ = dist.Listen
	_ = engine.ExecuteFused[unit, uint64]
	_ = engine.JSONValue
	_ = engine.Uint64
	_ = graph.Less
	_ = graph.Load[unit, uint64]
	_ = graph.NewStreamShard[unit, uint64]
	_ = graph.WriteEdgeList
	_ = graph.WriteEdgeListFile
	_ = serialize.NewDecoder
	_ = serialize.NewEncoder
	_ = serialize.Uint64Codec
	_ = stats.CeilLog2
	_ = stats.NewJoint2D
	_ = tripoll.BuildTemporal
	_ = tripoll.NewQueryEngine[tripoll.Unit, uint64]
	_ = tripoll.NewTemporalPlan
	_ = tripoll.NewTrussIndex[tripoll.Unit]
	_ = tripoll.NewWorldWith
	_ = tripoll.OpenStreamSinks[tripoll.Unit, uint64]
	_ = tripoll.QueryJSONValue
	_ = tripoll.TemporalQueryRegistry
	_ = wal.Open[uint64]
	_ = ygm.NewWorld
)

// TestSurface exists so `go test ./...` compiles this package: the test is
// the compilation.
func TestSurface(t *testing.T) {}
