package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/truss"
)

// Instance is one compiled occurrence of a registry analysis: the bound
// attached analysis to fuse into a traversal, and a reader that extracts
// the finalized result afterwards. A factory must return a fresh Instance
// per call — the bound accumulator is single-use.
type Instance[VM, EM any] struct {
	// Attached is the analysis bound to an output, ready for core.Run.
	Attached core.Attached[VM, EM]
	// Result reads the bound output after the run completes. The returned
	// value is shared verbatim with every job the traversal or the cache
	// serves; treat it as immutable.
	Result func() any
}

// Factory compiles a Spec's analysis against a concrete graph. Factories
// run at dispatch time (the spec's graph may be a stream materialized just
// before the traversal) and may reject malformed Args.
type Factory[VM, EM any] func(g *graph.DODGr[VM, EM], spec Spec) (Instance[VM, EM], error)

// ArgSpec documents one JSON argument an analysis accepts.
type ArgSpec struct {
	// Name is the JSON key inside Spec.Args.
	Name string `json:"name"`
	// Type is the JSON type ("bool", "uint", "[]uint", "[]window", ...).
	Type string `json:"type"`
	// Doc is a one-line description, including any default.
	Doc string `json:"doc"`
	// Required marks arguments the factory rejects when absent.
	Required bool `json:"required,omitempty"`
}

// AnalysisInfo is the discoverable schema of one registered analysis —
// what GET /v1/analyses reports so clients can build Specs without
// reading the registry source.
type AnalysisInfo struct {
	// Name is the registry key QuerySpecs use.
	Name string `json:"name"`
	// Doc is a one-line description of the analysis.
	Doc string `json:"doc"`
	// Args documents the accepted Spec.Args keys; empty means the
	// analysis takes no arguments.
	Args []ArgSpec `json:"args,omitempty"`
	// Result names the shape of QueryResult.Value (after JSONValue).
	Result string `json:"result"`
}

// Registry maps analysis names to factories — the table that makes specs
// wire-shippable: a client names an analysis, the engine compiles it.
// Register all analyses before handing the registry to New; the engine
// reads it from its dispatcher goroutine without locking.
type Registry[VM, EM any] struct {
	factories map[string]Factory[VM, EM]
	infos     map[string]AnalysisInfo
}

// NewRegistry returns an empty registry.
func NewRegistry[VM, EM any]() *Registry[VM, EM] {
	return &Registry[VM, EM]{
		factories: make(map[string]Factory[VM, EM]),
		infos:     make(map[string]AnalysisInfo),
	}
}

// Register adds (or replaces) a named analysis factory and returns the
// registry for chaining. The analysis is listed with an empty schema; use
// RegisterInfo to document it.
func (r *Registry[VM, EM]) Register(name string, f Factory[VM, EM]) *Registry[VM, EM] {
	r.factories[name] = f
	if _, ok := r.infos[name]; !ok {
		r.infos[name] = AnalysisInfo{Name: name}
	}
	return r
}

// RegisterInfo adds (or replaces) a named analysis factory together with
// its discoverable schema. info.Name is the registry key.
func (r *Registry[VM, EM]) RegisterInfo(info AnalysisInfo, f Factory[VM, EM]) *Registry[VM, EM] {
	r.factories[info.Name] = f
	r.infos[info.Name] = info
	return r
}

// Lookup returns the factory for name.
func (r *Registry[VM, EM]) Lookup(name string) (Factory[VM, EM], bool) {
	f, ok := r.factories[name]
	return f, ok
}

// Names lists the registered analyses, sorted.
func (r *Registry[VM, EM]) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe lists every registered analysis's schema, sorted by name.
func (r *Registry[VM, EM]) Describe() []AnalysisInfo {
	out := make([]AnalysisInfo, 0, len(r.infos))
	for _, n := range r.Names() {
		out = append(out, r.infos[n])
	}
	return out
}

// TemporalRegistry returns the stock registry for the BuildTemporal graph
// configuration (Unit vertex metadata, uint64 timestamp edge metadata) —
// the configuration cmd/tripoll and cmd/tripolld serve. Registered
// analyses:
//
//	count        triangle count (Alg. 2)                        -> uint64
//	closure      joint open/close time distribution (Alg. 4)    -> *stats.Joint2D
//	localcounts  per-vertex triangle participation counts       -> map[uint64]uint64
//	edgecounts   per-edge triangle participation counts         -> map[core.EdgeKey]uint64
//	labels       max edge label/timestamp distribution (Alg. 3) -> map[uint64]uint64
//	cc           clustering coefficients                        -> core.ClusteringAccum
//	sweep        δ-sweep counts; Args {"deltas":[...]}          -> []uint64
//	trussness    per-edge trussness of the window subgraph      -> truss.Decomp
//	maxtruss     max trussness + k-truss sizes                  -> truss.MaxResult
//	spantruss    maximal k-truss per span; Args {"k","spans"}   -> truss.SpanResult
func TemporalRegistry() *Registry[serialize.Unit, uint64] {
	type U = serialize.Unit
	r := NewRegistry[U, uint64]()
	r.RegisterInfo(AnalysisInfo{
		Name: "count", Doc: "triangle count (Alg. 2)", Result: "uint64",
	}, func(_ *graph.DODGr[U, uint64], _ Spec) (Instance[U, uint64], error) {
		out := new(uint64)
		return Instance[U, uint64]{
			Attached: core.CountAnalysis[U, uint64]().Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "closure", Doc: "joint wedge-open/triangle-close time distribution (Alg. 4)",
		Result: "[]{open, close, count}",
	}, func(_ *graph.DODGr[U, uint64], _ Spec) (Instance[U, uint64], error) {
		out := new(*stats.Joint2D)
		return Instance[U, uint64]{
			Attached: core.ClosureTimeAnalysis[U]().Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "localcounts", Doc: "per-vertex triangle participation counts",
		Result: "map[vertex]count",
	}, func(_ *graph.DODGr[U, uint64], _ Spec) (Instance[U, uint64], error) {
		out := new(map[uint64]uint64)
		return Instance[U, uint64]{
			Attached: core.VertexCountAnalysis[U, uint64]().Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "edgecounts", Doc: "per-edge triangle participation counts",
		Result: "[]{u, v, count}",
	}, func(_ *graph.DODGr[U, uint64], _ Spec) (Instance[U, uint64], error) {
		out := new(map[core.EdgeKey]uint64)
		return Instance[U, uint64]{
			Attached: core.EdgeCountAnalysis[U, uint64]().Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "labels", Doc: "max edge label/timestamp distribution across triangles (Alg. 3)",
		Args: []ArgSpec{
			{Name: "distinct", Type: "bool", Doc: "require pairwise-distinct vertex labels (default false)"},
		},
		Result: "map[label]count",
	}, func(_ *graph.DODGr[U, uint64], spec Spec) (Instance[U, uint64], error) {
		var args struct {
			Distinct bool `json:"distinct"`
		}
		if err := unmarshalArgs(spec, &args); err != nil {
			return Instance[U, uint64]{}, err
		}
		out := new(map[uint64]uint64)
		return Instance[U, uint64]{
			Attached: core.MaxEdgeLabelAnalysis[U](args.Distinct).Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "cc", Doc: "clustering coefficients (average, global transitivity)",
		Result: "{Counts, Stats}",
	}, func(g *graph.DODGr[U, uint64], _ Spec) (Instance[U, uint64], error) {
		out := new(core.ClusteringAccum)
		return Instance[U, uint64]{
			Attached: core.ClusteringAnalysis(g).Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "sweep", Doc: "triangle counts for each close-within δ in one traversal",
		Args: []ArgSpec{
			{Name: "deltas", Type: "[]uint", Doc: "δ thresholds to count under (at most 64)", Required: true},
		},
		Result: "[]uint64",
	}, func(_ *graph.DODGr[U, uint64], spec Spec) (Instance[U, uint64], error) {
		var args struct {
			Deltas []uint64 `json:"deltas"`
		}
		if err := unmarshalArgs(spec, &args); err != nil {
			return Instance[U, uint64]{}, err
		}
		if len(args.Deltas) == 0 {
			return Instance[U, uint64]{}, fmt.Errorf(`%w: needs args {"deltas":[...]}`, ErrBadSweepArgs)
		}
		if len(args.Deltas) > MaxSweepDeltas {
			return Instance[U, uint64]{}, fmt.Errorf("%w: %d deltas, at most %d allowed", ErrBadSweepArgs, len(args.Deltas), MaxSweepDeltas)
		}
		out := new([]uint64)
		return Instance[U, uint64]{
			Attached: core.TemporalSweepAnalysis[U](args.Deltas).Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "trussness", Doc: "per-edge trussness of the query window's subgraph (support peeling)",
		Result: "{edges: []{u, v, k}, max}",
	}, func(g *graph.DODGr[U, uint64], spec Spec) (Instance[U, uint64], error) {
		out := new(*truss.Accum)
		return Instance[U, uint64]{
			Attached: truss.TrussnessAnalysis(g, specWindow(spec)).Bind(out),
			Result:   func() any { return (*out).Outcome() },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "maxtruss", Doc: "maximum trussness and k-truss sizes of the query window's subgraph",
		Result: "{max, sizes: []{k, edges}}",
	}, func(g *graph.DODGr[U, uint64], spec Spec) (Instance[U, uint64], error) {
		out := new(*truss.Accum)
		return Instance[U, uint64]{
			Attached: truss.MaxTrussAnalysis(g, specWindow(spec)).Bind(out),
			Result:   func() any { return (*out).Outcome() },
		}, nil
	})
	r.RegisterInfo(AnalysisInfo{
		Name: "spantruss", Doc: "maximal k-truss per time span (Lotito-style), spans clipped to the query window",
		Args: []ArgSpec{
			{Name: "k", Type: "uint", Doc: "which k-truss to report (default 3, min 2, max 2147483647)"},
			{Name: "spans", Type: "[]{from, until}", Doc: "closed time spans to decompose (default: the whole query window; at most 64)"},
		},
		Result: "{k, spans: []{from, until, size, edges}}",
	}, func(g *graph.DODGr[U, uint64], spec Spec) (Instance[U, uint64], error) {
		var args truss.SpanTrussArgs
		if err := unmarshalArgs(spec, &args); err != nil {
			return Instance[U, uint64]{}, err
		}
		env := specWindow(spec)
		k, spans, err := args.Normalize(env)
		if err != nil {
			return Instance[U, uint64]{}, err
		}
		out := new(*truss.Accum)
		return Instance[U, uint64]{
			Attached: truss.SpanTrussAnalysis(g, env, k, spans).Bind(out),
			Result:   func() any { return (*out).Outcome() },
		}, nil
	})
	return r
}

// MaxSweepDeltas bounds the sweep analysis's deltas, as truss.MaxSpans
// bounds spantruss's spans: every triangle tests every delta on the
// scheduler's traversal, so a long list holds the scheduler for every
// other client.
const MaxSweepDeltas = 64

// ErrBadSweepArgs is wrapped by every rejection of sweep arguments: no
// deltas, or more than MaxSweepDeltas. tripolld answers it with 400 Bad
// Request.
var ErrBadSweepArgs = errors.New("engine: bad sweep args")

// specWindow reads the spec's closed query window; absent bounds widen to
// the whole axis. It must mirror compilePlan's From/Until handling — the
// truss analyses define their edge set by this window while the plan
// filters their triangles by the same bounds.
func specWindow(spec Spec) truss.Window {
	win := truss.WholeWindow()
	if spec.From != nil {
		win.From = *spec.From
	}
	if spec.Until != nil {
		win.Until = *spec.Until
	}
	return win
}

func unmarshalArgs(spec Spec, into any) error {
	if len(spec.Args) == 0 {
		return nil
	}
	if err := json.Unmarshal(spec.Args, into); err != nil {
		return fmt.Errorf("engine: analysis %q args: %w", spec.Analysis, err)
	}
	return nil
}

// EdgeCount is the wire form of one per-edge triangle count (map keys
// that are structs cannot cross encoding/json).
type EdgeCount struct {
	U     uint64 `json:"u"`
	V     uint64 `json:"v"`
	Count uint64 `json:"count"`
}

// JSONValue converts a stock analysis result into a form encoding/json
// can marshal faithfully: Joint2D grids become sorted cell lists and
// EdgeKey-keyed maps become sorted edge lists; everything else passes
// through unchanged. QueryResult.AppendJSON applies it to every result
// tripolld ships, and the coalesce ablation uses it to compare per-job
// results byte-for-byte.
func JSONValue(v any) any {
	switch t := v.(type) {
	case *stats.Joint2D:
		if t == nil {
			return []stats.JointCell{}
		}
		return t.Cells()
	case map[core.EdgeKey]uint64:
		out := make([]EdgeCount, 0, len(t))
		for k, c := range t {
			out = append(out, EdgeCount{U: k.First, V: k.Second, Count: c})
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].U != out[b].U {
				return out[a].U < out[b].U
			}
			return out[a].V < out[b].V
		})
		return out
	default:
		return v
	}
}
