package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tripoll/internal/baseline"
	"tripoll/internal/engine"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// The acceptance property of the multi-process runtime: an N≥2-process
// world produces byte-identical survey results to a single-process world
// of the same rank count, across traversal modes, vertex orderings, and
// planned/unplanned queries, driven through the full engine path (driver
// scheduler + Fanout on one side, worker Serve + ExecuteFused on the
// other). "Byte-identical" is checked on the canonical JSON of every
// analysis value plus the deterministic survey figures: triangle counts
// and per-phase message/byte traffic. (Batch counts and wall-clock are
// excluded — batch boundaries depend on flush timing, wall on the host.)

type U = serialize.Unit

func mergeMin(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// buildTemporalOrdered is the collective temporal build both sides run:
// the driver's local ranks feed all edges, worker ranks feed none, and the
// transport ships every edge to its owner.
func buildTemporalOrdered(w *ygm.World, edges []graph.TemporalEdge, ord graph.Ordering) *graph.DODGr[U, uint64] {
	b := graph.NewBuilder[U, uint64](w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		Ordering:      ord,
		MergeEdgeMeta: mergeMin,
	})
	var g *graph.DODGr[U, uint64]
	first, count := w.LocalSpan()
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID() - first; i < len(edges); i += count {
			b.AddEdge(r, edges[i].U, edges[i].V, edges[i].Time)
		}
		gg := b.Build(r)
		if r.ID() == w.LeaderID() {
			g = gg
		}
	})
	return g
}

func randomTemporalEdges(seed int64, verts, count int) []graph.TemporalEdge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.TemporalEdge, 0, count)
	for i := 0; i < count; i++ {
		u := uint64(rng.Intn(verts))
		v := uint64(rng.Intn(verts))
		edges = append(edges, graph.TemporalEdge{U: u, V: v, Time: uint64(rng.Intn(32))})
	}
	return edges
}

// answer is the comparable digest of one job: the analysis value in
// canonical JSON plus the deterministic survey figures.
type answer struct {
	Value     string
	Triangles uint64
	Traffic   [3][2]int64 // per phase (dry-run, push, pull): messages, bytes
}

func digest(res engine.QueryResult) answer {
	v, err := json.Marshal(engine.JSONValue(res.Value))
	if err != nil {
		v = []byte(fmt.Sprintf("unmarshalable: %v", err))
	}
	s := res.Survey
	return answer{
		Value:     string(v),
		Triangles: s.Triangles,
		Traffic: [3][2]int64{
			{s.DryRun.Messages, s.DryRun.Bytes},
			{s.Push.Messages, s.Push.Bytes},
			{s.Pull.Messages, s.Pull.Bytes},
		},
	}
}

// equivalenceSpecs covers planned/unplanned × push-pull/push-only and a
// spread of analyses whose accumulators exercise every wire type: scalar,
// histogram grid, maps, and the clustering composite.
func equivalenceSpecs() []engine.Spec {
	return []engine.Spec{
		{Graph: "g", Analysis: "count"},
		{Graph: "g", Analysis: "count", Mode: "push-only"},
		{Graph: "g", Analysis: "closure", Delta: engine.Uint64(6)},
		{Graph: "g", Analysis: "closure", Mode: "push-only", Delta: engine.Uint64(6)},
		{Graph: "g", Analysis: "localcounts", From: engine.Uint64(4), Until: engine.Uint64(28)},
		{Graph: "g", Analysis: "cc"},
		{Graph: "g", Analysis: "edgecounts", Delta: engine.Uint64(10)},
	}
}

func submitAll(t *testing.T, e *engine.Engine[U, uint64], specs []engine.Spec) []answer {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out := make([]answer, 0, len(specs))
	for _, s := range specs {
		job, err := e.Submit(ctx, s)
		if err != nil {
			t.Fatalf("submit %+v: %v", s, err)
		}
		res, err := job.Wait(ctx)
		if err != nil {
			t.Fatalf("job %q: %v", s.Analysis, err)
		}
		out = append(out, digest(res))
	}
	return out
}

// runSingleProcess answers the spec list on a single-process TCP world.
func runSingleProcess(t *testing.T, ranks int, edges []graph.TemporalEdge, ord graph.Ordering, specs []engine.Spec) []answer {
	t.Helper()
	w, err := ygm.NewWorld(ranks, tcpOpts())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	defer w.Close()
	g := buildTemporalOrdered(w, edges, ord)
	e := engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
	})
	defer e.Close()
	if err := e.Register("g", g); err != nil {
		t.Fatalf("register: %v", err)
	}
	return submitAll(t, e, specs)
}

// runMultiProcess answers the same list on a procs-process world with the
// same total rank count, workers running the production Serve loop.
func runMultiProcess(t *testing.T, procs, perProc int, edges []graph.TemporalEdge, ord graph.Ordering, specs []engine.Spec) []answer {
	t.Helper()
	cl, wks := startCluster(t, procs, perProc, tcpOpts())
	hooks := Hooks[U, uint64]{
		Registry:   engine.TemporalRegistry(),
		Timestamps: func(ts uint64) uint64 { return ts },
		Build: func(w *ygm.World, name string, spec BuildSpec) (*graph.DODGr[U, uint64], error) {
			return buildTemporalOrdered(w, nil, graph.Ordering(spec.Ordering)), nil
		},
	}
	served := make(chan error, len(wks))
	for _, wk := range wks {
		go func(wk *Worker) { served <- Serve(wk, hooks, nil) }(wk)
	}

	if err := cl.Build("g", BuildSpec{Ordering: int(ord), Policy: "temporal"}); err != nil {
		t.Fatalf("Build broadcast: %v", err)
	}
	g := buildTemporalOrdered(cl.World(), edges, ord)
	e := engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
		Fanout:     cl,
	})
	if err := e.Register("g", g); err != nil {
		t.Fatalf("register: %v", err)
	}
	out := submitAll(t, e, specs)
	e.Close()
	if err := cl.Close(); err != nil {
		t.Errorf("cluster close: %v", err)
	}
	for range wks {
		if err := <-served; err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}
	return out
}

func TestCrossProcessEquivalence(t *testing.T) {
	const ranks = 4
	specs := equivalenceSpecs()
	for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
		for seed := int64(1); seed <= 2; seed++ {
			name := fmt.Sprintf("%s/seed%d", ord, seed)
			t.Run(name, func(t *testing.T) {
				edges := randomTemporalEdges(seed, 48, 160)
				single := runSingleProcess(t, ranks, edges, ord, specs)
				multi := runMultiProcess(t, 2, ranks/2, edges, ord, specs)
				for i := range specs {
					if single[i] != multi[i] {
						t.Errorf("spec %q diverged:\n  1-process: %+v\n  2-process: %+v",
							specs[i].Analysis, single[i], multi[i])
					}
				}
			})
		}
	}
}

// TestWorkerLeaveFailsJobsNotServer: after a worker drains out (SIGTERM
// semantics), in-flight and new traversals fail with an error — but the
// driver's engine survives, and cached answers keep being served. Before
// any of that, a build asking for more than one copy of the graph is
// refused without reaching the workers, and the world still builds and
// counts afterwards.
func TestWorkerLeaveFailsJobsNotServer(t *testing.T) {
	cl, wks := startCluster(t, 2, 1, tcpOpts())
	hooks := Hooks[U, uint64]{
		Registry:   engine.TemporalRegistry(),
		Timestamps: func(ts uint64) uint64 { return ts },
		Build: func(w *ygm.World, name string, spec BuildSpec) (*graph.DODGr[U, uint64], error) {
			return buildTemporalOrdered(w, nil, graph.OrderDegree), nil
		},
	}
	stop := make(chan struct{})
	served := make(chan error, 1)
	go func() { served <- Serve(wks[0], hooks, stop) }()

	edges := randomTemporalEdges(7, 24, 60)
	if err := cl.Build("g", BuildSpec{Policy: "temporal", Replicas: 2}); err == nil {
		t.Fatal("Build with 2 replicas accepted")
	}
	if err := cl.Build("g", BuildSpec{Policy: "temporal", Replicas: 1}); err != nil {
		t.Fatalf("Build broadcast: %v", err)
	}
	g := buildTemporalOrdered(cl.World(), edges, graph.OrderDegree)
	e := engine.New(engine.TemporalRegistry(), engine.EngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
		Fanout:     cl,
	})
	defer e.Close()
	if err := e.Register("g", g); err != nil {
		t.Fatalf("register: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	warm := engine.Spec{Graph: "g", Analysis: "count"}
	job, err := e.Submit(ctx, warm)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	first, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("warm job: %v", err)
	}
	pairs := make([][2]uint64, len(edges))
	for i, e := range edges {
		pairs[i] = [2]uint64{e.U, e.V}
	}
	if want := baseline.SerialCount(pairs); first.Survey.Triangles != want {
		t.Fatalf("count after the refused build = %d, serial reference %d", first.Survey.Triangles, want)
	}

	// Drain the worker out and wait for its departure to land.
	close(stop)
	if err := <-served; err != nil {
		t.Fatalf("serve: %v", err)
	}

	// A fresh traversal must fail — cleanly, as a job error.
	job, err = e.Submit(ctx, engine.Spec{Graph: "g", Analysis: "count", Delta: engine.Uint64(3)})
	if err == nil {
		if _, err = job.Wait(ctx); err == nil {
			t.Fatal("traversal succeeded with no worker in the world")
		}
	}

	// The cached answer is still served: the engine outlives the world.
	job, err = e.Submit(ctx, warm)
	if err != nil {
		t.Fatalf("cached submit: %v", err)
	}
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("cached job after worker loss: %v", err)
	}
	if !res.Cached || res.Survey.Triangles != first.Survey.Triangles {
		t.Errorf("cached replay = {cached:%v triangles:%d}, want {true %d}",
			res.Cached, res.Survey.Triangles, first.Survey.Triangles)
	}
	cl.Close()
}
