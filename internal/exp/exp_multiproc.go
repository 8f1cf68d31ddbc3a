package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/dist"
	"tripoll/internal/engine"
	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// AblationMultiproc quantifies the cost of spanning the world across OS
// processes: the same temporal survey on the same R total ranks, run as
// one process (all ranks local, loopback-TCP data plane) and as P
// processes of R/P ranks each (self-launched worker processes, the
// internal/dist rendezvous, every link round and remote batch crossing a
// real process boundary). Results must be byte-identical — the ablation
// measures what the process boundary costs, with correctness as a
// side-effect check.
func AblationMultiproc(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "multiproc", Title: "Ablation: one process vs a process-spanning world (internal/dist)"}

	// R total ranks, split across 1, 2, (4) processes. R stays fixed so the
	// algorithmic work and message counts are identical; only the process
	// count moves.
	ranks := cfg.MaxRanks
	if ranks < 2 {
		ranks = 2
	}
	procSweep := []int{1, 2}
	if ranks%4 == 0 {
		procSweep = append(procSweep, 4)
	}

	edges := gen.RedditLike(redditParams(cfg))
	var maxT uint64
	for _, e := range edges {
		if e.Time > maxT {
			maxT = e.Time
		}
	}
	specs := []engine.Spec{
		{Graph: "g", Analysis: "count"},
		{Graph: "g", Analysis: "closure", Delta: engine.Uint64(maxT/2 + 1)},
		{Graph: "g", Analysis: "cc"},
	}
	opts := core.Options{Mode: core.PushPull}

	tb := stats.NewTable(fmt.Sprintf("(reddit-like graph, %d total ranks, fused count+closure+cc; procs=1 is the baseline)", ranks),
		"processes", "ranks/proc", "build", "survey", "comm volume", "messages", "triangles")
	var baseVals []string
	var baseTriangles uint64
	for _, procs := range procSweep {
		res, vals, buildWall, err := multiprocRun(cfg, procs, ranks, edges, opts, specs)
		if err != nil {
			rep.notef("UNEXPECTED: %d-process run failed: %v", procs, err)
			continue
		}
		if procs == procSweep[0] {
			baseVals, baseTriangles = vals, res.Triangles
		} else {
			if res.Triangles != baseTriangles {
				rep.notef("COUNT MISMATCH at %d processes: %d vs %d", procs, res.Triangles, baseTriangles)
			}
			for i := range vals {
				if vals[i] != baseVals[i] {
					rep.notef("VALUE MISMATCH at %d processes: %q diverged from the 1-process run", procs, specs[i].Analysis)
				}
			}
		}
		vol := res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
		msgs := res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
		tb.AddRow(fmt.Sprintf("%d", procs), fmt.Sprintf("%d", ranks/procs),
			stats.FormatDuration(buildWall),
			stats.FormatDuration(res.Total),
			stats.FormatBytes(vol),
			stats.FormatCount(uint64(msgs)),
			stats.FormatCount(res.Triangles))
		rep.metric(fmt.Sprintf("multiproc/%dproc/survey_ns", procs), float64(res.Total.Nanoseconds()), "ns/op",
			fmt.Sprintf("ranks=%d procs=%d", ranks, procs))
		rep.metric(fmt.Sprintf("multiproc/%dproc/comm_bytes", procs), float64(vol), "bytes",
			fmt.Sprintf("ranks=%d procs=%d", ranks, procs))
	}
	rep.Output = tb.Render()
	rep.notef("results are checked byte-identical across process counts (the PR 8 acceptance property)")
	rep.notef("expected shape: identical message counts (the algorithm cannot see the process boundary); wall rises with procs on one host — every link round pays a real syscall round-trip")
	return rep
}

// multiprocRun answers the fused spec list on a procs-process world of
// ranks total ranks (procs == 1 means a plain local world) and returns the
// survey result, each spec's value in canonical JSON, and the build wall
// time.
func multiprocRun(cfg Config, procs, ranks int, edges []graph.TemporalEdge, opts core.Options, specs []engine.Spec) (core.Result, []string, time.Duration, error) {
	timeOf := func(ts uint64) uint64 { return ts }
	wopts := ygm.Options{Transport: ygm.TransportTCP, ListenAddr: "127.0.0.1:0"}
	if procs == 1 {
		w := ygm.MustWorld(ranks, wopts)
		defer w.Close()
		start := time.Now()
		g := buildTemporalSpan(w, edges)
		buildWall := time.Since(start)
		res, vals, err := engine.ExecuteFused(engine.TemporalRegistry(), timeOf, g, opts, specs)
		return res, canonicalValues(vals), buildWall, err
	}

	co, err := dist.Listen(dist.Config{Procs: procs, RanksPerProc: ranks / procs, Opts: wopts})
	if err != nil {
		return core.Result{}, nil, 0, err
	}
	workers, err := dist.SelfLaunch(co.Addr(), procs-1)
	if err != nil {
		co.Close()
		return core.Result{}, nil, 0, err
	}
	cl, err := co.Accept()
	if err != nil {
		dist.KillAll(workers)
		return core.Result{}, nil, 0, err
	}
	defer func() {
		cl.Close()
		dist.StopAll(workers, 10*time.Second)
	}()
	if err := cl.Build("g", dist.BuildSpec{Policy: "temporal"}); err != nil {
		return core.Result{}, nil, 0, err
	}
	start := time.Now()
	g := buildTemporalSpan(cl.World(), edges)
	buildWall := time.Since(start)
	if err := cl.Traverse("g", opts, specs); err != nil {
		return core.Result{}, nil, 0, err
	}
	res, vals, err := engine.ExecuteFused(engine.TemporalRegistry(), timeOf, g, opts, specs)
	return res, canonicalValues(vals), buildWall, err
}

// canonicalValues renders each analysis value as canonical JSON, the same
// normalization the query API serves, so map-backed accumulators compare
// deterministically.
func canonicalValues(vals []any) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		raw, err := json.Marshal(engine.JSONValue(v))
		if err != nil {
			out[i] = fmt.Sprintf("unmarshalable: %v", err)
			continue
		}
		out[i] = string(raw)
	}
	return out
}

// buildTemporalSpan is the collective temporal build of a possibly
// process-spanning world: this process's ranks stride over the local span
// (in the driver that covers every edge; in a worker the edge slice is
// empty), merging multi-edges keep-chronologically-first as BuildTemporal
// does.
func buildTemporalSpan(w *ygm.World, edges []graph.TemporalEdge) *graph.DODGr[serialize.Unit, uint64] {
	b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		MergeEdgeMeta: func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		},
	})
	var g *graph.DODGr[serialize.Unit, uint64]
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

// MultiprocServeWorker is the worker-process side of the multiproc
// ablation: binaries that support self-launched workers (cmd/tripoll-bench,
// the exp test binary) call it first thing in main when
// dist.JoinAddrFromEnv reports a coordinator to join. Returns the process
// exit code.
func MultiprocServeWorker(addr string) int {
	wk, err := dist.Join(addr, "127.0.0.1:0", 60*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "exp worker: join %s: %v\n", addr, err)
		return 1
	}
	hooks := dist.Hooks[serialize.Unit, uint64]{
		Registry:   engine.TemporalRegistry(),
		Timestamps: func(ts uint64) uint64 { return ts },
		Build: func(w *ygm.World, name string, spec dist.BuildSpec) (*graph.DODGr[serialize.Unit, uint64], error) {
			if spec.Policy != "temporal" {
				return nil, fmt.Errorf("exp worker: unknown build policy %q", spec.Policy)
			}
			return buildTemporalSpan(w, nil), nil
		},
		// The diststream ablation broadcasts durable mutations: this is the
		// worker's side of the driver's OpenDurableStream (same options, no
		// WAL — durability stays driver-side).
		OpenStream: func(g *graph.DODGr[serialize.Unit, uint64], policy string) (*core.Stream[serialize.Unit, uint64], error) {
			if policy != "temporal" {
				return nil, fmt.Errorf("exp worker: unknown stream policy %q", policy)
			}
			return core.OpenStream(g, core.StreamOptions[uint64]{MergeEdgeMeta: minU64}, core.TemporalPlan())
		},
	}
	if err := dist.Serve(wk, hooks, nil); err != nil {
		fmt.Fprintf(os.Stderr, "exp worker: serve: %v\n", err)
		return 1
	}
	return 0
}
