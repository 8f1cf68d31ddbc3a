package main

// An in-process copy of a tripolld deployment, wired exactly as
// cmd/tripolld/main.go wires it (BuildTemporal, NewQueryEngine,
// OpenDurableStreamSinks, AttachIndex; dist.Listen/Accept/Build when the
// world spans a worker process). The HTTP server lives in package main and
// cannot be imported, so the traced replay peels the layers from outside:
// this file gives it the engine boundary and, underneath, the graph and
// stream the core boundary needs.

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"tripoll"
	"tripoll/internal/dist"
	"tripoll/internal/graph"
)

func minTimestamp(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

const graphName = "default"

// inproc is one in-process deployment.
type inproc struct {
	world   *tripoll.World
	cluster *dist.Cluster // nil in a one-process world
	worker  *child        // the tripoll-worker process of a two-process world
	g       *tripoll.Graph[tripoll.Unit, uint64]
	eng     *tripoll.Engine[tripoll.Unit, uint64] // nil when opened without an engine
	stream  *tripoll.Stream[tripoll.Unit, uint64]
	index   *tripoll.TrussIndex[tripoll.Unit]

	rendezvousS float64 // Listen + launch + Accept
	buildS      float64 // BuildTemporal
}

// inprocOpts selects the wiring.
type inprocOpts struct {
	workers    int    // tripoll-worker processes (0 or 1)
	trussIndex bool   // attach the maintained truss index
	walDir     string // "" = no engine: open a bare stream for the core boundary
}

func openInproc(cfg config, base []graph.TemporalEdge, o inprocOpts) (p *inproc, err error) {
	p = &inproc{}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	if o.workers > 0 {
		t0 := time.Now()
		co, err := dist.Listen(dist.Config{
			Procs: o.workers + 1, RanksPerProc: 4 / (o.workers + 1),
			Opts: tripoll.WorldOptions{Transport: tripoll.TransportTCP},
		})
		if err != nil {
			return p, err
		}
		cmd := exec.Command(filepath.Join(cfg.binDir, "tripoll-worker"), "-join", co.Addr())
		cmd.Stderr = os.Stderr
		if p.worker, err = spawn(cmd); err != nil {
			co.Close()
			return p, err
		}
		if p.cluster, err = co.Accept(); err != nil {
			return p, err
		}
		p.rendezvousS = time.Since(t0).Seconds()
		p.world = p.cluster.World()
		if err := p.cluster.Build(graphName, dist.BuildSpec{Policy: "temporal", Replicas: 1}); err != nil {
			return p, err
		}
	} else if p.world, err = tripoll.NewWorldWith(4, tripoll.WorldOptions{}); err != nil {
		return p, err
	}
	t0 := time.Now()
	p.g = tripoll.BuildTemporal(p.world, base)
	p.buildS = time.Since(t0).Seconds()

	sopts := tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp}
	var sinks []tripoll.StreamSink[tripoll.Unit, uint64]
	policy := "temporal"
	if o.trussIndex {
		policy = "temporal+truss"
		p.index = tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
		sinks = append(sinks, p.index)
	}
	if o.walDir == "" {
		p.stream, err = tripoll.OpenStreamSinks(p.g, sopts, tripoll.NewTemporalPlan(), sinks)
		return p, err
	}
	eopts := tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(t uint64) uint64 { return t },
		MaxPending: 1024,
	}
	if p.cluster != nil {
		eopts.Fanout, eopts.Mutator = p.cluster, p.cluster
	}
	p.eng = tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), eopts)
	p.stream, _, err = p.eng.OpenDurableStreamSinks(graphName, p.g, sopts, tripoll.NewTemporalPlan(),
		tripoll.DurableStreamOptions{Dir: o.walDir, Sync: tripoll.WALSyncAlways, Policy: policy}, sinks)
	if err != nil {
		return p, err
	}
	if p.index != nil {
		err = p.eng.AttachIndex(graphName, p.index)
	}
	return p, err
}

// close tears the deployment down; the worker process is killed, not
// drained — nothing of it is measured after this point.
func (p *inproc) close() {
	if p.eng != nil {
		p.eng.Close()
	}
	if p.worker != nil {
		p.worker.kill()
	}
	if p.cluster != nil {
		p.cluster.Close()
	} else if p.world != nil {
		p.world.Close()
	}
}

// do runs one scripted op at the engine boundary, as tripolld's handlers
// would, and returns the answer's value (queries) and the graph epoch.
func (p *inproc) do(ctx context.Context, o *op) (tripoll.QueryResult, error) {
	switch o.kind {
	case opIngest:
		_, err := p.eng.Ingest(ctx, graphName, o.batch)
		return tripoll.QueryResult{}, err
	case opAdvance:
		_, err := p.eng.Advance(ctx, graphName, o.cutoff)
		return tripoll.QueryResult{}, err
	}
	job, err := p.eng.Submit(ctx, o.spec)
	if err != nil {
		return tripoll.QueryResult{}, err
	}
	res, err := job.Wait(ctx)
	if err != nil {
		return res, fmt.Errorf("%s: %w", o.class, err)
	}
	return res, nil
}
