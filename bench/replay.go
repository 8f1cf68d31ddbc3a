package main

// The traced replay: the per-layer metrics' only source. The same script a
// workload's untraced run sends is replayed by one client at each layer
// boundary in turn —
//
//	H  over HTTP against a live deployment              (tripolld spans)
//	E  at the tripoll.Engine boundary, same wiring       (engine spans; dist
//	   spans where the world spans a worker process)
//	C  at the core boundary: ExecuteFused/core.Run,      (core spans)
//	   Stream.Ingest/Advance/Materialize, Index.ServeQuery
//	K  leaf calls into single layers (leaf.go)
//
// — and the span of a request at one boundary is the parent of its span one
// boundary down. A second HTTP pass, by two clients against a fresh
// deployment, gives the queueing ratio and the /metrics deltas. To fit the contract's time cap the traced run uses the
// workload at a quarter of the untraced run's length (traceShare).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"tripoll"
	"tripoll/internal/core"
	"tripoll/internal/engine"
)

// traceShare is the length of the traced run's script as a share of the
// untraced run's.
const traceShare = 0.25

// passInfo is what a replay pass learned about each request beyond its span.
type passInfo struct {
	span      []int  // span index per request
	traversed []bool // the engine ran a traversal for it
	cached    []bool // ... answered it from its result cache
	indexed   []bool // ... had the maintained index answer it
}

// runTraced produces every per-layer metric for one workload. w is the
// workload at the traced run's (shorter) length.
func runTraced(ctx context.Context, cfg config, w *workload, dir string) (result, error) {
	tr := newTracer()
	script := w.timed()
	dep := deployment(w, "", "")

	// H: the script over HTTP, once by one client — its samples become the
	// tripolld spans every replay below hangs under — and once, against a
	// second fresh deployment, by two: the untraced run in small, for the
	// queueing ratio, the tail and the /metrics deltas.
	one, err := drive(ctx, cfg, w, filepath.Join(dir, "h1"), 1, true)
	if err != nil {
		return result{}, err
	}
	two, err := drive(ctx, cfg, w, filepath.Join(dir, "h2"), 2, true)
	if err != nil {
		return result{}, err
	}
	failures := append(append([]string{}, one.failures...), two.failures...)
	httpSpans := make([]int, len(script))
	for i, s := range one.timed.samples {
		httpSpans[i] = tr.add(layerTripolld, s.op.class, i, -1, s.sent, time.Duration(s.ms*1e6))
	}

	// E: the engine boundary, wired as the deployment is.
	outer := layerEngine
	if dep.workers > 0 {
		outer = layerDist
	}
	e, ep, err := replayEngine(ctx, cfg, w, script, tr, outer, httpSpans,
		inprocOpts{workers: dep.workers, trussIndex: dep.trussIndex, walDir: filepath.Join(dir, "wal-e")}, &failures)
	if err != nil {
		return result{}, err
	}
	lm := layerInputs{rendezvousS: ep.rendezvousS, buildS: ep.buildS, baseEdges: len(w.base), leaf: make(map[string]metric), memoHit: make(map[int]bool)}
	if dep.workers > 0 {
		// The same replay in a one-process channel world: what is left of a
		// dist span after subtracting it is the price of the process boundary.
		if e, _, err = replayEngine(ctx, cfg, w, script, tr, layerEngine, e.span,
			inprocOpts{trussIndex: dep.trussIndex, walDir: filepath.Join(dir, "wal-e1")}, &failures); err != nil {
			return result{}, err
		}
	}
	if dep.trussIndex {
		// Mutations only, no index sink: the difference to e's mutation
		// spans is what index maintenance adds to the write path.
		bare := newTracer()
		var muts []*op
		for _, o := range script {
			if o.kind != opQuery {
				muts = append(muts, o)
			}
		}
		none := make([]int, len(muts))
		for i := range none {
			none[i] = -1
		}
		if _, _, err := replayEngine(ctx, cfg, &workload{name: w.name, base: w.base}, muts, bare, layerEngine, none,
			inprocOpts{walDir: filepath.Join(dir, "wal-e0")}, &failures); err != nil {
			return result{}, err
		}
		for i := range bare.spans {
			lm.noSinkMutMs = append(lm.noSinkMutMs, bare.spans[i].ms())
		}
	}

	// C: the core boundary, on a bare stream in a one-process world (and the
	// leaf measurements that need its graph and index).
	if err := replayCore(cfg, w, script, tr, e, dir, &lm); err != nil {
		return result{}, err
	}
	// K: the other leaf calls.
	if err := replayLeaves(script, tr, e.span, dir, &lm); err != nil {
		return result{}, err
	}

	tr.printLayerTable(w.name)
	if cfg.traceDir != "" {
		if err := tr.write(filepath.Join(cfg.traceDir, w.name+".trace.json"), w.name); err != nil {
			return result{}, err
		}
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "bench: FAILED", f)
	}
	return result{
		Correct:   len(failures) == 0,
		Attempted: one.attempts + two.attempts,
		Failed:    len(failures),
		Metrics:   perLayer(tr, &one, &two, script, e, &lm),
	}, nil
}

// replayEngine replays script at the tripoll.Engine boundary of an
// in-process deployment, recording one span per request in layer, under the
// given parents. Answers are held to the oracle where it has one.
func replayEngine(ctx context.Context, cfg config, w *workload, script []*op, tr *tracer, layer string, parents []int, o inprocOpts, failures *[]string) (passInfo, *inproc, error) {
	n := len(script)
	info := passInfo{span: make([]int, n), traversed: make([]bool, n), cached: make([]bool, n), indexed: make([]bool, n)}
	p, err := openInproc(cfg, w.base, o)
	if err != nil {
		return info, nil, err
	}
	defer p.close()
	for i := range w.warm {
		if _, err := p.do(ctx, &w.warm[i]); err != nil {
			return info, p, err
		}
	}
	for i, op := range script {
		start := time.Now()
		res, err := p.do(ctx, op)
		info.span[i] = tr.add(layer, op.class, i, parents[i], start, time.Since(start))
		if err != nil {
			return info, p, fmt.Errorf("engine replay of %s %.80s: %w", op.class, op.body, err)
		}
		if op.kind != opQuery {
			continue
		}
		info.cached[i], info.indexed[i] = res.Cached, res.IndexServed
		info.traversed[i] = !res.Cached && !res.IndexServed
		if op.want != nil && !res.Cached { // a cached value is one already checked, or the warm-up's
			raw, err := json.Marshal(tripoll.QueryJSONValue(res.Value))
			if err != nil {
				return info, p, err
			}
			if got, err := comparable(op.class, raw); err != nil || !bytes.Equal(got, op.want) {
				*failures = append(*failures, fmt.Sprintf("engine replay of %s %.80s: wrong answer", op.class, op.body))
			}
		}
	}
	return info, p, nil
}

// layerInputs carries what the replays measured outside the span tree.
type layerInputs struct {
	rendezvousS, buildS float64
	baseEdges           int
	noSinkMutMs         []float64 // engine mutation spans without the truss index sink

	runs     []core.Result // one per core.Run of a scripted query
	ingests  []core.Result // one per Stream.Ingest
	advances []core.Result // one per Stream.Advance
	memoHit  map[int]bool  // truss span index → the index answered from its memo
	leaf     map[string]metric
}

// specOptions mirrors the engine's reading of a spec's traversal options.
func specOptions(s *engine.Spec) core.Options {
	o := core.Options{Mode: core.PushPull, PullFactor: 1}
	if s.Mode == "push-only" {
		o.Mode = core.PushOnly
	}
	return o
}

// replayCore replays, on a bare stream, the work the engine handed down for
// each request of script: a traversal for every query the engine did not
// answer from its cache (preceded by a Materialize when a mutation made the
// snapshot stale), an index lookup for index-served ones, Stream.Ingest or
// Advance for mutations.
func replayCore(cfg config, w *workload, script []*op, tr *tracer, e passInfo, dir string, lm *layerInputs) error {
	p, err := openInproc(cfg, w.base, inprocOpts{trussIndex: w.name == trussIndex})
	if err != nil {
		return err
	}
	defer p.close()
	reg := tripoll.TemporalQueryRegistry()
	timeOf := func(t uint64) uint64 { return t }
	snapshot, stale := p.g, true
	query := func(o *op, req, parent int, traced bool) error {
		if p.index != nil && (o.class == "maxtruss" || o.class == "trussness" || o.class == "spantruss") {
			before := p.index.Stats().Recomputed
			start := time.Now()
			_, _, err := p.index.ServeQuery(o.spec.Analysis, o.spec.Args, o.spec.From, o.spec.Until, o.spec.Delta)
			d := time.Since(start)
			if traced {
				hit := p.index.Stats().Recomputed == before
				name := "index.recompute"
				if hit {
					name = "index.hit"
				}
				lm.memoHit[tr.add(layerTruss, name, req, parent, start, d)] = hit
			}
			return err
		}
		if stale {
			start := time.Now()
			snapshot = p.stream.Materialize()
			stale = false
			if traced {
				tr.add(layerCore, "materialize", req, parent, start, time.Since(start))
			}
		}
		start := time.Now()
		res, _, err := engine.ExecuteFused(reg, timeOf, snapshot, specOptions(&o.spec), []engine.Spec{o.spec})
		d := time.Since(start)
		if traced {
			run := tr.add(layerCore, "run", req, parent, start, d)
			// The phase durations core reports, laid end to end inside the run.
			at := start
			for _, ph := range []struct {
				name string
				d    time.Duration
			}{{"dryrun", res.DryRun.Duration}, {"push", res.Push.Duration}, {"pull", res.Pull.Duration}} {
				tr.add(layerCore, ph.name, req, run, at, ph.d)
				at = at.Add(ph.d)
			}
			lm.runs = append(lm.runs, res)
			tr.counts["core.wedge_checks"] += float64(res.WedgeChecks)
			tr.counts["core.messages"] += float64(res.DryRun.Messages + res.Push.Messages + res.Pull.Messages)
			tr.counts["core.bytes"] += float64(res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes)
		}
		return err
	}
	mutate := func(o *op, req, parent int, traced bool) error {
		name, into := "ingest", &lm.ingests
		start := time.Now()
		var res core.Result
		var err error
		if o.kind == opIngest {
			res, err = p.stream.Ingest(o.batch)
		} else {
			name, into = "advance", &lm.advances
			res, err = p.stream.Advance(o.cutoff)
		}
		stale = true
		if traced {
			tr.add(layerCore, name, req, parent, start, time.Since(start))
			*into = append(*into, res)
		}
		return err
	}
	for i := range w.warm {
		step := query
		if w.warm[i].kind != opQuery {
			step = mutate
		}
		if err := step(&w.warm[i], -1, -1, false); err != nil {
			return err
		}
	}
	for i, o := range script {
		switch {
		case o.kind != opQuery:
			err = mutate(o, i, e.span[i], true)
		case e.traversed[i] || e.indexed[i]:
			err = query(o, i, e.span[i], true)
		}
		if err != nil {
			return err
		}
	}
	if p.index != nil {
		trussPeelLeaf(p.index.Store(), script, tr, lm)
	}
	return snapshotLeaf(p.g, dir, tr, lm)
}
