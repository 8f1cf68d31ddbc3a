package main

// Per-layer metrics, derived from the trace (spans and their self times),
// from the HTTP passes of the traced run (/metrics deltas, reply sizes) and
// from the leaf measurements. A layer a workload does not exercise reports
// 0: the contract wants every per-layer metric from every workload.

import "net/http"

// layerMetricUnits lists every per-layer metric with its unit; BENCHMARK.json
// repeats it and the smoke test holds the two together.
var layerMetricUnits = map[string]string{
	"tripolld.self_ms": "ms", "tripolld.resp_kb": "kB", "tripolld.shed_ratio": "ratio",
	"tripolld.query_p99_ms": "ms", "tripolld.fail_ratio": "ratio",

	"engine.query_ms": "ms", "engine.self_ms": "ms", "engine.hit_us": "us",
	"engine.cache_hit_ratio": "ratio", "engine.coalesce_ratio": "ratio", "engine.traversals": "count",
	"engine.materialize_ms": "ms", "engine.mutate_self_ms": "ms", "engine.queue_ratio": "ratio",

	"core.run_ms": "ms", "core.dryrun_ms": "ms", "core.push_ms": "ms", "core.pull_ms": "ms",
	"core.wedge_checks_per_s": "1/s", "core.msgs_per_run": "count", "core.bytes_per_run": "bytes",
	"core.work_balance": "ratio", "core.pruned_per_run": "count",
	"core.ingest_ms": "ms", "core.advance_ms": "ms", "core.delta_edges_per_s": "edges/s", "core.rebuild_ratio": "ratio",

	"graph.build_s": "s", "graph.build_eps": "edges/s", "graph.shard_insert_ns": "ns",
	"graph.snapshot_save_ms": "ms", "graph.snapshot_load_ms": "ms", "graph.snapshot_mb": "MB",

	"ygm.chan_msgs_per_s": "1/s", "ygm.tcp_msgs_per_s": "1/s", "ygm.chan_barrier_us": "us", "ygm.tcp_barrier_us": "us",

	"serialize.encode_ns_per_msg": "ns", "serialize.decode_ns_per_msg": "ns", "serialize.encode_allocs_per_msg": "count",

	"wal.append_sync_ms": "ms", "wal.append_nosync_us": "us", "wal.bytes_per_edge": "bytes",
	"wal.replay_ms": "ms", "wal.syncs_per_mutation": "ratio",

	"dist.rendezvous_s": "s", "dist.broadcast_ms_per_mut": "ms", "dist.commit_ms_per_mut": "ms",
	"dist.query_overhead_ms": "ms", "dist.worker_lag": "count",

	"truss.peel_ms": "ms", "truss.peel_edges_per_s": "edges/s", "truss.index_recompute_ms": "ms",
	"truss.index_hit_us": "us", "truss.index_commit_ms": "ms", "truss.index_served_ratio": "ratio",
	"truss.memo_hit_ratio": "ratio", "truss.buckets": "count",

	"trace.consistency": "ratio",
}

func ratioOf(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// perLayer assembles the per-layer metrics of one traced run.
func perLayer(tr *tracer, one, two *httpRun, script []*op, e passInfo, lm *layerInputs) map[string]metric {
	out := make(map[string]metric, len(layerMetricUnits))
	set := func(name string, v float64, n int) { out[name] = metric{v, layerMetricUnits[name], n} }
	med := func(name string, xs []float64, scale float64) { set(name, median(xs)*scale, len(xs)) }
	for name, m := range lm.leaf {
		out[name] = m
	}
	self := tr.selfMs()
	isQ := func(s *span) bool { return s.Req >= 0 && script[s.Req].kind == opQuery }
	spans := func(layer, name string, query bool) (dur, own []float64) {
		return tr.pick(self, func(_ int, s *span) bool {
			return s.Req >= 0 && s.Layer == layer && (name == "" || s.Name == name) && isQ(s) == query
		})
	}

	// tripolld: what the HTTP front end adds around the engine, and what the
	// client saw on the wire.
	_, own := spans(layerTripolld, "", true)
	med("tripolld.self_ms", own, 1)
	var replyBytes []float64
	attempted, shed := 0, 0
	for _, run := range []*httpRun{one, two} {
		for _, s := range run.timed.samples {
			attempted++
			if s.status == http.StatusTooManyRequests {
				shed++
			}
			if s.op.kind == opQuery && s.failure == "" {
				replyBytes = append(replyBytes, float64(s.bytes))
			}
		}
	}
	set("tripolld.resp_kb", mean(replyBytes)/1000, len(replyBytes))
	set("tripolld.shed_ratio", ratioOf(float64(shed), float64(attempted)), attempted)
	q2 := latencies(two.timed.samples, isQuery)
	set("tripolld.query_p99_ms", percentile(q2, 0.99), len(q2))
	attempts := one.attempts + two.attempts
	set("tripolld.fail_ratio", ratioOf(float64(len(one.failures)+len(two.failures)), float64(attempts)), attempts)

	// engine: Submit→Wait, and the scheduler's own share of it.
	var all, selfTrav, hits []float64
	for i := range script {
		if script[i].kind != opQuery {
			continue
		}
		s := &tr.spans[e.span[i]]
		all = append(all, s.ms())
		if e.traversed[i] {
			selfTrav = append(selfTrav, self[e.span[i]])
		}
		if e.cached[i] {
			hits = append(hits, s.ms())
		}
	}
	med("engine.query_ms", all, 1)
	med("engine.self_ms", selfTrav, 1)
	med("engine.hit_us", hits, 1000)
	_, own = spans(layerEngine, "", false)
	med("engine.mutate_self_ms", own, 1)
	dur, _ := spans(layerCore, "materialize", true)
	med("engine.materialize_ms", dur, 1)
	q1 := latencies(one.timed.samples, isQuery)
	set("engine.queue_ratio", ratioOf(median(q2), median(q1)), len(q2))
	b, a := &two.before, &two.after // the two-client run: coalescing needs two
	completed := float64(a.Engine.Completed - b.Engine.Completed)
	muts := float64(a.Engine.Mutations - b.Engine.Mutations)
	set("engine.cache_hit_ratio", ratioOf(float64(a.Engine.CacheHits-b.Engine.CacheHits), completed-muts), int(completed-muts))
	set("engine.coalesce_ratio", ratioOf(float64(a.Engine.Coalesced-b.Engine.Coalesced), completed-muts), int(completed-muts))
	set("engine.traversals", float64(a.Engine.Traversals-b.Engine.Traversals), 1)

	// core: traversals and stream mutations.
	for _, ph := range []string{"run", "dryrun", "push", "pull"} {
		dur, _ := spans(layerCore, ph, true)
		med("core."+ph+"_ms", dur, 1)
	}
	var checks, msgs, bytes, balance, pruned, runS float64
	for _, r := range lm.runs {
		checks += float64(r.WedgeChecks)
		msgs += float64(r.DryRun.Messages + r.Push.Messages + r.Pull.Messages)
		bytes += float64(r.DryRun.Bytes + r.Push.Bytes + r.Pull.Bytes)
		balance += r.WorkBalance
		pruned += float64(r.PrunedCandidates)
		runS += r.Total.Seconds()
	}
	n := len(lm.runs)
	set("core.wedge_checks_per_s", ratioOf(checks, runS), n)
	set("core.msgs_per_run", ratioOf(msgs, float64(n)), n)
	set("core.bytes_per_run", ratioOf(bytes, float64(n)), n)
	set("core.work_balance", ratioOf(balance, float64(n)), n)
	set("core.pruned_per_run", ratioOf(pruned, float64(n)), n)
	ingest, _ := spans(layerCore, "ingest", false)
	med("core.ingest_ms", ingest, 1)
	dur, _ = spans(layerCore, "advance", false)
	med("core.advance_ms", dur, 1)
	var deltaEdges, rebuilt, ingestS float64
	for _, r := range lm.ingests {
		deltaEdges += float64(r.DeltaEdges)
	}
	for _, r := range append(lm.ingests, lm.advances...) {
		if r.Rebuilt {
			rebuilt++
		}
	}
	for _, ms := range ingest {
		ingestS += ms / 1000
	}
	mutations := len(lm.ingests) + len(lm.advances)
	set("core.delta_edges_per_s", ratioOf(deltaEdges, ingestS), int(deltaEdges))
	set("core.rebuild_ratio", ratioOf(rebuilt, float64(mutations)), mutations)

	set("graph.build_s", lm.buildS, 1)
	set("graph.build_eps", ratioOf(float64(lm.baseEdges), lm.buildS), lm.baseEdges)

	set("wal.syncs_per_mutation", ratioOf(float64(a.walSyncs()-b.walSyncs()), muts), int(muts))

	// dist: the process boundary.
	set("dist.rendezvous_s", lm.rendezvousS, 1)
	_, own = spans(layerDist, "", true)
	med("dist.query_overhead_ms", own, 1)
	if a.Dist != nil {
		m := a.Dist.Mutation
		set("dist.broadcast_ms_per_mut", ratioOf(float64(m.BroadcastNS)/1e6, float64(m.Mutations)), int(m.Mutations))
		set("dist.commit_ms_per_mut", ratioOf(float64(m.CommitNS)/1e6, float64(m.Mutations)), int(m.Mutations))
	}
	set("dist.worker_lag", float64(workerLag(a)), 1)

	// truss: the maintained index.
	var recompute, hit []float64
	for i, isHit := range lm.memoHit {
		if isHit {
			hit = append(hit, tr.spans[i].ms())
		} else {
			recompute = append(recompute, tr.spans[i].ms())
		}
	}
	med("truss.index_recompute_ms", recompute, 1)
	med("truss.index_hit_us", hit, 1000)
	if len(lm.noSinkMutMs) > 0 {
		with, _ := spans(layerEngine, "", false)
		set("truss.index_commit_ms", median(with)-median(lm.noSinkMutMs), len(with))
	}
	if a.TrussIndex != nil {
		trussQueries := len(q2)
		served := float64(a.TrussIndex.Served - b.TrussIndex.Served)
		set("truss.index_served_ratio", ratioOf(float64(a.Engine.IndexServed-b.Engine.IndexServed), float64(trussQueries)), trussQueries)
		set("truss.memo_hit_ratio", 1-ratioOf(float64(a.TrussIndex.Recomputed-b.TrussIndex.Recomputed), served), int(served))
		set("truss.buckets", float64(a.TrussIndex.Buckets), 1)
	}

	set("trace.consistency", tr.consistency(self), len(script))
	for name, unit := range layerMetricUnits {
		if _, ok := out[name]; !ok {
			out[name] = metric{0, unit, 0} // a layer this workload does not exercise
		}
	}
	return out
}
