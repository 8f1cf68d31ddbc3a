package main

// The untraced run: real tripolld processes, driven over HTTP, tracing off.
// Every end-to-end metric comes from here and only from here.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"tripoll/internal/graph"
)

// config is what the command line fixes for every run of an invocation.
type config struct {
	binDir   string  // tripolld and tripoll-worker
	workDir  string  // scratch space for edge lists and WAL directories
	traceDir string  // where traced runs leave <workload>.trace.json; "" = nowhere
	scale    float64 // graph-size multiplier
	seconds  float64 // script-length multiplier (nominal run length)
}

// deployment maps a workload to the tripolld flags it is served with.
func deployment(w *workload, input, walDir string) serverOpts {
	return serverOpts{
		input:      input,
		walDir:     walDir,
		workers:    map[string]int{streamDist: 1}[w.name],
		trussIndex: w.name == trussIndex,
	}
}

// serverMetrics is the part of tripolld's /metrics document the benchmark
// reads.
type serverMetrics struct {
	Engine struct {
		Completed   uint64 `json:"completed"`
		CacheHits   uint64 `json:"cache_hits"`
		IndexServed uint64 `json:"index_served"`
		Coalesced   uint64 `json:"coalesced"`
		Traversals  uint64 `json:"traversals"`
		Mutations   uint64 `json:"mutations"`
	} `json:"engine"`
	Graphs []struct {
		Durable *struct {
			WAL struct {
				Syncs uint64 `json:"syncs"`
			} `json:"wal"`
		} `json:"durable"`
	} `json:"graphs"`
	Dist *struct {
		Mutation struct {
			Mutations     uint64   `json:"mutations"`
			BroadcastNS   int64    `json:"broadcast_ns_total"`
			CommitNS      int64    `json:"commit_ns_total"`
			WorkerApplied []uint64 `json:"worker_applied"`
		} `json:"mutation"`
	} `json:"dist"`
	TrussIndex *struct {
		Buckets    int    `json:"buckets"`
		Served     uint64 `json:"served"`
		Recomputed uint64 `json:"recomputed"`
	} `json:"truss_index"`
}

func (m *serverMetrics) walSyncs() uint64 {
	var n uint64
	for _, g := range m.Graphs {
		if g.Durable != nil {
			n += g.Durable.WAL.Syncs
		}
	}
	return n
}

func fetchMetrics(ctx context.Context, c *client) (serverMetrics, error) {
	var m serverMetrics
	status, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: HTTP %d", status)
	}
	return m, json.Unmarshal(body, &m)
}

// httpRun is everything the passes against one live deployment observed.
type httpRun struct {
	setupS   []float64 // one per server start
	warm     []sample
	timed    phase
	rssMB    float64
	before   serverMetrics // after warm-up
	after    serverMetrics // at quiesce, before the final query
	attempts int
	failures []string
}

// live is a started, warmed-up deployment and the clients driving it.
type live struct {
	srv     *server
	clients []*client
	seen    *answers
	run     httpRun
}

// A deployment is started at least minSetups times, and again until
// setupBudget has gone into starting or maxSetups is reached: setup_s is the
// median start, and the cheap deployments need more starts for a steady one.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// launch writes the workload's edge list under dir, starts its deployment
// several times (keeping the last; each start gets a fresh WAL directory),
// connects nClients clients and warms the deployment up. once limits it to a
// single start.
func launch(ctx context.Context, cfg config, w *workload, dir string, nClients int, once bool) (l *live, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	input := filepath.Join(dir, "edges.txt")
	if err := graph.WriteEdgeListFile(input, w.base); err != nil {
		return nil, err
	}
	l = &live{seen: &answers{seen: make(map[answerKey]uint64)}}
	var spent time.Duration
	for i := 0; i < minSetups || (spent < setupBudget && i < maxSetups); i++ {
		if l.srv != nil {
			l.srv.stop()
		}
		walDir := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		if l.srv, err = startServer(ctx, cfg.binDir, deployment(w, input, walDir)); err != nil {
			return nil, err
		}
		l.run.setupS = append(l.run.setupS, l.srv.setupS)
		spent += time.Duration(l.srv.setupS * float64(time.Second))
		if once {
			break
		}
	}
	defer func() {
		if err != nil {
			l.close()
		}
	}()
	for i := 0; i < nClients; i++ {
		l.clients = append(l.clients, newClient(l.srv.base))
	}
	if l.run.warm, err = replay(ctx, l.srv, l.clients[0], l.seen, -1, pointers(w.warm)); err != nil {
		return nil, err
	}
	l.run.before, err = fetchMetrics(ctx, l.clients[0])
	return l, err
}

func (l *live) close() {
	for _, c := range l.clients {
		c.close()
	}
	l.srv.stop()
}

// finish reads the peak RSS, takes the closing /metrics snapshot, checks
// the quiesced final answer and tallies attempts and failures.
func (l *live) finish(ctx context.Context, final *op) (err error) {
	run := &l.run
	if run.rssMB, err = l.srv.rssPeakMB(); err != nil {
		return err
	}
	// Every reply is in and every mutation acknowledged on every process:
	// the deployment is quiescent. The snapshot is taken before the final
	// query so its traversal does not count against the timed phase.
	if run.after, err = fetchMetrics(ctx, l.clients[0]); err != nil {
		return err
	}
	fin, err := replay(ctx, l.srv, l.clients[0], l.seen, -1, []*op{final})
	if err != nil {
		return err
	}
	for _, group := range [][]sample{run.warm, run.timed.samples, fin} {
		for _, s := range group {
			run.attempts++
			if s.failure != "" {
				run.failures = append(run.failures, fmt.Sprintf("%s %.120s: %s", s.op.class, s.op.body, s.failure))
			}
		}
	}
	if lag := workerLag(&run.after); lag != 0 {
		run.failures = append(run.failures, fmt.Sprintf("workers trail the driver by %d mutations at quiesce", lag))
	}
	return nil
}

// drive runs w against a fresh deployment with nClients closed-loop
// clients: launch, warm-up, the timed phase, the quiesced final check.
func drive(ctx context.Context, cfg config, w *workload, dir string, nClients int, once bool) (httpRun, error) {
	l, err := launch(ctx, cfg, w, dir, nClients, once)
	if err != nil {
		return httpRun{}, err
	}
	defer l.close()
	if l.run.timed, err = runTimed(ctx, l.srv, w, l.clients, l.seen); err != nil {
		return l.run, err
	}
	return l.run, l.finish(ctx, &w.final)
}

// workerLag is mutations broadcast minus the slowest worker's applied
// count; 0 in a single-process deployment.
func workerLag(m *serverMetrics) uint64 {
	if m.Dist == nil {
		return 0
	}
	lag := uint64(0)
	for _, applied := range m.Dist.Mutation.WorkerApplied {
		if d := m.Dist.Mutation.Mutations - applied; d > lag {
			lag = d
		}
	}
	return lag
}

// metric is one reported number. N is the sample count behind it (1 for a
// direct measurement or an exact count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// percentile is the nearest-rank p-quantile of xs (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// latencies collects the latencies of correctly answered samples that
// keep selects.
func latencies(samples []sample, keep func(*op) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.failure == "" && keep(s.op) {
			out = append(out, s.ms)
		}
	}
	return out
}

func isQuery(o *op) bool    { return o.kind == opQuery }
func isMutation(o *op) bool { return o.kind != opQuery }

// endToEnd computes the end-to-end metrics of one untraced run. Throughput
// is work acknowledged ÷ the time the rounds that hold such work took.
func endToEnd(run *httpRun) map[string]metric {
	ph := run.timed
	q := latencies(ph.samples, isQuery)
	m := latencies(ph.samples, isMutation)
	queryS, writeS := make(map[int]bool), make(map[int]bool)
	edges := 0
	for _, s := range ph.samples {
		if s.op.kind == opQuery {
			queryS[s.round] = true
			continue
		}
		writeS[s.round] = true
		if s.failure == "" {
			edges += len(s.op.batch)
		}
	}
	seconds := func(rounds map[int]bool) (t float64) {
		for r := range rounds {
			t += ph.roundS[r]
		}
		return t
	}
	return map[string]metric{
		"setup_s":       {median(run.setupS), "s", len(run.setupS)},
		"wall_s":        {ph.wallS, "s", 1},
		"query_qps":     {float64(len(q)) / seconds(queryS), "1/s", len(q)},
		"query_p50_ms":  {percentile(q, 0.50), "ms", len(q)},
		"query_p95_ms":  {percentile(q, 0.95), "ms", len(q)},
		"mutate_p50_ms": {percentile(m, 0.50), "ms", len(m)},
		"mutate_p95_ms": {percentile(m, 0.95), "ms", len(m)},
		"ingest_eps":    {float64(edges) / seconds(writeS), "edges/s", edges},
		"rss_peak_mb":   {run.rssMB, "MB", 1},
	}
}
