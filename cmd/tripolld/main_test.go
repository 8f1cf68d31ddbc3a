package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tripoll"
	"tripoll/datagen"
	"tripoll/internal/leaktest"
)

// newTestServer builds a server over a small generated temporal graph and
// returns it with the underlying graph for baseline comparisons.
func newTestServer(t *testing.T) (*httptest.Server, *tripoll.Graph[tripoll.Unit, uint64]) {
	t.Helper()
	p := datagen.DefaultRedditParams()
	p.Events = 4000
	p.Users = 500
	edges := datagen.RedditLike(p)
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, edges)
	eng := tripoll.NewTemporalQueryEngine()
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w}))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
		w.Close()
	})
	return srv, g
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url, body string, into any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealthGraphsAnalyses(t *testing.T) {
	srv, _ := newTestServer(t)
	var health map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 || health["status"] != "ok" {
		t.Errorf("healthz: code=%d body=%v", code, health)
	}
	var graphs []map[string]any
	if code := getJSON(t, srv.URL+"/v1/graphs", &graphs); code != 200 || len(graphs) != 1 {
		t.Fatalf("graphs: code=%d body=%v", code, graphs)
	}
	if graphs[0]["name"] != "default" || graphs[0]["Vertices"].(float64) <= 0 {
		t.Errorf("graphs entry: %v", graphs[0])
	}
	var analyses []tripoll.AnalysisInfo
	if code := getJSON(t, srv.URL+"/v1/analyses", &analyses); code != 200 {
		t.Fatalf("analyses: code=%d", code)
	}
	byName := map[string]tripoll.AnalysisInfo{}
	for _, a := range analyses {
		byName[a.Name] = a
	}
	for _, want := range []string{"count", "closure", "cc", "trussness", "maxtruss", "spantruss"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("analyses missing %q: %v", want, analyses)
		}
	}
}

// TestAnalysesSchema is the /v1/analyses golden test: every analysis ships
// a description, a result shape, and its argument schema, so clients can
// discover what a QuerySpec may carry without reading the source.
func TestAnalysesSchema(t *testing.T) {
	srv, _ := newTestServer(t)
	var analyses []tripoll.AnalysisInfo
	if code := getJSON(t, srv.URL+"/v1/analyses", &analyses); code != 200 {
		t.Fatalf("analyses: code=%d", code)
	}
	byName := map[string]tripoll.AnalysisInfo{}
	for i, a := range analyses {
		if a.Name == "" || a.Doc == "" || a.Result == "" {
			t.Errorf("analysis %d incomplete: %+v", i, a)
		}
		if i > 0 && analyses[i-1].Name >= a.Name {
			t.Errorf("analyses not sorted: %q then %q", analyses[i-1].Name, a.Name)
		}
		byName[a.Name] = a
	}
	args := func(name string) map[string]tripoll.AnalysisArgSpec {
		t.Helper()
		a, ok := byName[name]
		if !ok {
			t.Fatalf("analysis %q not listed", name)
		}
		out := map[string]tripoll.AnalysisArgSpec{}
		for _, sp := range a.Args {
			if sp.Name == "" || sp.Type == "" || sp.Doc == "" {
				t.Errorf("%s: incomplete arg spec: %+v", name, sp)
			}
			out[sp.Name] = sp
		}
		return out
	}
	// Argless analyses advertise no schema.
	for _, name := range []string{"count", "closure", "cc", "trussness", "maxtruss"} {
		if a := args(name); len(a) != 0 {
			t.Errorf("%s must take no args: %v", name, a)
		}
	}
	// sweep requires its deltas; labels' distinct and spantruss's k/spans
	// are optional.
	sweep := args("sweep")
	if sp, ok := sweep["deltas"]; !ok || !sp.Required || sp.Type != "[]uint" {
		t.Errorf("sweep deltas spec: %+v", sweep)
	}
	labels := args("labels")
	if sp, ok := labels["distinct"]; !ok || sp.Required || sp.Type != "bool" {
		t.Errorf("labels distinct spec: %+v", labels)
	}
	span := args("spantruss")
	if sp, ok := span["k"]; !ok || sp.Required || sp.Type != "uint" {
		t.Errorf("spantruss k spec: %+v", span)
	}
	if sp, ok := span["spans"]; !ok || sp.Required {
		t.Errorf("spantruss spans spec: %+v", span)
	}
}

func TestSubmitWaitCountMatchesRun(t *testing.T) {
	srv, g := newTestServer(t)
	want, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st)
	if code != 200 || st.Status != "done" || st.Result == nil {
		t.Fatalf("wait submit: code=%d status=%+v", code, st)
	}
	got, ok := st.Result.Value.(float64) // JSON numbers decode as float64
	if !ok || uint64(got) != want.Triangles {
		t.Errorf("count = %v, want %d", st.Result.Value, want.Triangles)
	}
	if st.Result.Analysis != "count" || st.Result.Graph != "default" {
		t.Errorf("result provenance: %+v", st.Result)
	}

	// The same question again is a cache hit.
	var st2 jobStatus
	postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st2)
	if st2.Result == nil || !st2.Result.Cached {
		t.Errorf("repeat query not cached: %+v", st2.Result)
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	srv, _ := newTestServer(t)
	var st jobStatus
	code := postJSON(t, srv.URL+"/v1/query", `{"analysis":"closure","delta":100000}`, &st)
	if code != http.StatusAccepted || st.Job == 0 {
		t.Fatalf("submit: code=%d %+v", code, st)
	}
	url := srv.URL + "/v1/jobs/" + jsonNum(st.Job)
	deadline := time.Now().Add(10 * time.Second)
	for {
		var poll jobStatus
		if code := getJSON(t, url, &poll); code != 200 {
			t.Fatalf("poll: code=%d", code)
		}
		if poll.Status == "done" {
			if poll.Result == nil || poll.Result.Analysis != "closure" {
				t.Fatalf("done without result: %+v", poll)
			}
			break
		}
		if poll.Status == "failed" {
			t.Fatalf("job failed: %+v", poll)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck %q", poll.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The dedicated result endpoint serves the bare result.
	var res tripoll.QueryResult
	if code := getJSON(t, url+"/result", &res); code != 200 || res.Analysis != "closure" {
		t.Errorf("result endpoint: code=%d %+v", code, res)
	}
	if _, ok := res.Value.([]any); !ok {
		t.Errorf("closure value did not ship as a cell list: %T", res.Value)
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	var e map[string]string
	if code := postJSON(t, srv.URL+"/v1/query", `{"analysis":"nope"}`, &e); code != 400 || e["error"] == "" {
		t.Errorf("unknown analysis: code=%d %v", code, e)
	}
	if code := postJSON(t, srv.URL+"/v1/query", `{analysis}`, &e); code != 400 {
		t.Errorf("bad json: code=%d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/query", `{"analysis":"count","bogus":1}`, &e); code != 400 {
		t.Errorf("unknown field: code=%d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/query", `{"analysis":"count","graph":"missing"}`, &e); code != 400 {
		t.Errorf("unknown graph: code=%d", code)
	}
	var st jobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs/99999", &st); code != 404 {
		t.Errorf("unknown job: code=%d", code)
	}
	// Args only the factory can validate fail at dispatch; a waited
	// submit must still surface that as a client error, not a 200.
	var failed jobStatus
	if code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"sweep"}`, &failed); code != 400 || failed.Status != "failed" || failed.Error == "" {
		t.Errorf("sweep without deltas: code=%d status=%+v", code, failed)
	}
}

func jsonNum(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// postRaw is postJSON when the test needs the response itself (headers,
// status of bodies that may not decode).
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestRateLimit429WithRetryAfter(t *testing.T) {
	p := datagen.DefaultRedditParams()
	p.Events = 1000
	p.Users = 200
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewTemporalQueryEngine()
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	lim := newLimiter(1, 2) // 1 rps, burst 2
	clock := time.Unix(1000, 0)
	lim.now = func() time.Time { return clock }
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{limiter: lim}))
	t.Cleanup(func() { srv.Close(); eng.Close(); w.Close() })

	for i := 0; i < 2; i++ {
		var into []tripoll.AnalysisInfo
		if code := getJSON(t, srv.URL+"/v1/analyses", &into); code != 200 {
			t.Fatalf("request %d within burst: code=%d", i, code)
		}
	}
	resp := postRaw(t, srv.URL+"/v1/query", `{"analysis":"count"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over burst: code=%d, want 429", resp.StatusCode)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	// The limiter never throttles liveness or metrics.
	var health map[string]string
	if code := getJSON(t, srv.URL+"/healthz", &health); code != 200 {
		t.Errorf("healthz throttled: code=%d", code)
	}
	var m metricsPayload
	if code := getJSON(t, srv.URL+"/metrics", &m); code != 200 {
		t.Errorf("metrics throttled: code=%d", code)
	}
	if m.HTTP.RateLimited == 0 {
		t.Errorf("rate_limited counter = 0 after a 429")
	}
	// Honoring Retry-After restores service: advance the clock by it.
	clock = clock.Add(time.Duration(ra) * time.Second)
	var into []tripoll.AnalysisInfo
	if code := getJSON(t, srv.URL+"/v1/analyses", &into); code != 200 {
		t.Errorf("after Retry-After: code=%d, want 200", code)
	}
}

// TestMetricsSchema is the /metrics golden test: every documented field
// must be present with the documented JSON type.
func TestMetricsSchema(t *testing.T) {
	srv, _ := newTestServer(t)
	// Put traffic through first so counters are live: one query twice (the
	// second is a cache hit).
	var st jobStatus
	postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st)
	postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st)

	var raw map[string]json.RawMessage
	if code := getJSON(t, srv.URL+"/metrics", &raw); code != 200 {
		t.Fatalf("metrics: code=%d", code)
	}
	for _, key := range []string{"engine", "queue_depth", "cache_hit_rate", "coalesce_ratio", "graphs", "http", "world"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, raw)
		}
	}
	var eng map[string]float64
	if err := json.Unmarshal(raw["engine"], &eng); err != nil {
		t.Fatalf("engine section: %v", err)
	}
	for _, key := range []string{"submitted", "completed", "failed", "shed", "cache_hits", "index_served", "deduped", "coalesced", "traversals", "mutations", "traversal_messages", "traversal_bytes", "cache_entries", "cache_bytes", "cache_evictions", "materializations", "materialize_entries"} {
		if _, ok := eng[key]; !ok {
			t.Errorf("engine section missing %q: %v", key, eng)
		}
	}
	if eng["submitted"] < 2 || eng["cache_hits"] < 1 || eng["cache_entries"] != 1 || eng["cache_bytes"] <= 0 {
		t.Errorf("counters not live: %v", eng)
	}
	var graphs []map[string]any
	if err := json.Unmarshal(raw["graphs"], &graphs); err != nil || len(graphs) != 1 {
		t.Fatalf("graphs section: %v (%v)", graphs, err)
	}
	if graphs[0]["name"] != "default" {
		t.Errorf("graphs[0] = %v", graphs[0])
	}
	if _, ok := graphs[0]["durable"]; ok {
		t.Errorf("static graph reports a durable section: %v", graphs[0])
	}
	var httpSec map[string]float64
	if err := json.Unmarshal(raw["http"], &httpSec); err != nil {
		t.Fatalf("http section: %v", err)
	}
	for _, key := range []string{"requests", "rate_limited", "overloaded", "jobs_retained", "retained_bytes", "value_encodes", "encode_errors"} {
		if _, ok := httpSec[key]; !ok {
			t.Errorf("http section missing %q: %v", key, httpSec)
		}
	}
	if httpSec["requests"] < 3 || httpSec["jobs_retained"] < 2 || httpSec["retained_bytes"] <= 0 || httpSec["value_encodes"] != 1 {
		t.Errorf("http counters not live: %v", httpSec)
	}
	var world map[string]float64
	if err := json.Unmarshal(raw["world"], &world); err != nil {
		t.Fatalf("world section: %v", err)
	}
	if world["messages_sent"] <= 0 {
		t.Errorf("world.messages_sent = %v, want > 0 after traversals", world["messages_sent"])
	}
	for _, key := range []string{"messages_processed", "handlers", "link_sync_rounds", "link_quiesce_rounds", "link_exchange_rounds"} {
		if _, ok := world[key]; !ok {
			t.Errorf("world section missing %q: %v", key, world)
		}
	}
	if world["handlers"] < 1 {
		t.Errorf("world.handlers = %v, want the relay handler at least", world["handlers"])
	}
	// The dist section exists only under -workers; a single-process server
	// must omit it rather than serve zeros.
	if _, ok := raw["dist"]; ok {
		t.Errorf("single-process metrics report a dist section: %v", raw)
	}
	// Its wire shape is pinned here anyway: the mutation counters the
	// multiproc smoke test reads by these names.
	distJSON, err := json.Marshal(distMetrics{})
	if err != nil {
		t.Fatalf("marshal dist section: %v", err)
	}
	var distSec map[string]json.RawMessage
	if err := json.Unmarshal(distJSON, &distSec); err != nil {
		t.Fatalf("dist section: %v", err)
	}
	for _, key := range []string{"procs", "mutation"} {
		if _, ok := distSec[key]; !ok {
			t.Errorf("dist section missing %q: %s", key, distJSON)
		}
	}
	var mut map[string]json.RawMessage
	if err := json.Unmarshal(distSec["mutation"], &mut); err != nil {
		t.Fatalf("dist.mutation section: %v", err)
	}
	for _, key := range []string{"mutations", "broadcast_ns_total", "commit_ns_total", "worker_applied"} {
		if _, ok := mut[key]; !ok {
			t.Errorf("dist.mutation missing %q: %s", key, distSec["mutation"])
		}
	}
	// Likewise the truss_index section (-truss-index only): bench/run.go
	// reads buckets, served and recomputed by these names.
	if _, ok := raw["truss_index"]; ok {
		t.Errorf("metrics without -truss-index report a truss_index section: %v", raw)
	}
	ixJSON, err := json.Marshal(tripoll.TrussIndexStats{})
	if err != nil {
		t.Fatalf("marshal truss_index section: %v", err)
	}
	var ixSec map[string]json.RawMessage
	if err := json.Unmarshal(ixJSON, &ixSec); err != nil {
		t.Fatalf("truss_index section: %v", err)
	}
	for _, key := range []string{"epoch", "edges", "buckets", "served", "recomputed", "commits",
		"memo_entries", "window_reads", "edges_scanned", "buckets_scanned"} {
		if _, ok := ixSec[key]; !ok {
			t.Errorf("truss_index section missing %q: %s", key, ixJSON)
		}
	}
}

func TestMalformedAndOversizedBodies(t *testing.T) {
	srv, _ := newTestServer(t)
	// Oversized: the query body cap is 1 MiB.
	big := `{"analysis":"` + strings.Repeat("a", 2<<20) + `"}`
	if resp := postRaw(t, srv.URL+"/v1/query", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized query body: code=%d, want 413", resp.StatusCode)
	}
	// Malformed and invalid ingest/advance bodies on a static graph.
	var e map[string]string
	if code := postJSON(t, srv.URL+"/v1/ingest", `{nope`, &e); code != 400 {
		t.Errorf("malformed ingest: code=%d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/ingest", `{"edges":[]}`, &e); code != 400 {
		t.Errorf("empty ingest batch: code=%d", code)
	}
	// A well-formed ingest against a non-stream graph is a client error.
	if code := postJSON(t, srv.URL+"/v1/ingest", `{"edges":[{"u":1,"v":2,"t":3}]}`, &e); code != 400 || !strings.Contains(e["error"], "not stream-backed") {
		t.Errorf("ingest into static graph: code=%d err=%v", code, e)
	}
	if code := postJSON(t, srv.URL+"/v1/advance", `{"cutoff":"NaN"}`, &e); code != 400 {
		t.Errorf("malformed advance: code=%d", code)
	}
}

// TestJobGCAfterRetention: finished jobs beyond the retention cap are
// forgotten oldest-first; polling one answers 404.
func TestJobGCAfterRetention(t *testing.T) {
	p := datagen.DefaultRedditParams()
	p.Events = 1000
	p.Users = 200
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewTemporalQueryEngine()
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{retain: 4}))
	t.Cleanup(func() { srv.Close(); eng.Close(); w.Close() })

	var ids []uint64
	for i := 0; i < 6; i++ {
		var st jobStatus
		body := `{"analysis":"count","delta":` + jsonNum(uint64(1000+i)) + `}`
		if code := postJSON(t, srv.URL+"/v1/query?wait=1", body, &st); code != 200 {
			t.Fatalf("query %d: code=%d", i, code)
		}
		ids = append(ids, st.Job)
	}
	var st jobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs/"+jsonNum(ids[0]), &st); code != 404 {
		t.Errorf("oldest job survived retention: code=%d, want 404", code)
	}
	if code := getJSON(t, srv.URL+"/v1/jobs/"+jsonNum(ids[5]), &st); code != 200 {
		t.Errorf("newest job evicted: code=%d, want 200", code)
	}
	var m metricsPayload
	getJSON(t, srv.URL+"/metrics", &m)
	if m.HTTP.JobsRetained > 4 {
		t.Errorf("jobs_retained = %d, want ≤ 4", m.HTTP.JobsRetained)
	}
}

// durableHarness is a tripolld over a WAL-backed stream with an explicit
// stop, so restart tests can cycle the whole process-equivalent.
type durableHarness struct {
	srv *httptest.Server
	eng *tripoll.Engine[tripoll.Unit, uint64]
	w   *tripoll.World
}

func startDurable(t *testing.T, dir string) *durableHarness {
	t.Helper()
	p := datagen.DefaultRedditParams()
	p.Events = 1500
	p.Users = 250
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
	})
	_, _, err := eng.OpenDurableStream("default", g,
		tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp},
		tripoll.NewTemporalPlan(),
		tripoll.DurableStreamOptions{Dir: dir, CheckpointEvery: 3})
	if err != nil {
		eng.Close()
		w.Close()
		t.Fatalf("OpenDurableStream: %v", err)
	}
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w}))
	return &durableHarness{srv: srv, eng: eng, w: w}
}

// TestServedQueriesDoNotLeak is the leak regression through HTTP (the
// engine-level halves are in internal/engine and internal/dist): with the
// retained-jobs list at its cap — so the server's own bookkeeping is flat —
// 200 pairwise-distinct queries on one epoch and 50 ingest→query cycles
// leave the world's handler table and the live heap where they found them.
func TestServedQueriesDoNotLeak(t *testing.T) {
	const retain = 8
	p := datagen.DefaultRedditParams()
	p.Events = 1500
	p.Users = 250
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
	})
	if _, _, err := eng.OpenDurableStream("default", g,
		tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp}, tripoll.NewTemporalPlan(),
		tripoll.DurableStreamOptions{Dir: t.TempDir(), CheckpointEvery: 16}); err != nil {
		t.Fatalf("OpenDurableStream: %v", err)
	}
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w, retain: retain}))
	defer func() { srv.Close(); eng.Close(); w.Close() }()

	query := func(body string) {
		var st jobStatus
		if code := postJSON(t, srv.URL+"/v1/query?wait=1", body, &st); code != 200 || st.Result == nil || st.Result.Cached {
			t.Fatalf("query %s: code=%d %+v", body, code, st)
		}
	}
	metrics := func() metricsPayload {
		var m metricsPayload
		if code := getJSON(t, srv.URL+"/metrics", &m); code != 200 || m.World == nil {
			t.Fatalf("metrics: code=%d %+v", code, m)
		}
		return m
	}
	leaktest.Probe(t, w, 200, 1<<20, func(i int) {
		query(`{"analysis":"count","delta":` + jsonNum(uint64(1000+i)) + `}`)
	})
	before := metrics()
	leaktest.Probe(t, w, 50, 1<<20, func(i int) {
		var rep mutationReply
		u := jsonNum(uint64(9000 + i%20))
		body := `{"edges":[{"u":` + u + `,"v":9100,"t":50},{"u":` + u + `,"v":9101,"t":60},{"u":9100,"v":9101,"t":70}]}`
		if code := postJSON(t, srv.URL+"/v1/ingest", body, &rep); code != 200 {
			t.Fatalf("ingest %d: code=%d %+v", i, code, rep)
		}
		query(`{"analysis":"count"}`)
	})
	after := metrics()
	if after.World.Handlers != before.World.Handlers || after.World.Handlers != w.NumHandlers() {
		t.Errorf("/metrics world.handlers: %d before the ingest cycles, %d after (table: %d)", before.World.Handlers, after.World.Handlers, w.NumHandlers())
	}
	if after.HTTP.JobsRetained != retain {
		t.Errorf("jobs_retained = %d, want the cap %d", after.HTTP.JobsRetained, retain)
	}
}

// TestDistinctSurveysStayUnderCeiling is the memory ceiling of the answers
// the service keeps: distinct map-valued surveys worth four times the byte
// budget leave the heap where it was at twice the budget, and neither the
// engine's cache nor the retained jobs are ever charged more than the
// budget. (Without the budget every one of them stayed resident twice: in
// the cache, and pinned by its job handle.)
func TestDistinctSurveysStayUnderCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budget = 1 << 20
	p := datagen.DefaultRedditParams()
	p.Events, p.Users = 4000, 500
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
		CacheBytes: budget,
	})
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w, retainBytes: budget})
	defer func() { eng.Close(); w.Close() }()

	metrics := func() metricsPayload {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var m metricsPayload
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil || rec.Code != 200 {
			t.Fatalf("metrics: code=%d err=%v", rec.Code, err)
		}
		return m
	}
	heapInuse := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}

	// A reply is no larger than what its result is charged, so reply bytes
	// under-state the worth driven.
	var worth, surveys int
	var at2x uint64
	for i := 0; worth < 4*budget; i++ {
		analysis := "edgecounts"
		if i%2 == 1 {
			analysis = "localcounts"
		}
		h := newHitRequest(t, `{"analysis":"`+analysis+`","delta":`+jsonNum(uint64(1<<40+i))+`}`)
		code, n := h.serve(srv)
		if code != 200 {
			t.Fatalf("survey %d: code=%d", i, code)
		}
		worth += n
		surveys++
		m := metrics()
		if m.Engine.CacheBytes > budget || m.HTTP.RetainedBytes > budget {
			t.Fatalf("after survey %d: cache_bytes=%d retained_bytes=%d over the budget %d", i, m.Engine.CacheBytes, m.HTTP.RetainedBytes, budget)
		}
		if at2x == 0 && worth >= 2*budget {
			at2x = heapInuse()
		}
	}
	at4x := heapInuse()
	m := metrics()
	t.Logf("%d surveys, %d reply bytes: HeapInuse %d at 2x the budget, %d at 4x; cache %d entries / %d bytes / %d evictions, %d jobs / %d bytes retained",
		surveys, worth, at2x, at4x, m.Engine.CacheEntries, m.Engine.CacheBytes, m.Engine.CacheEvictions, m.HTTP.JobsRetained, m.HTTP.RetainedBytes)
	if at4x > at2x+budget/2 {
		t.Errorf("HeapInuse grew %d bytes while another 2x the budget (%d) of answers went by", at4x-at2x, 2*budget)
	}
	if m.Engine.CacheEvictions == 0 || m.HTTP.JobsRetained >= surveys {
		t.Errorf("nothing was let go: %d cache evictions, %d of %d jobs retained", m.Engine.CacheEvictions, m.HTTP.JobsRetained, surveys)
	}
	if int(m.HTTP.ValueEncodes) != surveys {
		t.Errorf("value_encodes = %d for %d distinct surveys", m.HTTP.ValueEncodes, surveys)
	}
}

// TestCacheHitEncodesNothing pins the hit path's work on any host: K
// distinct questions cost K encodes however often they are re-asked, and
// what a hit allocates does not depend on the size of the answer.
func TestCacheHitEncodesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := datagen.DefaultRedditParams()
	p.Events, p.Users = 4000, 500
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewTemporalQueryEngine()
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	handler := newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w})
	srv := httptest.NewServer(handler)
	defer func() { srv.Close(); eng.Close(); w.Close() }()

	specs := []string{
		`{"analysis":"count","delta":86400}`,
		`{"analysis":"closure","delta":86400}`,
		`{"analysis":"cc","delta":86400}`,
		`{"analysis":"localcounts","delta":86400}`,
		`{"analysis":"edgecounts","delta":86400}`,
	}
	var first []jobStatus
	for _, spec := range specs {
		var st jobStatus
		if code := postJSON(t, srv.URL+"/v1/query?wait=1", spec, &st); code != 200 || st.Result == nil || st.Result.Cached {
			t.Fatalf("warm %s: code=%d %+v", spec, code, st)
		}
		first = append(first, st)
	}
	const rounds = 40
	for i := 0; i < rounds; i++ {
		for k, spec := range specs {
			var st jobStatus
			if code := postJSON(t, srv.URL+"/v1/query?wait=1", spec, &st); code != 200 || st.Result == nil || !st.Result.Cached {
				t.Fatalf("hit %s: code=%d %+v", spec, code, st)
			}
			if i == 0 && !reflect.DeepEqual(st.Result.Value, first[k].Result.Value) {
				t.Errorf("hit %s: value differs from the first answer", spec)
			}
		}
	}
	// Polling a finished job re-serves the same bytes too.
	var poll jobStatus
	if code := getJSON(t, srv.URL+"/v1/jobs/"+jsonNum(first[4].Job), &poll); code != 200 || poll.Result == nil {
		t.Fatalf("poll: code=%d %+v", code, poll)
	}
	var m metricsPayload
	getJSON(t, srv.URL+"/metrics", &m)
	if int(m.HTTP.ValueEncodes) != len(specs) || m.Engine.CacheHits != rounds*uint64(len(specs)) {
		t.Errorf("value_encodes = %d after %d distinct questions and %d hits (engine.cache_hits %d)",
			m.HTTP.ValueEncodes, len(specs), rounds*len(specs), m.Engine.CacheHits)
	}

	allocs := func(spec string) (perHit float64, replyBytes int) {
		h := newHitRequest(t, spec)
		if code, _ := h.serve(handler); code != 200 {
			t.Fatalf("%s: warm hit failed: %d", spec, code)
		}
		perHit = testing.AllocsPerRun(200, func() { _, replyBytes = h.serve(handler) })
		return perHit, replyBytes
	}
	small, smallBytes := allocs(specs[0])
	large, largeBytes := allocs(specs[4])
	t.Logf("allocations per hit: %v for a %d-byte reply, %v for a %d-byte reply", small, smallBytes, large, largeBytes)
	if largeBytes < 8*smallBytes {
		t.Fatalf("edgecounts reply (%d bytes) is not much larger than count's (%d): the comparison says nothing", largeBytes, smallBytes)
	}
	// Within one: under -race a sync.Pool drops a quarter of what it is
	// handed, and the average's rounding can fall either side. A reply that
	// grew a buffer or walked the value would differ by its size.
	if math.Abs(small-large) > 1 {
		t.Errorf("a hit's allocations depend on the answer's size: %v (count) vs %v (edgecounts)", small, large)
	}
}

// TestPrettyIsOptIn: result replies are one compact line with a
// Content-Length; ?pretty=1 indents the same bytes.
func TestPrettyIsOptIn(t *testing.T) {
	srv, _ := newTestServer(t)
	read := func(resp *http.Response) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != 200 {
			t.Fatalf("reply: code=%d err=%v", resp.StatusCode, err)
		}
		if resp.ContentLength != int64(buf.Len()) {
			t.Errorf("Content-Length %d for a %d-byte body", resp.ContentLength, buf.Len())
		}
		return buf.Bytes()
	}
	compact := read(postRaw(t, srv.URL+"/v1/query?wait=1", `{"analysis":"closure"}`))
	if n := bytes.Count(compact, []byte("\n")); n != 1 || bytes.Contains(compact, []byte(": ")) {
		t.Errorf("default reply is not one compact line (%d newlines): %.120s", n, compact)
	}
	pretty := read(postRaw(t, srv.URL+"/v1/query?wait=1&pretty=1", `{"analysis":"closure"}`))
	if !bytes.Contains(pretty, []byte("\n  \"status\": \"done\"")) {
		t.Errorf("?pretty=1 reply is not indented: %.120s", pretty)
	}
	var a, b jobStatus
	if err := json.Unmarshal(compact, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(pretty, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Result.Value, b.Result.Value) || a.Result.Survey.Triangles != b.Result.Survey.Triangles {
		t.Errorf("pretty and compact replies disagree")
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + jsonNum(a.Job) + "/result?pretty=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if bare := read(resp); !bytes.HasPrefix(bare, []byte("{\n  \"graph\": \"default\"")) {
		t.Errorf("bare ?pretty=1 result is not indented: %.120s", bare)
	}
}

// TestEncodeFailureIs500: a value encoding/json refuses used to be a 200
// with a truncated body. Replies are encoded before any header goes out,
// so it is a 500 with a JSON error and a count — on the result path and on
// writeJSON's.
func TestEncodeFailureIs500(t *testing.T) {
	p := datagen.DefaultRedditParams()
	p.Events, p.Users = 1000, 200
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	reg := tripoll.TemporalQueryRegistry()
	reg.Register("nan", func(*tripoll.Graph[tripoll.Unit, uint64], tripoll.QuerySpec) (tripoll.QueryAnalysisInstance[tripoll.Unit, uint64], error) {
		out := new(uint64)
		return tripoll.QueryAnalysisInstance[tripoll.Unit, uint64]{
			Attached: tripoll.CountAnalysis[tripoll.Unit, uint64]().Bind(out),
			Result:   func() any { return struct{ Ratio float64 }{math.NaN()} },
		}, nil
	})
	eng := tripoll.NewQueryEngine(reg, tripoll.QueryEngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	handler := newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{})
	srv := httptest.NewServer(handler)
	t.Cleanup(func() { srv.Close(); eng.Close(); w.Close() })

	// Twice: the second asker gets the cached answer's remembered failure.
	for i := 0; i < 2; i++ {
		var e map[string]string
		if code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"nan"}`, &e); code != 500 || !strings.Contains(e["error"], "encode reply") {
			t.Errorf("unencodable value, ask %d: code=%d body=%v, want 500 with an encode error", i, code, e)
		}
	}
	rec := httptest.NewRecorder()
	handler.writeJSON(rec, http.StatusOK, math.Inf(1))
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); rec.Code != 500 || err != nil || e["error"] == "" {
		t.Errorf("writeJSON of an unencodable value: code=%d body=%q", rec.Code, rec.Body)
	}
	var m metricsPayload
	getJSON(t, srv.URL+"/metrics", &m)
	if m.HTTP.EncodeErrors != 3 {
		t.Errorf("encode_errors = %d, want 3", m.HTTP.EncodeErrors)
	}
	// The service is unharmed.
	var st jobStatus
	if code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st); code != 200 || st.Result == nil {
		t.Errorf("count after the failures: code=%d %+v", code, st)
	}
}

func (h *durableHarness) stop() {
	h.srv.Close()
	h.eng.Close()
	h.w.Close()
}

func TestDurableIngestAdvanceOverHTTP(t *testing.T) {
	dir := t.TempDir()
	h := startDurable(t, dir)

	var rep mutationReply
	if code := postJSON(t, h.srv.URL+"/v1/ingest", `{"edges":[{"u":9001,"v":9002,"t":50},{"u":9002,"v":9003,"t":60},{"u":9001,"v":9003,"t":70}]}`, &rep); code != 200 {
		t.Fatalf("ingest: code=%d %+v", code, rep)
	}
	if rep.Epoch != 1 || rep.Graph != "default" {
		t.Errorf("ingest reply: %+v", rep)
	}
	if code := postJSON(t, h.srv.URL+"/v1/advance", `{"cutoff":10}`, &rep); code != 200 || rep.Epoch != 2 {
		t.Fatalf("advance: code=%d %+v", code, rep)
	}
	// Backwards advance is rejected by preflight and leaves no WAL record.
	var e map[string]string
	if code := postJSON(t, h.srv.URL+"/v1/advance", `{"cutoff":5}`, &e); code != 400 {
		t.Errorf("backwards advance: code=%d", code)
	}
	var m metricsPayload
	if code := getJSON(t, h.srv.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: code=%d", code)
	}
	if len(m.Graphs) != 1 || m.Graphs[0].Durable == nil {
		t.Fatalf("durable graph metrics missing: %+v", m.Graphs)
	}
	if got := m.Graphs[0].Durable.WAL.LastSeq; got != 2 {
		t.Errorf("WAL last_seq = %d, want 2", got)
	}
	if got := m.Graphs[0].Durable.ReplayRebroadcasts; got != 0 {
		t.Errorf("replay_rebroadcasts = %d single-process, want 0 (re-broadcasts need a Mutator)", got)
	}
	// The triangle the ingested edges closed is queryable.
	var st jobStatus
	if code := postJSON(t, h.srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st); code != 200 || st.Result == nil {
		t.Fatalf("query: code=%d %+v", code, st)
	}
	countBefore := st.Result.Value.(float64)
	h.stop()

	// Restart over the same directory: the acknowledged epoch and the
	// analysis state both survive.
	h2 := startDurable(t, dir)
	defer h2.stop()
	if code := getJSON(t, h2.srv.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics after restart: code=%d", code)
	}
	if m.Graphs[0].Epoch != 2 {
		t.Errorf("epoch after restart = %d, want 2", m.Graphs[0].Epoch)
	}
	if code := postJSON(t, h2.srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &st); code != 200 || st.Result == nil {
		t.Fatalf("query after restart: code=%d %+v", code, st)
	}
	if got := st.Result.Value.(float64); got != countBefore {
		t.Errorf("count after restart = %v, want %v", got, countBefore)
	}
	// And the stream still accepts work at the next sequence.
	if code := postJSON(t, h2.srv.URL+"/v1/ingest", `{"edges":[{"u":9101,"v":9102,"t":500}]}`, &rep); code != 200 || rep.Epoch != 3 {
		t.Errorf("post-restart ingest: code=%d %+v", code, rep)
	}
}

// TestTrussIndexServedOverHTTP wires the -truss-index path by hand: a
// WAL-backed stream with the index attached as a sink, the index attached
// to the engine. Truss queries must answer from the index (index_served
// on the result, engine counter live, truss_index metrics section), agree
// with the traversal path, and stay correct across ingest over HTTP.
func TestTrussIndexServedOverHTTP(t *testing.T) {
	p := datagen.DefaultRedditParams()
	p.Events = 1500
	p.Users = 250
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
	})
	ix := tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
	_, _, err := eng.OpenDurableStreamSinks("default", g,
		tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp},
		tripoll.NewTemporalPlan(),
		tripoll.DurableStreamOptions{Dir: t.TempDir(), CheckpointEvery: 8},
		[]tripoll.StreamSink[tripoll.Unit, uint64]{ix})
	if err != nil {
		t.Fatalf("OpenDurableStreamSinks: %v", err)
	}
	if err := eng.AttachIndex("default", ix); err != nil {
		t.Fatalf("AttachIndex: %v", err)
	}
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w, trussIx: ix}))
	t.Cleanup(func() { srv.Close(); eng.Close(); w.Close() })

	// The reference is the traversal path over the same graph.
	ref, err := tripoll.WindowTrussness(g, tripoll.WholeTrussWindow(), tripoll.SurveyOptions{})
	if err != nil {
		t.Fatalf("WindowTrussness: %v", err)
	}

	var st jobStatus
	if code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"maxtruss","nocache":true}`, &st); code != 200 || st.Result == nil {
		t.Fatalf("maxtruss: code=%d %+v", code, st)
	}
	if !st.Result.IndexServed {
		t.Errorf("maxtruss not index-served: %+v", st.Result)
	}
	val, ok := st.Result.Value.(map[string]any)
	if !ok || uint64(val["max"].(float64)) != uint64(ref.Max) {
		t.Errorf("index maxtruss = %v, traversal max = %d", st.Result.Value, ref.Max)
	}
	// Non-truss analyses still go through the traversal path. (A fresh
	// jobStatus: index_served is omitempty, so re-decoding into st would
	// keep the previous true.)
	var cnt jobStatus
	if code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"count"}`, &cnt); code != 200 || cnt.Result == nil {
		t.Fatalf("count: code=%d %+v", code, cnt)
	}
	if cnt.Result.IndexServed {
		t.Errorf("count must not be index-served: %+v", cnt.Result)
	}

	var m metricsPayload
	if code := getJSON(t, srv.URL+"/metrics", &m); code != 200 {
		t.Fatalf("metrics: code=%d", code)
	}
	if m.Engine.IndexServed < 1 {
		t.Errorf("engine.index_served = %d, want ≥ 1", m.Engine.IndexServed)
	}
	if m.TrussIndex == nil || m.TrussIndex.Served < 1 || m.TrussIndex.Edges == 0 {
		t.Errorf("truss_index section dead: %+v", m.TrussIndex)
	}

	// Ingest over HTTP reaches the index through the stream's sink seam;
	// the next query reflects the mutation and is still index-served.
	var rep mutationReply
	if code := postJSON(t, srv.URL+"/v1/ingest", `{"edges":[{"u":9001,"v":9002,"t":50},{"u":9002,"v":9003,"t":60},{"u":9001,"v":9003,"t":70}]}`, &rep); code != 200 {
		t.Fatalf("ingest: code=%d %+v", code, rep)
	}
	// The seed graph g doesn't see the ingest — the stream (and index) do.
	// The fresh triangle is vertex-disjoint from the generated graph, so
	// it adds exactly its three edges at trussness 3 and changes nothing
	// else relative to the pre-ingest traversal reference.
	var after jobStatus
	if code := postJSON(t, srv.URL+"/v1/query?wait=1", `{"analysis":"trussness","nocache":true}`, &after); code != 200 || after.Result == nil {
		t.Fatalf("trussness after ingest: code=%d %+v", code, after)
	}
	if !after.Result.IndexServed {
		t.Errorf("trussness after ingest not index-served: %+v", after.Result)
	}
	got, ok := after.Result.Value.(map[string]any)
	if !ok || len(got["edges"].([]any)) != len(ref.Edges)+3 || uint64(got["max"].(float64)) != uint64(ref.Max) {
		t.Errorf("index trussness after ingest: %d edges max %v, want %d edges max %d",
			len(got["edges"].([]any)), got["max"], len(ref.Edges)+3, ref.Max)
	}
}

// TestSpanTrussArgBoundsOverHTTP: spantruss arguments past their bounds are
// a 400 naming the bound — whether the traversal's factory rejects them or
// the maintained index does — and the bounds themselves are served.
func TestSpanTrussArgBoundsOverHTTP(t *testing.T) {
	plain, _ := newTestServer(t)

	w := tripoll.NewWorld(2)
	p := datagen.DefaultRedditParams()
	p.Events, p.Users = 1500, 250
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
	})
	ix := tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
	if _, _, err := eng.OpenDurableStreamSinks("default", g, tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp},
		tripoll.NewTemporalPlan(), tripoll.DurableStreamOptions{Dir: t.TempDir()},
		[]tripoll.StreamSink[tripoll.Unit, uint64]{ix}); err != nil {
		t.Fatalf("OpenDurableStreamSinks: %v", err)
	}
	if err := eng.AttachIndex("default", ix); err != nil {
		t.Fatalf("AttachIndex: %v", err)
	}
	indexed := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w, trussIx: ix}))
	t.Cleanup(func() { indexed.Close(); eng.Close(); w.Close() })

	spans := func(n int) string {
		return "[" + strings.TrimSuffix(strings.Repeat(`{"from":0,"until":9},`, n), ",") + "]"
	}
	cases := []struct {
		name, args string
		code       int
	}{
		{"64 spans", `{"spans":` + spans(64) + `}`, 200},
		{"k=2147483647", `{"k":2147483647}`, 200},
		{"65 spans", `{"spans":` + spans(65) + `}`, 400},
		{"k=2147483648", `{"k":2147483648}`, 400},
		{"k=1", `{"k":1}`, 400},
	}
	for _, srv := range []struct {
		name        string
		url         string
		indexServed bool
	}{{"traversal", plain.URL, false}, {"index", indexed.URL, true}} {
		for _, tc := range cases {
			var st jobStatus
			code := postJSON(t, srv.url+"/v1/query?wait=1", `{"analysis":"spantruss","nocache":true,"args":`+tc.args+`}`, &st)
			if code != tc.code {
				t.Errorf("%s: %s: code=%d, want %d (%+v)", srv.name, tc.name, code, tc.code, st)
				continue
			}
			if code == 400 && !strings.Contains(st.Error, "bad spantruss args") {
				t.Errorf("%s: %s: error %q does not name the rejection", srv.name, tc.name, st.Error)
			}
			if code == 200 && (st.Result == nil || st.Result.IndexServed != srv.indexServed) {
				t.Errorf("%s: %s: served by the wrong path: %+v", srv.name, tc.name, st.Result)
			}
		}
	}
}

// TestOverloadShedsWith429: with a tiny admission queue and a scheduler
// busy on a traversal, submissions overflow and must shed with 429 +
// Retry-After rather than queue without bound.
func TestOverloadShedsWith429(t *testing.T) {
	p := datagen.DefaultRedditParams()
	p.Events = 4000
	p.Users = 500
	w := tripoll.NewWorld(2)
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(ts uint64) uint64 { return ts },
		MaxPending: 2,
	})
	if err := eng.Register("default", g); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{}))
	t.Cleanup(func() { srv.Close(); eng.Close(); w.Close() })

	// Fire concurrent bursts of async submissions with distinct deltas (no
	// cache hits, no dedupe): with the queue bounded at 2, a 32-wide burst
	// overflows admission unless the scheduler drains between every two
	// arrivals. Repeat until a shed is observed.
	deadline := time.Now().Add(30 * time.Second)
	var next atomic.Uint64
	for !t.Failed() {
		var (
			wg       sync.WaitGroup
			shed     atomic.Bool
			noHeader atomic.Bool
		)
		for j := 0; j < 32; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body := `{"analysis":"closure","delta":` + jsonNum(1000+next.Add(1)) + `}`
				resp, err := http.Post(srv.URL+"/v1/query", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				defer resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusTooManyRequests:
					shed.Store(true)
					if resp.Header.Get("Retry-After") == "" {
						noHeader.Store(true)
					}
				case http.StatusAccepted:
				default:
					t.Errorf("submit: code=%d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
		if noHeader.Load() {
			t.Errorf("429 without Retry-After")
		}
		if shed.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never shed after %d submissions", next.Load())
		}
	}
	var m metricsPayload
	getJSON(t, srv.URL+"/metrics", &m)
	if m.Engine.Shed == 0 || m.HTTP.Overloaded == 0 {
		t.Errorf("shed counters dead after a 429: engine.shed=%d http.overloaded=%d", m.Engine.Shed, m.HTTP.Overloaded)
	}
}
