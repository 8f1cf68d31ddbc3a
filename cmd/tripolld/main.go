// tripolld serves TriPoll triangle queries over HTTP: it loads (or
// generates) a temporal graph, registers it with a query Engine, and
// exposes submit/poll/result endpoints speaking serializable QuerySpecs.
// Concurrent requests against the same graph coalesce into shared fused
// traversals and repeated questions are answered from the epoch-keyed
// result cache (DESIGN.md §10).
//
// Usage:
//
//	tripolld -gen reddit -size 200000 -addr :8372
//	tripolld -input graph.txt -graph web
//	tripolld -workers 2 -worker-cmd ./tripoll-worker -ranks 6 -gen reddit
//
// With -workers N the world spans N worker processes plus this one
// (DESIGN.md §13): tripolld runs the rendezvous, hosts the first rank
// span, and fans every fused traversal out to the workers. -worker-cmd
// auto-launches them; without it, start tripoll-worker processes against
// the logged rendezvous address. -wal composes with -workers: mutations
// are WAL-logged here, then broadcast for a collective apply on every
// process, two-phase committed (DESIGN.md §14).
//
// Endpoints:
//
//	GET  /healthz                 liveness
//	GET  /metrics                 engine/WAL/HTTP counters as one JSON doc
//	GET  /v1/graphs               registered graphs with sizes and epochs
//	GET  /v1/analyses             analyses QuerySpecs may name
//	POST /v1/query                submit a QuerySpec; ?wait=1 blocks for the
//	                              result, otherwise returns a job id to poll
//	GET  /v1/jobs/{id}            job status (+ result once done)
//	GET  /v1/jobs/{id}/result     just the result (202 while pending)
//	                              (results are compact JSON; ?pretty=1 indents)
//	POST /v1/ingest               (-wal) ingest timestamped edges into the stream
//	POST /v1/advance              (-wal) advance the stream's expiry watermark
//
// With -wal DIR the graph is served as a durable stream: every ingest and
// advance is written ahead to a crash-recoverable log under DIR, and a
// restart with the same flags resumes at the acknowledged epoch. -rate
// and -max-pending bound hostile traffic with 429 responses. See
// README.md "Running tripolld in production".
//
// Example (count triangles closing within an hour, waiting inline):
//
//	curl -s localhost:8372/v1/query?wait=1 \
//	     -d '{"analysis":"count","delta":3600}'
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tripoll"
	"tripoll/datagen"
	"tripoll/internal/dist"
)

func main() {
	var (
		addr      = flag.String("addr", ":8372", "listen address")
		input     = flag.String("input", "", "edge list file (u v [timestamp])")
		genModel  = flag.String("gen", "", "generate instead of reading: reddit|webhost|ba|er|ws")
		graphName = flag.String("graph", "default", "name to register the graph under")
		ranks     = flag.Int("ranks", 4, "simulated rank count")
		transport = flag.String("transport", "channel", "transport: channel|tcp")
		seed      = flag.Int64("seed", 42, "generator seed")
		size      = flag.Int("size", 100_000, "generated edge budget / events")

		workers    = flag.Int("workers", 0, "span the world across this many worker processes (multi-process mode; forces tcp)")
		rendezvous = flag.String("rendezvous", "127.0.0.1:0", "control-plane listen address for -workers rendezvous")
		workerCmd  = flag.String("worker-cmd", "", "auto-launch -workers copies of this binary with -join (default: wait for external tripoll-worker processes)")

		walDir     = flag.String("wal", "", "durability directory: serve the graph as a WAL-backed stream (enables /v1/ingest, /v1/advance)")
		trussIx    = flag.Bool("truss-index", false, "maintain a triangle-span index on the stream and answer truss queries (trussness/maxtruss/spantruss) from it without traversing (requires -wal)")
		walSync    = flag.String("wal-sync", "always", "WAL fsync policy: always|never")
		walSegment = flag.Int64("wal-segment", 0, "WAL segment rotation size in bytes (0 = default)")
		checkpoint = flag.Uint64("checkpoint", 0, "snapshot+truncate the WAL every N mutations (0 = default)")
		rate       = flag.Float64("rate", 0, "per-client request rate limit in requests/second (0 = unlimited)")
		burst      = flag.Float64("burst", 10, "per-client burst allowance for -rate")
		maxPending = flag.Int("max-pending", 1024, "shed work with 429 once this many jobs are queued (0 = unbounded)")
		retain     = flag.Int("retain", 1024, "finished jobs retained for polling before GC")
		cacheMB    = flag.Int64("cache-mb", tripoll.DefaultQueryCacheBytes>>20, "byte budget, in MiB, of the engine's result cache and (separately) of the results finished jobs retain for polling")
	)
	flag.Parse()

	edges, err := loadEdges(*input, *genModel, *seed, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	wopts := tripoll.WorldOptions{}
	switch *transport {
	case "channel":
		wopts.Transport = tripoll.TransportChannel
	case "tcp":
		wopts.Transport = tripoll.TransportTCP
	default:
		fmt.Fprintf(os.Stderr, "unknown transport %q\n", *transport)
		os.Exit(2)
	}
	var (
		w       *tripoll.World
		cluster *dist.Cluster
	)
	if *workers > 0 {
		procs := *workers + 1
		if *ranks%procs != 0 {
			fmt.Fprintf(os.Stderr, "-ranks %d is not divisible by %d processes (%d workers + driver)\n", *ranks, procs, *workers)
			os.Exit(2)
		}
		// Process-spanning worlds only exist over the TCP transport; the
		// rendezvous forces it regardless of -transport.
		wopts.Transport = tripoll.TransportTCP
		*transport = "tcp"
		co, err := dist.Listen(dist.Config{
			Procs:        procs,
			RanksPerProc: *ranks / procs,
			ControlAddr:  *rendezvous,
			Opts:         wopts,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rendezvous: %v\n", err)
			os.Exit(2)
		}
		log.Printf("rendezvous on %s: waiting for %d workers (%d ranks each)", co.Addr(), *workers, *ranks/procs)
		var launched []*exec.Cmd
		if *workerCmd != "" {
			if launched, err = dist.Launch(*workerCmd, []string{"-join", co.Addr()}, *workers); err != nil {
				co.Close()
				fmt.Fprintf(os.Stderr, "launch workers: %v\n", err)
				os.Exit(2)
			}
		}
		if cluster, err = co.Accept(); err != nil {
			dist.KillAll(launched)
			fmt.Fprintf(os.Stderr, "rendezvous: %v\n", err)
			os.Exit(2)
		}
		w = cluster.World()
		defer cluster.Close()
		// SIGTERM/SIGINT: deregister the workers (they drain and exit 0)
		// before this process goes away, so auto-launched fleets don't leak.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
		go func() {
			s := <-sig
			log.Printf("%v: closing %d-process world", s, procs)
			cluster.Close()
			dist.StopAll(launched, 5*time.Second)
			os.Exit(0)
		}()
		log.Printf("world spans %d processes: %d workers x %d ranks + driver", procs, *workers, *ranks/procs)
	} else {
		w, err = tripoll.NewWorldWith(*ranks, wopts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "world: %v\n", err)
			os.Exit(2)
		}
		defer w.Close()
	}

	// Build the graph. With a cluster, the build job is broadcast before
	// this process's ranks enter their side: both sides must be inside
	// Builder.Build for the shuffle to complete.
	if cluster != nil {
		if err := cluster.Build(*graphName, dist.BuildSpec{Policy: "temporal"}); err != nil {
			fmt.Fprintf(os.Stderr, "broadcast build: %v\n", err)
			os.Exit(2)
		}
	}
	g := tripoll.BuildTemporal(w, edges)
	info := tripoll.Info(g)
	log.Printf("graph %q: |V|=%d |E|=%d (directed) |W+|=%d", *graphName, info.Vertices, info.DirectedEdges, info.Wedges)

	eopts := tripoll.QueryEngineOptions[uint64]{
		Timestamps: func(t uint64) uint64 { return t },
		MaxPending: *maxPending,
		CacheBytes: *cacheMB << 20,
	}
	if cluster != nil {
		// A typed-nil *Cluster in the interface would read as "fanout set";
		// only a real cluster gets wired in. The same cluster is the
		// mutation seam: with -wal, every logged mutation broadcasts to the
		// workers for a collective apply (DESIGN.md §14).
		eopts.Fanout = cluster
		eopts.Mutator = cluster
	}
	eng := tripoll.NewQueryEngine(tripoll.TemporalQueryRegistry(), eopts)
	defer eng.Close()
	var ix *tripoll.TrussIndex[tripoll.Unit]
	if *trussIx && *walDir == "" {
		fmt.Fprintln(os.Stderr, "-truss-index requires -wal: the index is maintained by the stream's mutation path")
		os.Exit(2)
	}
	if *walDir != "" {
		sync := tripoll.WALSyncAlways
		switch *walSync {
		case "always":
		case "never":
			sync = tripoll.WALSyncNever
		default:
			fmt.Fprintf(os.Stderr, "unknown -wal-sync %q\n", *walSync)
			os.Exit(2)
		}
		// The policy name tells tripoll-worker's OpenStream hook whether to
		// attach its side of the index sink — the sink's commit collective
		// must run on every process of the world, in lockstep.
		policy := "temporal"
		var sinks []tripoll.StreamSink[tripoll.Unit, uint64]
		if *trussIx {
			policy = "temporal+truss"
			ix = tripoll.NewTrussIndex[tripoll.Unit](minTimestamp)
			sinks = []tripoll.StreamSink[tripoll.Unit, uint64]{ix}
		}
		_, epoch, err := eng.OpenDurableStreamSinks(*graphName, g,
			tripoll.StreamOptions[uint64]{MergeEdgeMeta: minTimestamp},
			tripoll.NewTemporalPlan(),
			tripoll.DurableStreamOptions{Dir: *walDir, Sync: sync, SegmentBytes: *walSegment, CheckpointEvery: *checkpoint, Policy: policy},
			sinks)
		if err != nil {
			fmt.Fprintf(os.Stderr, "open durable stream: %v\n", err)
			os.Exit(2)
		}
		if ix != nil {
			if err := eng.AttachIndex(*graphName, ix); err != nil {
				fmt.Fprintf(os.Stderr, "attach truss index: %v\n", err)
				os.Exit(2)
			}
			st := ix.Stats()
			log.Printf("truss index on %q: %d edges, %d span buckets (epoch %d)", *graphName, st.Edges, st.Buckets, st.Epoch)
		}
		log.Printf("durable stream %q: wal=%s sync=%s epoch=%d", *graphName, *walDir, *walSync, epoch)
	} else if err := eng.Register(*graphName, g); err != nil {
		fmt.Fprintf(os.Stderr, "register: %v\n", err)
		os.Exit(2)
	}
	srv := newServer(eng, map[string]tripoll.GraphInfo{*graphName: info}, serverConfig{
		world:       w,
		cluster:     cluster,
		limiter:     newLimiter(*rate, *burst),
		retain:      *retain,
		retainBytes: *cacheMB << 20,
		trussIx:     ix,
	})
	log.Printf("tripolld listening on %s (%d ranks, %s transport)", *addr, *ranks, *transport)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		log.Fatal(err)
	}
}

// minTimestamp is the stream's multigraph reduction: keep the earliest
// timestamp of a repeated edge (the §5.2 Reddit reduction).
func minTimestamp(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func loadEdges(input, model string, seed int64, size int) ([]tripoll.TemporalEdge, error) {
	if input != "" {
		edges, err := tripoll.ReadEdgeListFile(input)
		if err != nil {
			return nil, fmt.Errorf("read %s: %w", input, err)
		}
		return edges, nil
	}
	switch model {
	case "reddit":
		p := datagen.DefaultRedditParams()
		p.Seed = seed
		p.Events = size
		p.Users = uint64(size / 8)
		return datagen.RedditLike(p), nil
	case "webhost":
		p := datagen.DefaultWebHostParams()
		p.Seed = seed
		p.IntraEdges = size * 2 / 5
		p.InterEdges = size * 3 / 5
		return datagen.ToTemporal(datagen.WebHostLike(p).Edges), nil
	case "ba":
		return datagen.ToTemporal(datagen.BarabasiAlbert(uint64(size/8), 8, seed)), nil
	case "er":
		return datagen.ToTemporal(datagen.ErdosRenyi(uint64(size/16), size, seed)), nil
	case "ws":
		return datagen.ToTemporal(datagen.WattsStrogatz(uint64(size/6), 3, 0.1, seed)), nil
	case "":
		return nil, fmt.Errorf("need -input or -gen")
	default:
		return nil, fmt.Errorf("unknown generator %q", model)
	}
}

// defaultRetainedJobs bounds the poll window: once exceeded, the oldest
// *finished* jobs are forgotten (a 404 on a long-finished job beats
// unbounded growth — map-valued results can be large, and a job handle
// pins its answer after the engine cache has let it go).
const defaultRetainedJobs = 1024

// serverConfig is the production knobs of a server; the zero value means
// no rate limiting, no world metrics and the default retention.
type serverConfig struct {
	world   *tripoll.World // for /metrics transport counters; may be nil
	cluster *dist.Cluster  // for /metrics mutation-path counters; nil single-process
	limiter *limiter       // per-client rate limiter; nil = unlimited
	retain  int            // finished-job retention cap; 0 = defaultRetainedJobs
	// retainBytes caps what the retained jobs' results may weigh
	// (QueryResult.ResidentBytes); 0 = tripoll.DefaultQueryCacheBytes.
	retainBytes int64
	// trussIx, when -truss-index is on, surfaces the maintained index's
	// counters under /metrics "truss_index".
	trussIx *tripoll.TrussIndex[tripoll.Unit]
}

// retainedJob is a job handle kept for polling and what its result is
// charged against the retention byte budget (0 until it is seen finished).
type retainedJob struct {
	job   *tripoll.QueryJob
	bytes int64
}

// server is the HTTP front end over one Engine. Job handles are retained
// for polling until the retention caps — a count and a byte budget — push
// finished ones out.
type server struct {
	eng         *tripoll.Engine[tripoll.Unit, uint64]
	info        map[string]tripoll.GraphInfo
	mux         *http.ServeMux
	world       *tripoll.World
	cluster     *dist.Cluster
	lim         *limiter
	retainMax   int
	retainBytes int64
	trussIx     *tripoll.TrussIndex[tripoll.Unit]

	requests     atomic.Uint64 // all requests served
	rateLimited  atomic.Uint64 // 429s from the per-client limiter
	overloaded   atomic.Uint64 // 429s from engine admission (ErrEngineOverloaded)
	valueEncodes atomic.Uint64 // result replies that ran encoding/json (a cache hit runs none)
	encodeErrors atomic.Uint64 // replies that could not be encoded (answered 500)

	mu            sync.Mutex
	jobs          map[uint64]*retainedJob
	order         []uint64 // insertion order, for eviction
	unsized       []uint64 // retained jobs not yet seen finished
	retainedBytes int64    // sum of jobs[*].bytes
}

// retain registers a job for polling and evicts the oldest finished jobs
// beyond the caps (in-flight jobs are never evicted).
func (s *server) retain(j *tripoll.QueryJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Jobs that finished since the last submission are charged here, so an
	// async job nobody polls still counts against the byte budget.
	pending := s.unsized[:0]
	for _, id := range s.unsized {
		rj := s.jobs[id]
		if rj == nil {
			continue
		}
		if res, err := rj.job.Result(); err == tripoll.ErrJobNotDone {
			pending = append(pending, id)
		} else if err == nil {
			s.charge(rj, res.ResidentBytes())
		}
	}
	s.unsized = append(pending, j.ID())
	s.jobs[j.ID()] = &retainedJob{job: j}
	s.order = append(s.order, j.ID())
	s.evict()
}

// settle re-charges a finished job after a reply was built from it: its
// result now also holds its encoded form.
func (s *server) settle(j *tripoll.QueryJob, res tripoll.QueryResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rj := s.jobs[j.ID()]; rj != nil {
		s.charge(rj, res.ResidentBytes())
		s.evict()
	}
}

// charge sets what rj's result weighs. Called with s.mu held.
func (s *server) charge(rj *retainedJob, bytes int64) {
	s.retainedBytes += bytes - rj.bytes
	rj.bytes = bytes
}

// evict forgets finished jobs, oldest first, while either cap is exceeded.
// Called with s.mu held.
func (s *server) evict() {
	for i := 0; i < len(s.order) && (len(s.jobs) > s.retainMax || s.retainedBytes > s.retainBytes); {
		rj := s.jobs[s.order[i]]
		if st := rj.job.Status(); st != tripoll.QueryJobDone && st != tripoll.QueryJobFailed {
			i++
			continue
		}
		s.retainedBytes -= rj.bytes
		delete(s.jobs, s.order[i])
		if i == 0 {
			s.order = s.order[1:] // the usual case: no shuffle of the whole window per request
		} else {
			s.order = slices.Delete(s.order, i, i+1)
		}
	}
}

func newServer(eng *tripoll.Engine[tripoll.Unit, uint64], info map[string]tripoll.GraphInfo, cfg serverConfig) *server {
	if cfg.retain <= 0 {
		cfg.retain = defaultRetainedJobs
	}
	if cfg.retainBytes <= 0 {
		cfg.retainBytes = tripoll.DefaultQueryCacheBytes
	}
	s := &server{
		eng: eng, info: info,
		world: cfg.world, cluster: cfg.cluster, lim: cfg.limiter,
		retainMax: cfg.retain, retainBytes: cfg.retainBytes,
		trussIx: cfg.trussIx,
		jobs:    make(map[uint64]*retainedJob), mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/graphs", s.handleGraphs)
	s.mux.HandleFunc("GET /v1/analyses", s.handleAnalyses)
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/advance", s.handleAdvance)
	return s
}

// ServeHTTP counts the request and applies the per-client rate limit to
// the /v1 API (liveness and metrics stay reachable from a throttled
// client — an operator debugging an overload needs exactly those two).
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.lim != nil && strings.HasPrefix(r.URL.Path, "/v1/") {
		if ok, retryAfter := s.lim.allow(clientKey(r)); !ok {
			s.rateLimited.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			s.writeError(w, http.StatusTooManyRequests, "rate limit exceeded; retry after %ds", retryAfter)
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// replyBufs pools reply buffers: every JSON reply is built whole before a
// header goes out, so a failed encode can still be a 500 and a reply is a
// Content-Length and one Write.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledReply keeps the odd megabyte answer from staying resident in
// the pool.
const maxPooledReply = 1 << 20

// putReplyBuf returns bp to the pool holding b, the (possibly regrown)
// slice that was built from it.
func putReplyBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledReply {
		*bp = b[:0]
		replyBufs.Put(bp)
	}
}

func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // the client went away; nothing to report to
}

// writeJSON answers with v, indented: /metrics, /v1/analyses, /v1/graphs,
// errors, mutation replies and unfinished jobs. Finished jobs' results go
// through writeResult.
func (s *server) writeJSON(w http.ResponseWriter, code int, v any) {
	bp := replyBufs.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	defer func() { putReplyBuf(bp, buf.Bytes()) }()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.encodeFailed(w, err)
		return
	}
	writeBody(w, code, buf.Bytes())
}

// encodeFailed answers 500 for a reply encoding/json refused (a NaN in a
// custom analysis's value, say) — nothing has been written yet.
func (s *server) encodeFailed(w http.ResponseWriter, err error) {
	s.encodeErrors.Add(1)
	body, _ := json.Marshal(map[string]string{"error": "encode reply: " + err.Error()}) // a string map always marshals
	writeBody(w, http.StatusInternalServerError, append(body, '\n'))
}

func (s *server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	s.writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleGraphs(w http.ResponseWriter, _ *http.Request) {
	type graphStatus struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
		tripoll.GraphInfo
	}
	var out []graphStatus
	for _, name := range s.eng.Graphs() {
		ep, _ := s.eng.Epoch(name)
		out = append(out, graphStatus{Name: name, Epoch: ep, GraphInfo: s.info[name]})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *server) handleAnalyses(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.eng.AnalysisInfos())
}

// jobStatus is the wire form of a job's state; Result is present once the
// job is done, Error once it failed. The server marshals it only for
// unfinished and failed jobs: a done job's reply is assembled by
// writeResult around the result's own bytes, in this shape.
type jobStatus struct {
	Job    uint64               `json:"job"`
	Status string               `json:"status"`
	Result *tripoll.QueryResult `json:"result,omitempty"`
	Error  string               `json:"error,omitempty"`
}

// writeJob answers with j's state. A finished job's result is written
// from its bytes — inside the job envelope, or bare for the /result
// endpoint; an unfinished or failed job answers its status under the
// given codes.
func (s *server) writeJob(w http.ResponseWriter, j *tripoll.QueryJob, bare, pretty bool, pendingCode, failedCode int) {
	res, err := j.Result()
	switch {
	case err == nil:
		s.writeResult(w, j, res, bare, pretty)
	case err == tripoll.ErrJobNotDone:
		s.writeJSON(w, pendingCode, jobStatus{Job: j.ID(), Status: j.Status().String()})
	default:
		s.writeJSON(w, failedCode, jobStatus{Job: j.ID(), Status: tripoll.QueryJobFailed.String(), Error: err.Error()})
	}
}

// writeResult is the reply of a finished job: QueryResult.AppendJSON into
// a pooled buffer — a copy of bytes encoded once per distinct answer —
// then one Write.
func (s *server) writeResult(w http.ResponseWriter, j *tripoll.QueryJob, res tripoll.QueryResult, bare, pretty bool) {
	bp := replyBufs.Get().(*[]byte)
	b := (*bp)[:0]
	defer func() { putReplyBuf(bp, b) }()
	if !bare {
		b = append(b, `{"job":`...)
		b = strconv.AppendUint(b, j.ID(), 10)
		b = append(b, `,"status":"done","result":`...)
	}
	b, fresh, err := res.AppendJSON(b)
	if fresh {
		s.valueEncodes.Add(1)
	}
	if err != nil {
		s.encodeFailed(w, err)
		return
	}
	if !bare {
		b = append(b, '}')
	}
	b = append(b, '\n')
	if pretty {
		var out bytes.Buffer
		_ = json.Indent(&out, b, "", "  ") // b is valid JSON: AppendJSON just built it
		writeBody(w, http.StatusOK, out.Bytes())
	} else {
		writeBody(w, http.StatusOK, b)
	}
	s.settle(j, res)
}

// decodeBody decodes a JSON request body into v with a size cap,
// answering 400 for malformed JSON and 413 for an oversized body. Returns
// false when a response was already written.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "decode body: %v", err)
		return false
	}
	return true
}

// shed answers an ErrEngineOverloaded admission failure with 429 and a
// Retry-After; returns false for other errors.
func (s *server) shed(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, tripoll.ErrEngineOverloaded) {
		return false
	}
	s.overloaded.Add(1)
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusTooManyRequests, "%v", err)
	return true
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var spec tripoll.QuerySpec
	if !s.decodeBody(w, r, 1<<20, &spec) {
		return
	}
	// Admission uses the background context: the job must survive this
	// request returning (async polling is the point). Only an inline wait
	// is bounded by the request context.
	j, err := s.eng.Submit(context.Background(), spec)
	if err != nil {
		if !s.shed(w, err) {
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.retain(j)

	q := r.URL.Query()
	if q.Get("wait") == "" {
		s.writeJSON(w, http.StatusAccepted, jobStatus{Job: j.ID(), Status: j.Status().String()})
		return
	}
	if _, err := j.Wait(r.Context()); err != nil && err == r.Context().Err() {
		s.writeError(w, http.StatusRequestTimeout, "wait: %v", err)
		return
	}
	// Dispatch-time failures here are bad requests the submit-side
	// validation cannot see (e.g. malformed analysis Args, which only the
	// factory parses); don't report them as success.
	s.writeJob(w, j, false, q.Get("pretty") != "", http.StatusOK, http.StatusBadRequest)
}

func (s *server) lookup(w http.ResponseWriter, r *http.Request) *tripoll.QueryJob {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad job id %q", r.PathValue("id"))
		return nil
	}
	s.mu.Lock()
	rj := s.jobs[id]
	s.mu.Unlock()
	if rj == nil {
		s.writeError(w, http.StatusNotFound, "unknown job %d", id)
		return nil
	}
	return rj.job
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		s.writeJob(w, j, false, r.URL.Query().Get("pretty") != "", http.StatusOK, http.StatusOK)
	}
}

// handleJobResult serves the bare result: 202 with the status while the
// job is pending, 400 once it failed — job failures are almost always
// spec-side (args the factory rejected, a graph unregistered between
// submit and dispatch), a client error, not a server fault.
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		s.writeJob(w, j, true, r.URL.Query().Get("pretty") != "", http.StatusAccepted, http.StatusBadRequest)
	}
}

// resolveGraph defaults an absent graph name when exactly one is
// registered, mirroring QuerySpec resolution.
func (s *server) resolveGraph(name string) string {
	if name != "" {
		return name
	}
	if gs := s.eng.Graphs(); len(gs) == 1 {
		return gs[0]
	}
	return name
}

// mutationReply is the wire form of an applied Ingest/Advance.
type mutationReply struct {
	Graph  string         `json:"graph"`
	Epoch  uint64         `json:"epoch"`
	Survey tripoll.Result `json:"survey"`
}

// ingestRequest is POST /v1/ingest's body: timestamped edges for a
// stream-backed graph.
type ingestRequest struct {
	Graph string `json:"graph,omitempty"`
	Edges []struct {
		U uint64 `json:"u"`
		V uint64 `json:"v"`
		T uint64 `json:"t"`
	} `json:"edges"`
}

func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decodeBody(w, r, 8<<20, &req) {
		return
	}
	if len(req.Edges) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty edge batch")
		return
	}
	batch := make([]tripoll.StreamEdge[uint64], len(req.Edges))
	for i, e := range req.Edges {
		batch[i] = tripoll.StreamEdge[uint64]{U: e.U, V: e.V, Meta: e.T}
	}
	name := s.resolveGraph(req.Graph)
	res, err := s.eng.Ingest(r.Context(), name, batch)
	if err != nil {
		if !s.shed(w, err) {
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	epoch, _ := s.eng.Epoch(name)
	s.writeJSON(w, http.StatusOK, mutationReply{Graph: name, Epoch: epoch, Survey: res})
}

// advanceRequest is POST /v1/advance's body: the new expiry watermark.
type advanceRequest struct {
	Graph  string `json:"graph,omitempty"`
	Cutoff uint64 `json:"cutoff"`
}

func (s *server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if !s.decodeBody(w, r, 1<<16, &req) {
		return
	}
	name := s.resolveGraph(req.Graph)
	res, err := s.eng.Advance(r.Context(), name, req.Cutoff)
	if err != nil {
		if !s.shed(w, err) {
			s.writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	epoch, _ := s.eng.Epoch(name)
	s.writeJSON(w, http.StatusOK, mutationReply{Graph: name, Epoch: epoch, Survey: res})
}
