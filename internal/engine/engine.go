// Package engine is TriPoll's query engine: a long-lived execution surface
// that turns the one-caller, one-blocking-call Run API into a service.
// Graphs (and mutable streams) are registered by name; any goroutine
// submits serializable QuerySpecs and gets back a Job handle; a single
// admission scheduler drains concurrently pending jobs and batches
// compatible ones — same graph, same traversal options, union-able
// declarative plans — into one fused traversal of the PR 3 analysis
// machinery, re-restricting each job to its own plan at the callback
// (core.WithResidual) so every job receives exactly the answer a solo run
// would have produced. An epoch-keyed result cache (graph epoch, canonical
// plan, analysis id) makes repeated queries free; stream mutations run
// through the same scheduler, bump the epoch, and so invalidate precisely.
//
// The scheduler is deliberately a single goroutine: the ygm runtime
// forbids nested parallel regions, so traversals must serialize anyway —
// which is exactly what makes admission batching profitable. While one
// traversal runs, newly submitted jobs pile up; the next drain coalesces
// them. Identical jobs (equal analysis id and canonical plan) are deduped
// within a batch, and jobs equal to an already-cached question never
// traverse at all, so k concurrent identical queries cost one traversal
// regardless of arrival timing (`tripoll-bench -exp coalesce` measures the
// general case).
package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/wal"
)

// ErrClosed is returned by Submit and friends after Close, and delivered
// to jobs still pending when the engine shut down.
var ErrClosed = errors.New("engine: engine is closed")

// ErrNotDone is returned by Job.Result while the job is still queued or
// running.
var ErrNotDone = errors.New("engine: job has not finished")

// ErrOverloaded is returned by Submit, SubmitAll, Ingest and Advance when
// the admission queue is at EngineOptions.MaxPending: the engine sheds the
// job instead of queuing it forever. Servers translate it to 429 with a
// Retry-After; the shed job had no effect, so retrying is always safe.
var ErrOverloaded = errors.New("engine: admission queue is full")

// EngineOptions configures an Engine.
type EngineOptions[EM any] struct {
	// Timestamps extracts a timestamp from edge metadata, enabling the
	// temporal constraints of QuerySpecs (Delta/From/Until). All specs are
	// compiled with this one accessor, which is what makes their canonical
	// plan keys comparable. nil rejects temporal specs.
	Timestamps func(EM) uint64
	// MaxPending bounds the admission queue: a Submit/Ingest/Advance that
	// would push the pending count past it fails with ErrOverloaded
	// instead of queuing unboundedly. 0 means unbounded (the pre-PR 6
	// behavior). Shedding happens before enqueue, so a shed mutation was
	// never logged or left applied.
	MaxPending int
	// Fanout, when non-nil, mirrors each fused traversal onto the worker
	// processes of a multi-process world before the driver executes it
	// (see remote.go). Traversal panics are then converted to job errors
	// rather than crashing the server: a dead worker poisons the world
	// mid-region, which surfaces as a panic in the driver's ranks.
	Fanout Fanout
	// Mutator, when non-nil, mirrors stream mutations onto the worker
	// processes the same way (see mutator.go), lifting the multi-process
	// restriction on durable streams: Ingest/Advance broadcast their WAL
	// record to every worker and two-phase-commit the collective apply.
	// Requires Fanout from the same world; streams must be opened with
	// OpenDurableStream (the WAL stays driver-side).
	Mutator Mutator
	// CacheBytes is the result cache's budget in bytes (an LRU; see
	// resultCache for what an entry is charged). 0 means DefaultCacheBytes.
	CacheBytes int64
}

// Stats counts what the engine has done since New. Traversal* fields
// accumulate the enumeration traffic of fused runs only (mutations and
// materializations are accounted by their own Results). The JSON shape is
// part of tripolld's /metrics surface.
type Stats struct {
	Submitted         uint64 `json:"submitted"`          // jobs accepted: Submit/SubmitAll queries and Ingest/Advance mutations
	Completed         uint64 `json:"completed"`          // jobs (incl. mutations) finished with a result
	Failed            uint64 `json:"failed"`             // jobs (incl. mutations) finished with an error or cancellation
	Shed              uint64 `json:"shed"`               // jobs refused with ErrOverloaded at admission
	CacheHits         uint64 `json:"cache_hits"`         // jobs served entirely from the result cache
	IndexServed       uint64 `json:"index_served"`       // jobs answered by an attached index — no snapshot, no traversal
	Deduped           uint64 `json:"deduped"`            // jobs served by an identical twin in the same batch
	Coalesced         uint64 `json:"coalesced"`          // jobs that shared a fused traversal with ≥ 1 other job
	Traversals        uint64 `json:"traversals"`         // fused traversals executed
	Mutations         uint64 `json:"mutations"`          // stream mutations executed
	TraversalMessages int64  `json:"traversal_messages"` // transport messages across all traversals
	TraversalBytes    int64  `json:"traversal_bytes"`    // transport bytes across all traversals
	CacheEntries      int    `json:"cache_entries"`      // answers resident in the result cache now
	CacheBytes        int64  `json:"cache_bytes"`        // what those entries are charged now (≤ EngineOptions.CacheBytes)
	CacheEvictions    uint64 `json:"cache_evictions"`    // entries the byte budget pushed out (epoch purges not counted)

	// Materializations counts the stream snapshots queries triggered, and
	// MaterializeEntries the half-edges they oriented: a snapshot decides
	// only the half-edges the mutations since the previous one changed.
	Materializations   uint64 `json:"materializations"`
	MaterializeEntries uint64 `json:"materialize_entries"`
}

// QueryResult is one job's answer.
type QueryResult struct {
	// Graph and Analysis echo the resolved spec.
	Graph    string `json:"graph"`
	Analysis string `json:"analysis"`
	// Epoch is the graph epoch the answer describes; a later mutation of
	// the same graph bumps the epoch and invalidates cache entries.
	Epoch uint64 `json:"epoch"`
	// Value is the analysis result. It may be shared with other jobs (the
	// cache, and twins deduped in the same batch, return the same value);
	// treat it as immutable. AppendJSON is its wire form; marshal by hand
	// only through JSONValue.
	Value any `json:"value"`
	// Cached reports the answer came from the result cache; Survey then
	// describes the traversal that originally produced it.
	Cached bool `json:"cached"`
	// IndexServed reports the answer came from an attached maintained
	// index (AttachIndex): no traversal ran and Survey is zero.
	IndexServed bool `json:"index_served,omitempty"`
	// CoalescedWith counts the jobs that shared this result's fused
	// traversal, including this one (1 = solo).
	CoalescedWith int `json:"coalesced_with"`
	// Survey is the shared traversal's statistics. Under a coalesced run
	// its Triangles and Pruned* counters describe the union plan, not this
	// job's own (Value is always this job's own answer).
	Survey core.Result `json:"survey"`

	// enc is the encode-once cell every copy of a traversal's answer
	// shares (see AppendJSON); nil for index-served answers and mutations.
	enc *encoded
}

// JobStatus is a job's lifecycle state.
type JobStatus int

// Pending jobs sit in the admission queue; Running jobs are in the current
// dispatch batch; Done and Failed are terminal.
const (
	JobPending JobStatus = iota
	JobRunning
	JobDone
	JobFailed
)

func (s JobStatus) String() string {
	switch s {
	case JobPending:
		return "pending"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	default:
		return fmt.Sprintf("JobStatus(%d)", int(s))
	}
}

// Job is the handle Submit returns: a one-shot future for a QueryResult.
type Job struct {
	id   uint64
	spec Spec // graph name resolved
	ctx  context.Context

	payload any // *queryPayload[VM, EM] or *mutation[VM, EM]

	mu     sync.Mutex
	status JobStatus
	res    QueryResult
	err    error
	done   chan struct{}
}

// ID returns the engine-unique job id.
func (j *Job) ID() uint64 { return j.id }

// Spec returns the submitted spec with its graph name resolved.
func (j *Job) Spec() Spec { return j.spec }

// Status returns the job's current lifecycle state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Result returns the job's answer, ErrNotDone while it is still in
// flight, or the job's failure.
func (j *Job) Result() (QueryResult, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.status {
	case JobDone:
		return j.res, nil
	case JobFailed:
		return QueryResult{}, j.err
	default:
		return QueryResult{}, ErrNotDone
	}
}

// Wait blocks until the job finishes or ctx is done. A ctx expiry does not
// cancel the job — it keeps running (a collective traversal cannot be
// interrupted) and its eventual result still lands in the cache.
func (j *Job) Wait(ctx context.Context) (QueryResult, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return QueryResult{}, ctx.Err()
	}
}

// queryPayload is the compiled, typed half of a query job.
type queryPayload[VM, EM any] struct {
	opts       core.Options
	plan       *core.Plan[EM] // nil = unrestricted
	planKey    string         // canonical plan key ("" = unrestricted)
	analysisID string         // registry name + compacted args
}

// shareKey identifies jobs that may share one answer.
func (p *queryPayload[VM, EM]) shareKey() string { return p.planKey + "\x00" + p.analysisID }

// graphEntry is one registered graph or stream.
type graphEntry[VM, EM any] struct {
	name   string
	g      *graph.DODGr[VM, EM] // current queryable snapshot (nil until a stream materializes)
	stream *core.Stream[VM, EM] // nil for static graphs
	epoch  uint64
	stale  bool             // stream mutated since g was materialized
	dur    *durable[VM, EM] // non-nil for WAL-backed streams (OpenDurableStream)

	// codec is the stream's edge-metadata codec, kept so the scheduler can
	// encode mutation broadcasts exactly as the WAL encodes records; set by
	// OpenDurableStream (the only entry point for multi-process streams).
	codec serialize.Codec[EM]

	// index, when non-nil, is a maintained index structure (AttachIndex)
	// asked first for every query on this graph: analyses it handles are
	// answered without materializing or traversing.
	index IndexServer
}

// cacheKey is the result cache's identity: epoch-keyed, so a mutation
// never serves stale answers — entries of dead epochs are also garbage-
// collected eagerly when the epoch bumps. Traversal options are part of
// the key: analysis values are mode-independent, but QueryResult.Survey
// is not, and serving a push-only client a cached push-pull traversal
// would silently misattribute its statistics.
type cacheKey struct {
	graph  string
	epoch  uint64
	iepoch uint64 // attached index's commit epoch (0 when no index)
	opts   core.Options
	share  string // canonical plan key + analysis id
}

// Engine is the long-lived query engine. Construct with New, register
// graphs and streams, Submit from any goroutine, Close when done. All
// traversals and mutations execute on one internal scheduler goroutine;
// every exported method is safe for concurrent use.
type Engine[VM, EM any] struct {
	reg  *Registry[VM, EM]
	opts EngineOptions[EM]

	mu      sync.Mutex
	cond    *sync.Cond
	graphs  map[string]*graphEntry[VM, EM]
	pending []*Job
	cache   *resultCache
	stats   Stats
	nextID  uint64
	closed  bool

	loopDone chan struct{}
}

// New creates an engine over the given analysis registry and starts its
// scheduler. The registry must be fully populated before New; the engine
// reads it without locking.
func New[VM, EM any](reg *Registry[VM, EM], opts EngineOptions[EM]) *Engine[VM, EM] {
	e := &Engine[VM, EM]{
		reg:      reg,
		opts:     opts,
		graphs:   make(map[string]*graphEntry[VM, EM]),
		cache:    newResultCache(opts.CacheBytes),
		loopDone: make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	go e.loop()
	return e
}

// Register adds a static graph under name. Static graphs stay at epoch 0:
// their cached answers never expire.
func (e *Engine[VM, EM]) Register(name string, g *graph.DODGr[VM, EM]) error {
	if g == nil {
		return fmt.Errorf("engine: Register(%q): nil graph", name)
	}
	return e.register(&graphEntry[VM, EM]{name: name, g: g})
}

// RegisterStream adds a stream-backed graph under name. Queries run
// against a materialized snapshot of the stream's live edge set, built
// lazily once per epoch; Ingest and Advance through the engine mutate the
// stream, bump the epoch and invalidate that graph's cached answers. After
// registration the stream must only be mutated through the engine —
// direct Ingest/Advance calls would race the scheduler's traversals.
func (e *Engine[VM, EM]) RegisterStream(name string, s *core.Stream[VM, EM]) error {
	if s == nil {
		return fmt.Errorf("engine: RegisterStream(%q): nil stream", name)
	}
	return e.register(&graphEntry[VM, EM]{name: name, stream: s, stale: true})
}

func (e *Engine[VM, EM]) register(entry *graphEntry[VM, EM]) error {
	if entry.name == "" {
		return errors.New("engine: empty graph name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, dup := e.graphs[entry.name]; dup {
		return fmt.Errorf("engine: graph %q already registered", entry.name)
	}
	e.graphs[entry.name] = entry
	return nil
}

// Graphs lists the registered graph names, sorted.
func (e *Engine[VM, EM]) Graphs() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.graphs))
	for n := range e.graphs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Epoch returns the current epoch of a registered graph.
func (e *Engine[VM, EM]) Epoch(name string) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	entry, ok := e.graphs[name]
	if !ok {
		return 0, false
	}
	return entry.epoch, true
}

// Analyses lists the names QuerySpecs may use with this engine, sorted —
// the engine's own registry, not the stock one.
func (e *Engine[VM, EM]) Analyses() []string {
	if e.reg == nil {
		return nil
	}
	return e.reg.Names()
}

// AnalysisInfos lists the argument schema and description of every
// analysis QuerySpecs may use with this engine, sorted by name.
func (e *Engine[VM, EM]) AnalysisInfos() []AnalysisInfo {
	if e.reg == nil {
		return nil
	}
	return e.reg.Describe()
}

// IndexServer is a maintained index structure the engine can attach to a
// graph (AttachIndex): a query whose analysis the index handles is
// answered directly — no stream materialization, no traversal, zero
// transport messages — with a value byte-identical to what the traversal
// path would have produced. The interface is structural so index
// implementations (internal/truss) need not import the engine.
//
// ServeQuery receives the spec's analysis name, raw Args and temporal
// window; handled=false falls the query through to the traversal path.
// IndexEpoch is a commit counter the engine mixes into its cache keys.
// Both methods are called only from the scheduler goroutine, serialized
// with the mutations that update the index.
type IndexServer interface {
	IndexEpoch() uint64
	ServeQuery(analysis string, args json.RawMessage, from, until, delta *uint64) (value any, handled bool, err error)
}

// AttachIndex attaches a maintained index to a registered graph. The
// index must be kept consistent with the graph by its own machinery
// (e.g. a truss.Index attached to the stream's sinks at open); the
// engine only routes queries to it and keys caches on its epoch.
func (e *Engine[VM, EM]) AttachIndex(name string, ix IndexServer) error {
	if ix == nil {
		return fmt.Errorf("engine: AttachIndex(%q): nil index", name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	entry, ok := e.graphs[name]
	if !ok {
		return fmt.Errorf("engine: unknown graph %q", name)
	}
	entry.index = ix
	return nil
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine[VM, EM]) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.stats
	st.CacheEntries, st.CacheBytes, st.CacheEvictions = len(e.cache.entries), e.cache.bytes, e.cache.evictions
	return st
}

// Submit validates and enqueues one query, returning its Job immediately.
// The job runs when the scheduler next drains the queue — possibly fused
// with other compatible pending jobs, possibly served from the cache. ctx
// only gates admission: a job whose ctx is done before dispatch fails with
// ctx.Err(); once its traversal starts it runs to completion.
func (e *Engine[VM, EM]) Submit(ctx context.Context, spec Spec) (*Job, error) {
	j, err := e.prepare(ctx, spec)
	if err != nil {
		return nil, err
	}
	if e.hitInline(j) {
		return j, nil
	}
	return j, e.enqueue(j)
}

// hitInline answers j on the submitting goroutine when its question is
// already cached for the graph's current epoch: the epoch and the cache are
// read in one critical section and the job completes here, counted as the
// scheduler counts a hit, without waking the scheduler and being woken by
// it. Everything else — NoCache, a dead ctx, a closed engine, a graph with
// an attached index (asked first, and part of the cache key), a miss —
// takes the queue; runGroup's own lookup still serves jobs that were
// queued behind the traversal that answers them.
func (e *Engine[VM, EM]) hitInline(j *Job) bool {
	if j.spec.NoCache || (j.ctx != nil && j.ctx.Err() != nil) {
		return false
	}
	pay := j.payload.(*queryPayload[VM, EM])
	e.mu.Lock()
	entry := e.graphs[j.spec.Graph]
	if e.closed || entry == nil || entry.index != nil {
		e.mu.Unlock()
		return false
	}
	qr, ok := e.cache.get(cacheKey{graph: j.spec.Graph, epoch: entry.epoch, opts: pay.opts, share: pay.shareKey()})
	if ok {
		e.stats.Submitted++
	}
	e.mu.Unlock()
	if !ok {
		return false
	}
	qr.Cached = true
	e.complete(j, qr, true)
	return true
}

// SubmitAll validates every spec, then enqueues all of them atomically: the
// jobs are guaranteed to land in the same admission batch, so compatible
// specs coalesce deterministically (the CLI submits its fused survey list
// this way). On any validation error nothing is enqueued.
func (e *Engine[VM, EM]) SubmitAll(ctx context.Context, specs ...Spec) ([]*Job, error) {
	jobs := make([]*Job, 0, len(specs))
	for i := range specs {
		j, err := e.prepare(ctx, specs[i])
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
	}
	return jobs, e.enqueue(jobs...)
}

// prepare validates a spec and compiles its type-erased payload.
func (e *Engine[VM, EM]) prepare(ctx context.Context, spec Spec) (*Job, error) {
	if e.reg == nil {
		return nil, errors.New("engine: no analysis registry (single-shot engines cannot Submit)")
	}
	if _, ok := e.reg.Lookup(spec.Analysis); !ok {
		return nil, fmt.Errorf("engine: unknown analysis %q (registered: %v)", spec.Analysis, e.reg.Names())
	}
	opts, err := spec.options()
	if err != nil {
		return nil, err
	}
	plan, err := compilePlan[EM](&spec, e.opts.Timestamps)
	if err != nil {
		return nil, err
	}
	planKey, ok := plan.Canonical()
	if !ok {
		// Unreachable from a Spec (no predicate fields exist), kept as a
		// guard for future spec growth.
		return nil, fmt.Errorf("engine: spec %q compiled a non-canonical plan", spec.Analysis)
	}
	e.mu.Lock()
	if spec.Graph == "" {
		if len(e.graphs) != 1 {
			n := len(e.graphs)
			e.mu.Unlock()
			return nil, fmt.Errorf("engine: spec names no graph and %d are registered", n)
		}
		for name := range e.graphs {
			spec.Graph = name
		}
	} else if _, ok := e.graphs[spec.Graph]; !ok {
		e.mu.Unlock()
		return nil, fmt.Errorf("engine: unknown graph %q", spec.Graph)
	}
	e.nextID++
	id := e.nextID
	e.mu.Unlock()

	return &Job{
		id:   id,
		spec: spec,
		ctx:  ctx,
		done: make(chan struct{}),
		payload: &queryPayload[VM, EM]{
			opts:       opts,
			plan:       plan,
			planKey:    planKey,
			analysisID: spec.analysisID(),
		},
	}, nil
}

// enqueue appends jobs to the pending queue in one critical section (one
// admission batch) and wakes the scheduler — or sheds the whole batch with
// ErrOverloaded when it would push the queue past MaxPending (all-or-
// nothing, so SubmitAll's same-batch guarantee survives shedding).
func (e *Engine[VM, EM]) enqueue(jobs ...*Job) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if e.opts.MaxPending > 0 && len(e.pending)+len(jobs) > e.opts.MaxPending {
		e.stats.Shed += uint64(len(jobs))
		return ErrOverloaded
	}
	e.pending = append(e.pending, jobs...)
	e.stats.Submitted += uint64(len(jobs))
	e.cond.Signal()
	return nil
}

// QueueDepth returns the number of jobs waiting for the scheduler's next
// admission batch.
func (e *Engine[VM, EM]) QueueDepth() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pending)
}

// Ingest routes a batch of edge insertions to the named stream-backed
// graph through the scheduler (serialized with traversals), bumps its
// epoch and invalidates its cached answers. Blocks until the mutation ran.
//
// An enqueued mutation always applies, even if ctx expires first: a ctx
// error from Ingest/Advance means only that the caller stopped waiting,
// never that the batch may or may not have landed — retrying it would
// double-apply. Observe completion through Epoch if needed.
func (e *Engine[VM, EM]) Ingest(ctx context.Context, name string, batch []graph.Edge[EM]) (core.Result, error) {
	return e.mutate(ctx, name, &mutation[VM, EM]{kind: wal.KindIngest, batch: batch})
}

// Advance slides the named stream's expiry watermark (see Stream.Advance)
// through the scheduler, bumping the epoch like Ingest.
func (e *Engine[VM, EM]) Advance(ctx context.Context, name string, cutoff uint64) (core.Result, error) {
	return e.mutate(ctx, name, &mutation[VM, EM]{kind: wal.KindAdvance, cutoff: cutoff})
}

func (e *Engine[VM, EM]) mutate(ctx context.Context, name string, m *mutation[VM, EM]) (core.Result, error) {
	if e.opts.Fanout != nil && e.opts.Mutator == nil {
		// Without a mutation seam, a multi-process engine serves static
		// graphs only: the workers would never see the batch and every
		// subsequent traversal would diverge.
		return core.Result{}, errors.New("engine: stream mutations are not supported in a multi-process world yet")
	}
	e.mu.Lock()
	entry, ok := e.graphs[name]
	if !ok {
		e.mu.Unlock()
		return core.Result{}, fmt.Errorf("engine: unknown graph %q", name)
	}
	if entry.stream == nil {
		e.mu.Unlock()
		return core.Result{}, fmt.Errorf("engine: graph %q is not stream-backed", name)
	}
	if e.opts.Mutator != nil && entry.dur == nil {
		// The broadcast re-uses the WAL's record encoding and recovery
		// re-broadcasts from the log, so multi-process streams exist only
		// behind OpenDurableStream.
		e.mu.Unlock()
		return core.Result{}, fmt.Errorf("engine: graph %q: multi-process stream mutations require OpenDurableStream", name)
	}
	e.nextID++
	id := e.nextID
	e.mu.Unlock()
	m.entry = entry
	j := &Job{
		id:      id,
		spec:    Spec{Graph: name},
		ctx:     ctx,
		done:    make(chan struct{}),
		payload: m,
	}
	if err := e.enqueue(j); err != nil {
		return core.Result{}, err
	}
	qr, err := j.Wait(ctx)
	return qr.Survey, err
}

// Close shuts the engine down: still-pending jobs fail with ErrClosed, the
// in-flight dispatch batch (if any) completes, and Close returns once the
// scheduler has exited. Registered graphs and their worlds are the
// caller's to close; Close does not touch them — but write-ahead logs the
// engine opened itself (OpenDurableStream) are synced and closed here.
func (e *Engine[VM, EM]) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		<-e.loopDone
		return nil
	}
	e.closed = true
	e.cond.Signal()
	e.mu.Unlock()
	<-e.loopDone
	var err error
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, entry := range e.graphs {
		if entry.dur != nil {
			if cerr := entry.dur.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}

// --- Scheduler -----------------------------------------------------------

// loop is the scheduler: drain everything pending, dispatch it as one
// admission batch, repeat. Jobs that arrive while a batch executes pile up
// and form the next batch — that admission window is where coalescing
// comes from.
func (e *Engine[VM, EM]) loop() {
	defer close(e.loopDone)
	for {
		e.mu.Lock()
		for len(e.pending) == 0 && !e.closed {
			e.cond.Wait()
		}
		batch := e.pending
		e.pending = nil
		closed := e.closed
		e.mu.Unlock()
		if closed {
			for _, j := range batch {
				e.fail(j, ErrClosed)
			}
			return
		}
		e.dispatch(batch)
	}
}

// dispatch executes one admission batch: queries grouped by (graph,
// traversal options) run first — each group as one fused traversal — then
// mutations in arrival order. Everything in a batch was pending
// concurrently, so no ordering between its members is owed; jobs
// submitted after a mutation returns always see the new epoch.
func (e *Engine[VM, EM]) dispatch(batch []*Job) {
	type groupKey struct {
		graph string
		opts  core.Options
	}
	groups := make(map[groupKey][]*Job)
	var order []groupKey
	var muts []*Job
	for _, j := range batch {
		j.mu.Lock()
		j.status = JobRunning
		j.mu.Unlock()
		if _, isMut := j.payload.(*mutation[VM, EM]); !isMut && j.ctx != nil && j.ctx.Err() != nil {
			// Queries whose admission ctx died are dropped here; mutations
			// are exempt — once enqueued they always apply, so Ingest and
			// Advance have deterministic effects (see mutate).
			e.fail(j, j.ctx.Err())
			continue
		}
		switch p := j.payload.(type) {
		case *mutation[VM, EM]:
			muts = append(muts, j)
		case *queryPayload[VM, EM]:
			k := groupKey{graph: j.spec.Graph, opts: p.opts}
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], j)
		default:
			e.fail(j, fmt.Errorf("engine: job %d has unknown payload %T", j.id, j.payload))
		}
	}
	for _, k := range order {
		e.runGroup(k.graph, k.opts, groups[k])
	}
	for _, j := range muts {
		e.runMutation(j)
	}
}

// share is one distinct question inside a group: a leader job compiled to
// an instance, plus followers with the identical share key that receive
// the leader's answer.
type share[VM, EM any] struct {
	leader    *Job
	followers []*Job
	pay       *queryPayload[VM, EM]
	inst      Instance[VM, EM]
	key       cacheKey
}

// runGroup answers every job of one (graph, options) group with at most
// one fused traversal: cache hits complete immediately, identical
// questions dedupe onto one instance, and the remaining distinct questions
// run fused under their plans' union with per-job residual filters.
func (e *Engine[VM, EM]) runGroup(name string, opts core.Options, jobs []*Job) {
	// Index-backed analyses are answered before anything else: serving
	// from a maintained index needs neither the (possibly stale) snapshot
	// nor a traversal, so a group whose every member the index handles
	// skips materialization entirely — that is where the index's message
	// savings come from.
	e.mu.Lock()
	var ix IndexServer
	var ixEpoch, gEpoch uint64
	if entry, ok := e.graphs[name]; ok && entry.index != nil {
		ix, gEpoch = entry.index, entry.epoch
		ixEpoch = ix.IndexEpoch()
	}
	e.mu.Unlock()
	if ix != nil {
		rest := jobs[:0]
		for _, j := range jobs {
			val, handled, err := ix.ServeQuery(j.spec.Analysis, j.spec.Args, j.spec.From, j.spec.Until, j.spec.Delta)
			if err != nil {
				e.fail(j, err)
				continue
			}
			if !handled {
				rest = append(rest, j)
				continue
			}
			e.bump(func(st *Stats) { st.IndexServed++ })
			e.complete(j, QueryResult{
				Graph:         name,
				Analysis:      j.spec.Analysis,
				Epoch:         gEpoch,
				Value:         val,
				IndexServed:   true,
				CoalescedWith: 1,
			}, false)
		}
		jobs = rest
		if len(jobs) == 0 {
			return
		}
	}

	g, epoch, err := e.snapshot(name)
	if err != nil {
		for _, j := range jobs {
			e.fail(j, err)
		}
		return
	}

	var shares []*share[VM, EM]
	byKey := make(map[string]*share[VM, EM])
	for _, j := range jobs {
		pay := j.payload.(*queryPayload[VM, EM])
		key := cacheKey{graph: name, epoch: epoch, iepoch: ixEpoch, opts: opts, share: pay.shareKey()}
		if !j.spec.NoCache {
			e.mu.Lock()
			qr, ok := e.cache.get(key)
			e.mu.Unlock()
			if ok {
				qr.Cached = true
				e.complete(j, qr, true)
				continue
			}
		}
		if s, ok := byKey[key.share]; ok {
			s.followers = append(s.followers, j)
			continue
		}
		s := &share[VM, EM]{leader: j, pay: pay, key: key}
		byKey[key.share] = s
		shares = append(shares, s)
	}
	if len(shares) == 0 {
		return
	}

	// Compile each distinct question against the current snapshot; a bad
	// factory (malformed Args) fails only its own jobs.
	live := shares[:0]
	for _, s := range shares {
		factory, _ := e.reg.Lookup(s.leader.spec.Analysis)
		inst, err := factory(g, s.leader.spec)
		if err != nil {
			e.fail(s.leader, err)
			for _, f := range s.followers {
				e.fail(f, err)
			}
			continue
		}
		s.inst = inst
		live = append(live, s)
	}
	if len(live) == 0 {
		return
	}

	// The fused traversal runs under the union of the member plans — the
	// weakest plan no member could be hurt by — and members whose own plan
	// is stricter observe through a residual filter.
	plans := make([]*core.Plan[EM], len(live))
	for i, s := range live {
		plans[i] = s.pay.plan
	}
	union, ok := core.UnionPlans(plans)
	if !ok {
		// Unreachable: spec plans never carry opaque predicates. Guard by
		// failing loudly rather than running a wrong plan.
		for _, s := range live {
			e.fail(s.leader, errors.New("engine: non-unionable plans in one group"))
			for _, f := range s.followers {
				e.fail(f, errors.New("engine: non-unionable plans in one group"))
			}
		}
		return
	}
	unionKey, _ := union.Canonical()
	attached := make([]core.Attached[VM, EM], len(live))
	for i, s := range live {
		att := s.inst.Attached
		if s.pay.plan != nil && s.pay.planKey != unionKey {
			plan := s.pay.plan
			att = core.WithResidual(att, func(t *core.Triangle[VM, EM]) bool {
				return plan.MatchEdges(t.MetaPQ, t.MetaPR, t.MetaQR)
			})
		}
		attached[i] = att
	}

	// A multi-process world runs this traversal everywhere: ship the
	// surviving work item (leader specs in share order — the workers
	// recompile them with ExecuteFused) before entering the regions.
	if e.opts.Fanout != nil {
		specs := make([]Spec, len(live))
		for i, s := range live {
			specs[i] = s.leader.spec
		}
		if err := e.opts.Fanout.Traverse(name, opts, specs); err != nil {
			for _, s := range live {
				e.fail(s.leader, err)
				for _, f := range s.followers {
					e.fail(f, err)
				}
			}
			return
		}
	}

	res, err := e.execute(g, opts, union, attached)
	if err != nil {
		for _, s := range live {
			e.fail(s.leader, err)
			for _, f := range s.followers {
				e.fail(f, err)
			}
		}
		return
	}

	njobs := 0
	for _, s := range live {
		njobs += 1 + len(s.followers)
	}
	if njobs > 1 {
		e.bump(func(st *Stats) { st.Coalesced += uint64(njobs) })
	}
	for _, s := range live {
		val := s.inst.Result()
		cell := &encoded{decoded: valueFootprint(val)}
		qr := QueryResult{
			Graph:         name,
			Analysis:      s.leader.spec.Analysis,
			Epoch:         epoch,
			Value:         val,
			CoalescedWith: njobs,
			Survey:        res,
			enc:           cell,
		}
		// A cache-willing follower deduped onto a NoCache leader still
		// wants the answer cached; NoCache only opts out its own job.
		wantCache := !s.leader.spec.NoCache
		for _, f := range s.followers {
			wantCache = wantCache || !f.spec.NoCache
		}
		if wantCache {
			// Cached before any job completes: whichever waiter encodes the
			// answer first must find the entry its length is charged to.
			key := s.key
			cell.filled = func(c *encoded) {
				e.mu.Lock()
				e.cache.charge(key, c)
				e.mu.Unlock()
			}
			e.mu.Lock()
			e.cache.put(key, qr)
			e.mu.Unlock()
		}
		e.complete(s.leader, qr, false)
		for _, f := range s.followers {
			e.bump(func(st *Stats) { st.Deduped++ })
			e.complete(f, qr, false)
		}
	}
}

// execute runs one fused traversal and accounts its traffic. This is the
// only place the engine touches core.Run; the public Run free function is
// a single-shot engine calling it directly (Once).
func (e *Engine[VM, EM]) execute(g *graph.DODGr[VM, EM], opts core.Options, plan *core.Plan[EM], attached []core.Attached[VM, EM]) (res core.Result, err error) {
	if e.opts.Fanout != nil {
		// With workers in the loop a traversal can die mid-region (a peer
		// process exits, the world poisons, the driver's ranks panic). The
		// server must survive that as a failed batch, not a crash.
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("engine: distributed traversal failed: %v", p)
			}
		}()
	}
	res, err = core.Run(g, opts, plan, attached...)
	if err != nil {
		return res, err
	}
	e.bump(func(st *Stats) {
		st.Traversals++
		st.TraversalMessages += res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
		st.TraversalBytes += res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
	})
	return res, nil
}

// Once is the single-shot engine behind the public Run wrapper: one
// ephemeral engine, one direct traversal, no scheduler, no cache. It
// exists so every traversal in the system flows through Engine.execute.
func Once[VM, EM any](g *graph.DODGr[VM, EM], opts core.Options, plan *core.Plan[EM], analyses ...core.Attached[VM, EM]) (core.Result, error) {
	e := &Engine[VM, EM]{}
	return e.execute(g, opts, plan, analyses)
}

// snapshot returns the queryable graph and epoch for name, materializing a
// stale stream first (lazily, once per epoch).
func (e *Engine[VM, EM]) snapshot(name string) (*graph.DODGr[VM, EM], uint64, error) {
	e.mu.Lock()
	entry, ok := e.graphs[name]
	if !ok {
		e.mu.Unlock()
		return nil, 0, fmt.Errorf("engine: unknown graph %q", name)
	}
	g, epoch, stale, stream := entry.g, entry.epoch, entry.stale, entry.stream
	e.mu.Unlock()
	if stale && stream != nil {
		// Materialize outside the lock: it is a collective operation. Only
		// the scheduler goroutine materializes, so there is no race on
		// entry.g/stale. In a multi-process world the workers must enter
		// the same collective, so the materialize is broadcast first.
		var err error
		g, err = e.materialize(name, stream)
		if err != nil {
			return nil, 0, err
		}
		e.mu.Lock()
		entry.g = g
		entry.stale = false
		e.mu.Unlock()
	}
	if g == nil {
		return nil, 0, fmt.Errorf("engine: graph %q has no queryable snapshot", name)
	}
	return g, epoch, nil
}

// materialize runs a stream's collective Materialize, broadcasting it to
// the workers of a multi-process world first and converting a mid-region
// world failure to an error (as execute does for traversals).
func (e *Engine[VM, EM]) materialize(name string, stream *core.Stream[VM, EM]) (g *graph.DODGr[VM, EM], err error) {
	if e.opts.Mutator != nil {
		if err := e.opts.Mutator.Materialize(name); err != nil {
			return nil, fmt.Errorf("engine: materialize broadcast for %q: %w", name, err)
		}
		defer func() {
			if p := recover(); p != nil {
				g, err = nil, fmt.Errorf("engine: distributed materialize failed: %v", p)
			}
		}()
	}
	before := stream.Stats().SnapshotEntries
	g = stream.Materialize()
	entries := stream.Stats().SnapshotEntries - before
	e.bump(func(st *Stats) {
		st.Materializations++
		st.MaterializeEntries += entries
	})
	return g, nil
}

// runMutation applies one stream mutation, bumps the epoch and drops the
// dead epoch's cache entries. On durable streams the mutation is validated
// (preflight), then logged and fsynced, then applied — the write-ahead
// order — and the epoch is the record's WAL sequence number, so epochs
// survive restarts and stay aligned with the log.
func (e *Engine[VM, EM]) runMutation(j *Job) {
	m := j.payload.(*mutation[VM, EM])
	var res core.Result
	var seq uint64
	var err error
	if e.opts.Mutator != nil {
		res, seq, err = e.applyDist(m)
	} else {
		res, seq, err = e.applyLocal(m)
	}
	if err != nil {
		e.fail(j, err)
		return
	}
	e.mu.Lock()
	if seq != 0 {
		m.entry.epoch = seq
	} else {
		m.entry.epoch++
	}
	m.entry.stale = true
	epoch := m.entry.epoch
	e.stats.Mutations++
	e.cache.purge(m.entry.name, epoch)
	e.mu.Unlock()
	e.complete(j, QueryResult{Graph: m.entry.name, Epoch: epoch, Survey: res}, false)
	if m.entry.dur != nil {
		e.maybeCheckpoint(m.entry)
	}
}

func (e *Engine[VM, EM]) bump(f func(*Stats)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f(&e.stats)
}

// complete and fail count the job before they release its waiters, so a
// caller that reads Stats after Wait sees its own job counted.
func (e *Engine[VM, EM]) complete(j *Job, qr QueryResult, fromCache bool) {
	e.bump(func(st *Stats) {
		st.Completed++
		if fromCache {
			st.CacheHits++
		}
	})
	j.mu.Lock()
	j.status = JobDone
	j.res = qr
	j.mu.Unlock()
	close(j.done)
}

func (e *Engine[VM, EM]) fail(j *Job, err error) {
	e.bump(func(st *Stats) { st.Failed++ })
	j.mu.Lock()
	j.status = JobFailed
	j.err = err
	j.mu.Unlock()
	close(j.done)
}
