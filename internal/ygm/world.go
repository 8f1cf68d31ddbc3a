package ygm

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"tripoll/internal/serialize"
)

// HandlerID names a registered remote procedure. Registration order is
// deterministic and shared by all ranks, mirroring how YGM resolves lambda
// offsets across address spaces.
type HandlerID uint32

// Handler is the procedure executed at the destination rank. It runs on the
// destination rank's goroutine; it may freely touch that rank's local state
// and may send further async messages, but must not call Barrier.
type Handler func(r *Rank, d *serialize.Decoder)

// TransportKind selects how batches move between ranks.
type TransportKind int

const (
	// TransportChannel moves batches through in-memory mailboxes.
	TransportChannel TransportKind = iota
	// TransportTCP moves batches through loopback TCP sockets.
	TransportTCP
)

func (k TransportKind) String() string {
	switch k {
	case TransportChannel:
		return "channel"
	case TransportTCP:
		return "tcp"
	default:
		return fmt.Sprintf("TransportKind(%d)", int(k))
	}
}

// Options configures a World.
type Options struct {
	// BufferBytes is the per-destination flush threshold (§4.1.1). Batches
	// are sent when they exceed this size or at a flush point.
	BufferBytes int
	// Transport selects the batch transport.
	Transport TransportKind
	// PollEvery processes pending inbound batches after this many Async
	// calls, bounding mailbox growth while a rank is send-heavy. Zero uses
	// the default.
	PollEvery int
	// GroupSize enables node-level message aggregation (§5.4's remedy):
	// ranks are grouped into simulated compute nodes of this many
	// consecutive ranks, and inter-group messages are relayed through a
	// gateway rank in the destination group so each sender keeps one
	// buffer per remote group instead of one per remote rank. 0 or 1
	// disables grouping.
	GroupSize int
	// CopyEncode switches Rank.Begin/Commit to the pre-zero-copy reference
	// discipline: payloads are built in pooled standalone encoders and
	// copied behind their length prefix. The wire bytes, message counts and
	// results are identical to the zero-copy path by construction — the
	// property the encode-identity tests verify — so this knob exists only
	// for those differential tests and for alloc/time ablations.
	CopyEncode bool
	// ListenAddr is the host:port the TCP transport listens on, one
	// listener per local rank (":0" forms pick ephemeral ports; the bound
	// addresses are surfaced by World.ListenAddrs). Empty defaults to
	// "127.0.0.1:0", the historical single-process loopback.
	ListenAddr string
}

// ProcLink bridges the local process's share of a world to the other
// processes of a multi-process world. The three operations mirror the three
// global synchronization needs of the runtime: Sync backs Rendezvous,
// Quiesce backs the Barrier's termination verdict (callers pass their
// process-local sent/processed totals and get the global verdict), and
// Exchange backs the collectives (callers pass their local ranks'
// contribution slots, in rank order, and get the full world's slot array).
//
// Only the process leader rank calls into the link, and every process's
// leader calls the same operation in the same order (the SPMD discipline
// collectives already demand), so implementations may be strict
// request/response protocols with no demultiplexing.
type ProcLink interface {
	Sync() error
	Quiesce(sent, processed int64) (quiet bool, err error)
	Exchange(local []any) ([]any, error)
}

// Topology describes one process's slice of a multi-process world: which
// contiguous rank span is local, where every rank in the world listens,
// pre-bound listeners for the local span (in rank order; the transport
// takes ownership), and the control-plane link to the peer processes.
type Topology struct {
	First int
	Count int
	// Peers maps every rank to its dial address. Entries for local ranks
	// must match the corresponding Listeners' bound addresses.
	Peers []string
	// Listeners are the local span's pre-bound listeners (one per local
	// rank, rank order). Binding before world construction is what lets a
	// rendezvous advertise addresses first and build the world second.
	Listeners []net.Listener
	// Link is the cross-process control plane.
	Link ProcLink
}

const (
	defaultBufferBytes = 64 << 10
	defaultPollEvery   = 512
)

// World is the communicator: a fixed set of ranks plus the handler registry
// and the shared machinery for barriers and collectives.
//
// A world is either single-process (every rank is a local goroutine — the
// historical simulated-MPI mode) or one process's view of a multi-process
// world built by NewDistWorld: ranks [first, first+local) run here, the
// rest run in peer processes reached through the TCP transport, and the
// barrier/collective machinery splices in a ProcLink round wherever global
// agreement is needed.
type World struct {
	n     int
	opts  Options
	ranks []*Rank

	// Multi-process span: local ranks are [first, first+local). In a
	// single-process world first is 0, local is n and link is nil.
	first     int
	local     int
	link      ProcLink
	distQuiet bool // leader-written verdict of the last link Quiesce round

	mu           sync.Mutex
	handlers     []Handler // a released slot is nil; see ReleaseHandlers
	handlerNames []string
	released     []HandlerID // in-region releases, applied when the region ends
	inRegion     atomic.Bool

	// Process-link rounds by kind, counted where the leader makes them
	// (always zero in a single-process world); see LinkRounds.
	syncRounds, quiesceRounds, exchangeRounds atomic.Uint64

	// Message counters for termination detection, sharded per rank (each
	// rank touches only its own cache line; the barrier sums them at a
	// point where they are provably stable).
	slots []counterSlot

	barrier *cyclicBarrier
	shared  []any // collective exchange slots, one per rank

	batchPool sync.Pool
	boxPool   sync.Pool // spare *[]byte headers so putBatch never re-boxes
	transport transport
	hForward  HandlerID

	failed   atomic.Bool
	failedMu sync.Mutex
	failure  any
}

// NewWorld creates a single-process communicator with n ranks. n must be
// at least 1.
func NewWorld(n int, opts Options) (*World, error) {
	return newWorld(n, opts, nil)
}

// NewDistWorld creates this process's view of a multi-process world of n
// ranks. The topology's local span, peer table, pre-bound listeners and
// process link come from a rendezvous (see internal/dist). The transport
// must be TCP: remote ranks are only reachable through sockets.
//
// Collectives on a distributed world move their contributions between
// processes with encoding/gob, so any value type handed to AllReduce,
// AllGather or Broadcast must be gob-encodable (and registered with
// gob.Register when passed through an interface).
func NewDistWorld(n int, opts Options, topo Topology) (*World, error) {
	if topo.First < 0 || topo.Count < 1 || topo.First+topo.Count > n {
		return nil, fmt.Errorf("ygm: local span [%d, %d) outside world of %d", topo.First, topo.First+topo.Count, n)
	}
	if topo.Count < n {
		if opts.Transport != TransportTCP {
			return nil, fmt.Errorf("ygm: a multi-process world requires the TCP transport, got %v", opts.Transport)
		}
		if len(topo.Peers) != n {
			return nil, fmt.Errorf("ygm: peer table has %d entries, want %d", len(topo.Peers), n)
		}
		if topo.Link == nil {
			return nil, fmt.Errorf("ygm: a multi-process world requires a process link")
		}
	}
	return newWorld(n, opts, &topo)
}

func newWorld(n int, opts Options, topo *Topology) (*World, error) {
	if n < 1 {
		return nil, fmt.Errorf("ygm: world size must be >= 1, got %d", n)
	}
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = defaultBufferBytes
	}
	if opts.PollEvery <= 0 {
		opts.PollEvery = defaultPollEvery
	}
	first, local := 0, n
	var link ProcLink
	if topo != nil {
		first, local, link = topo.First, topo.Count, topo.Link
		if local == n {
			link = nil // a one-process "distributed" world degenerates cleanly
		}
	}
	w := &World{
		n:       n,
		opts:    opts,
		first:   first,
		local:   local,
		link:    link,
		barrier: newCyclicBarrier(local),
		shared:  make([]any, n),
		slots:   make([]counterSlot, n),
	}
	w.batchPool.New = func() any {
		b := make([]byte, 0, opts.BufferBytes+4<<10)
		return &b
	}
	if opts.GroupSize < 0 {
		return nil, fmt.Errorf("ygm: negative group size %d", opts.GroupSize)
	}
	if opts.GroupSize > n {
		opts.GroupSize = n // one group spanning the world: no relaying
	}
	w.opts = opts
	w.ranks = make([]*Rank, n)
	for i := 0; i < n; i++ {
		w.ranks[i] = newRank(w, i)
	}
	// The relay handler always occupies id 0 so handler ids are stable
	// whether or not grouping is enabled.
	w.hForward = w.RegisterHandler(w.forwardHandler)
	switch opts.Transport {
	case TransportChannel:
		if w.Distributed() {
			return nil, fmt.Errorf("ygm: channel transport cannot span processes")
		}
		w.transport = newChannelTransport(w)
	case TransportTCP:
		tr, err := newTCPTransport(w, topo)
		if err != nil {
			return nil, fmt.Errorf("ygm: tcp transport: %w", err)
		}
		w.transport = tr
	default:
		return nil, fmt.Errorf("ygm: unknown transport %v", opts.Transport)
	}
	return w, nil
}

// MustWorld is NewWorld that panics on error; convenient in tests and
// examples.
func MustWorld(n int, opts Options) *World {
	w, err := NewWorld(n, opts)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.n }

// LocalSpan returns the contiguous rank span hosted by this process. In a
// single-process world it is (0, Size).
func (w *World) LocalSpan() (first, count int) { return w.first, w.local }

// LeaderID returns the lowest local rank — the rank that creates and
// publishes process-shared objects. Code that historically gated shared
// construction on rank 0 must gate on the leader instead so every process
// of a multi-process world builds its own copy. In a single-process world
// the leader is rank 0, preserving the historical behavior exactly.
func (w *World) LeaderID() int { return w.first }

// Local reports whether rank id runs in this process.
func (w *World) Local(id int) bool { return id >= w.first && id < w.first+w.local }

// Distributed reports whether this world spans more than one OS process.
func (w *World) Distributed() bool { return w.link != nil }

// ListenAddrs returns the bound listener address of each local rank, in
// rank order. Only TCP-transport worlds have listeners; other transports
// return nil.
func (w *World) ListenAddrs() []string {
	if t, ok := w.transport.(*tcpTransport); ok {
		return append([]string(nil), t.addrs...)
	}
	return nil
}

// Options returns the options the world was created with.
func (w *World) Options() Options { return w.opts }

// Close releases transport resources (sockets for TCP). The world must not
// be used afterwards.
func (w *World) Close() error { return w.transport.close() }

// RegisterHandler adds a procedure to the registry and returns its id.
// Handlers must be registered outside parallel regions so every rank sees an
// identical registry.
func (w *World) RegisterHandler(h Handler) HandlerID {
	if w.inRegion.Load() {
		panic("ygm: RegisterHandler called inside a parallel region")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.handlers = append(w.handlers, h)
	return HandlerID(len(w.handlers) - 1)
}

// ReleaseHandlers ends the life of handler ids: their closures (and whatever
// those pin) are dropped, their profile counters are zeroed, and the table
// shrinks past every released id at its top, so a register/run/release cycle
// gets the same ids every time — in every process, since registration and
// release both follow the SPMD order. A message for a released id fails as
// loudly as one for an id never registered. Called inside a parallel region
// (by one rank) the release takes effect when the region ends: the ranks
// read the table unlocked while they run.
func (w *World) ReleaseHandlers(ids ...HandlerID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.released = append(w.released, ids...)
	if w.inRegion.Load() {
		return
	}
	for _, id := range w.released {
		if int(id) >= len(w.handlers) || w.handlers[id] == nil || id == w.hForward {
			panic(fmt.Sprintf("ygm: ReleaseHandlers of handler %d, which is not registered", id))
		}
		w.handlers[id] = nil
		if int(id) < len(w.handlerNames) {
			w.handlerNames[id] = ""
		}
		for _, r := range w.ranks {
			if int(id) < len(r.hMsgs) {
				r.hMsgs[id], r.hBytes[id] = 0, 0
			}
		}
	}
	w.released = w.released[:0]
	n := len(w.handlers)
	for w.handlers[n-1] == nil { // slot 0, the relay handler, is never released
		n--
	}
	w.handlers = w.handlers[:n]
}

// NumHandlers returns the length of the handler table (released slots
// under a live one included): flat across queries when every survey and
// builder releases what it registered.
func (w *World) NumHandlers() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.handlers)
}

// LinkRounds counts the process-link round trips this process's leader has
// made, by kind: Sync backs Rendezvous, Quiesce the Barrier's termination
// verdict, Exchange the collectives. Exchange and Sync counts are a pure
// function of the work done; Quiesce rounds depend on how long the wires
// take to drain.
type LinkRounds struct{ Sync, Quiesce, Exchange uint64 }

// LinkRounds returns the link-round counters; safe while a region runs.
func (w *World) LinkRounds() LinkRounds {
	return LinkRounds{Sync: w.syncRounds.Load(), Quiesce: w.quiesceRounds.Load(), Exchange: w.exchangeRounds.Load()}
}

// Parallel runs fn concurrently on every local rank (the SPMD region) and
// returns when all of them have finished. An implicit Barrier runs at the
// end of the region, so no message is left unprocessed when Parallel
// returns. In a multi-process world every process must enter the same
// regions in the same order; together they form one world-wide SPMD
// region, with the remote ranks executing in their own processes.
//
// If any rank panics, the barrier is poisoned so the remaining ranks unwind
// instead of deadlocking, and Parallel re-panics with the first failure.
func (w *World) Parallel(fn func(r *Rank)) {
	if w.inRegion.Swap(true) {
		panic("ygm: nested Parallel regions are not supported")
	}

	var wg sync.WaitGroup
	wg.Add(w.local)
	for i := w.first; i < w.first+w.local; i++ {
		r := w.ranks[i]
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					if p == errWorldPoisoned {
						return // secondary failure from a poisoned barrier
					}
					w.recordFailure(fmt.Sprintf("ygm: rank %d panicked: %v", r.id, p))
				}
			}()
			fn(r)
			r.Barrier()
		}()
	}
	wg.Wait()
	w.inRegion.Store(false)
	w.ReleaseHandlers() // whatever the region asked to release
	if w.failed.Load() {
		w.failedMu.Lock()
		f := w.failure
		w.failed.Store(false)
		w.failure = nil
		w.failedMu.Unlock()
		w.barrier.reset()
		panic(f)
	}
}

// linkFail surfaces a process-link error on the leader rank's goroutine.
// The panic is recovered by Parallel, which poisons the barrier so the
// other local ranks unwind instead of deadlocking — the same failure
// discipline as any rank panic.
func (w *World) linkFail(err error) {
	panic(fmt.Errorf("ygm: process link: %w", err))
}

// syncRanks is the rendezvous primitive behind Rendezvous and the
// collectives' release phase. Single-process: one local barrier round.
// Multi-process: the local ranks rendezvous, the leader runs a link Sync
// round with the peer processes, and a second local round releases
// everyone — no rank on any process passes until all ranks everywhere
// have arrived.
func (w *World) syncRanks(r *Rank) {
	if w.link == nil {
		w.barrier.await()
		return
	}
	w.barrier.await()
	if r.id == w.first {
		w.syncRounds.Add(1)
		if err := w.link.Sync(); err != nil {
			w.linkFail(err)
		}
	}
	w.barrier.await()
}

// gatherSlots completes a collective's exchange phase: callers have written
// their contribution into w.shared[r.id]; on return every slot in
// [0, Size) is populated on every process. Values crossing processes ride
// gob through the link.
func (w *World) gatherSlots(r *Rank) {
	w.barrier.await()
	if w.link == nil {
		return
	}
	if r.id == w.first {
		local := make([]any, w.local)
		copy(local, w.shared[w.first:w.first+w.local])
		w.exchangeRounds.Add(1)
		full, err := w.link.Exchange(local)
		if err != nil {
			w.linkFail(err)
		}
		if len(full) != w.n {
			w.linkFail(fmt.Errorf("exchange returned %d slots, want %d", len(full), w.n))
		}
		copy(w.shared, full)
	}
	w.barrier.await()
}

// quiesceVerdict is the Barrier's global termination check: between its
// two rendezvous no rank sends or processes, so the sharded counters are
// stable and every rank — on every process — reads the same verdict. In a
// multi-process world each process leader contributes its local totals and
// the link's coordinator sums them; a message in flight between processes
// is counted by its sender but not yet by its receiver, so the verdict
// stays false until the wire drains.
func (w *World) quiesceVerdict(r *Rank) bool {
	w.barrier.await()
	if w.link == nil {
		quiet := w.totalSent() == w.totalProcessed()
		w.barrier.await()
		return quiet
	}
	if r.id == w.first {
		w.quiesceRounds.Add(1)
		quiet, err := w.link.Quiesce(w.totalSent(), w.totalProcessed())
		if err != nil {
			w.linkFail(err)
		}
		w.distQuiet = quiet
	}
	w.barrier.await()
	return w.distQuiet
}

func (w *World) recordFailure(f any) {
	w.failedMu.Lock()
	if w.failure == nil {
		w.failure = f
	}
	w.failedMu.Unlock()
	w.failed.Store(true)
	w.barrier.poison()
}

// counterSlot holds one rank's contribution to the global sent/processed
// totals, padded so neighboring ranks never share a cache line.
type counterSlot struct {
	sent      atomic.Int64
	processed atomic.Int64
	_         [48]byte
}

func (w *World) totalSent() int64 {
	var s int64
	for i := range w.slots {
		s += w.slots[i].sent.Load()
	}
	return s
}

func (w *World) totalProcessed() int64 {
	var s int64
	for i := range w.slots {
		s += w.slots[i].processed.Load()
	}
	return s
}

// InFlight reports the number of injected-but-unprocessed messages. It is
// only stable outside parallel regions or between the two phases of a
// barrier round.
func (w *World) InFlight() int64 { return w.totalSent() - w.totalProcessed() }

// Stats aggregates per-rank communication statistics. Call it between
// parallel regions for a consistent snapshot.
func (w *World) Stats() Stats {
	var s Stats
	for _, r := range w.ranks {
		s.add(&r.stats)
	}
	s.MessagesSent = w.totalSent()
	s.MessagesProcessed = w.totalProcessed()
	return s
}

// TransportCounters returns the atomic-backed message counters — unlike
// Stats, safe to read concurrently with a running parallel region, which
// is what a monitoring endpoint needs (the full Stats reads per-rank
// counters and is only consistent between regions).
func (w *World) TransportCounters() (sent, processed int64) {
	return w.totalSent(), w.totalProcessed()
}

// ResetStats zeroes all per-rank counters. Experiments call this between
// phases to attribute communication volume per phase.
func (w *World) ResetStats() {
	for _, r := range w.ranks {
		r.stats = RankStats{}
	}
	for i := range w.slots {
		w.slots[i].sent.Store(0)
		w.slots[i].processed.Store(0)
	}
}

// Rank returns the rank object with the given id; useful for inspecting
// per-rank statistics after a region.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// getBatch and putBatch recycle both the byte buffers and the *[]byte
// headers that sync.Pool forces them through. Boxing with a fresh &b on
// every Put would heap-allocate a slice header per recycled batch — one
// allocation per frame on the TCP receive path — so emptied boxes park in
// boxPool (pointer-to-interface conversions are allocation-free) and are
// refilled on the next put.
func (w *World) getBatch() []byte {
	bp := w.batchPool.Get().(*[]byte)
	b := (*bp)[:0]
	*bp = nil
	w.boxPool.Put(bp)
	return b
}

func (w *World) putBatch(b []byte) {
	if cap(b) == 0 {
		return
	}
	bp, _ := w.boxPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = b[:0]
	w.batchPool.Put(bp)
}
