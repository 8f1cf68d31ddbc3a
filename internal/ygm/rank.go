package ygm

import (
	"fmt"

	"tripoll/internal/serialize"
)

// Rank is one simulated MPI rank: an id, per-destination send buffers, a
// mailbox of inbound batches, and an encoder pool. All methods must be
// called from the goroutine executing this rank's portion of a parallel
// region (or from handlers running on that goroutine).
type Rank struct {
	world *World
	id    int

	out   [][]byte // per-destination batch under construction
	inbox inbox
	encs  []*serialize.Encoder // encoder free list
	dec   serialize.Decoder    // reused for message payloads
	frame serialize.Decoder    // reused for batch framing
	stats RankStats

	// Per-handler execution counts and payload bytes (profiling).
	hMsgs  []int64
	hBytes []int64

	processing   bool // reentrancy guard: a handler is running
	asyncCounter int  // Async calls since the last poll

	// Zero-copy message construction state (Begin/Commit).
	wire     serialize.Encoder // wraps the open destination batch buffer
	wireDest int               // routed destination of the open frame
	wireMark int               // frame mark of the open frame
	wireOpen bool              // a Begin without its Commit is in flight
	copyDest int               // CopyEncode reference path: final destination
	copyH    HandlerID         // CopyEncode reference path: handler
	copyEnc  *serialize.Encoder
}

func newRank(w *World, id int) *Rank {
	r := &Rank{world: w, id: id, out: make([][]byte, w.n)}
	r.inbox.init()
	return r
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return r.world.n }

// World returns the owning world.
func (r *Rank) World() *World { return r.world }

// Stats returns this rank's communication counters.
func (r *Rank) Stats() RankStats { return r.stats }

// Enc returns a pooled encoder, reset and ready for payload construction.
// It must be handed back through Async (which recycles it) or ReleaseEnc.
func (r *Rank) Enc() *serialize.Encoder {
	if n := len(r.encs); n > 0 {
		e := r.encs[n-1]
		r.encs = r.encs[:n-1]
		e.Reset()
		return e
	}
	return serialize.NewEncoder(256)
}

// ReleaseEnc returns an encoder to the pool without sending it.
func (r *Rank) ReleaseEnc(e *serialize.Encoder) { r.encs = append(r.encs, e) }

// Async queues a fire-and-forget RPC for execution at rank dest: handler h
// will run there with the encoder's payload as its argument stream. The
// encoder is consumed (recycled into the pool).
//
// Async may opportunistically process inbound messages to bound mailbox
// growth, so rank-local state shared with handlers must tolerate handler
// execution at Async call sites (the same progress semantics as YGM).
func (r *Rank) Async(dest int, h HandlerID, e *serialize.Encoder) {
	r.AsyncBytes(dest, h, e.Bytes())
	r.ReleaseEnc(e)
}

// AsyncBytes is Async for a pre-serialized payload.
func (r *Rank) AsyncBytes(dest int, h HandlerID, payload []byte) {
	if dest < 0 || dest >= r.world.n {
		panic("ygm: Async destination out of range")
	}
	if r.wireOpen {
		panic("ygm: Async while a Begin frame is open")
	}
	if gw, relay := r.world.routeVia(r.id, dest); relay {
		// Node-level aggregation: wrap for the destination group's gateway.
		e := r.Enc()
		e.PutUvarint(uint64(dest))
		e.PutUvarint(uint64(h))
		e.PutRaw(payload)
		wrapped := e.Bytes()
		r.enqueue(gw, r.world.hForward, wrapped)
		r.ReleaseEnc(e)
		return
	}
	r.enqueue(dest, h, payload)
}

// enqueue frames the message into dest's batch buffer and applies the
// flush and poll policies.
func (r *Rank) enqueue(dest int, h HandlerID, payload []byte) {
	buf := r.out[dest]
	if buf == nil {
		buf = r.world.getBatch()
	}
	var hdr [2 * 10]byte
	n := putUvarint(hdr[:0], uint64(h))
	n = putUvarint(n, uint64(len(payload)))
	buf = append(buf, n...)
	buf = append(buf, payload...)
	r.out[dest] = buf
	r.sent(dest, buf)
}

// sent applies the post-append bookkeeping shared by enqueue and Commit:
// termination-detection and stats counters, the flush threshold, and the
// poll cadence. buf is dest's batch buffer after the append.
func (r *Rank) sent(dest int, buf []byte) {
	r.world.slots[r.id].sent.Add(1)
	r.stats.MessagesSent++
	if len(buf) >= r.world.opts.BufferBytes {
		r.flushDest(dest)
	}
	r.asyncCounter++
	if r.asyncCounter >= r.world.opts.PollEvery {
		r.asyncCounter = 0
		r.Poll()
	}
}

// Begin opens a zero-copy message for handler h at rank dest: the returned
// encoder appends the payload directly into the destination's batch buffer
// (relayed messages write their forwarding wrapper the same way), so
// steady-state encoding allocates nothing and copies nothing. Every Begin
// must be paired with a Commit before any other send from this rank —
// Async, AsyncBytes or another Begin between the two panics, because the
// open frame owns the batch buffer's tail.
//
// Under Options.CopyEncode the message is built in a pooled standalone
// encoder and copied behind its length prefix on Commit instead — the
// pre-zero-copy discipline, kept as a byte-identical reference path for
// differential tests and ablations.
func (r *Rank) Begin(dest int, h HandlerID) *serialize.Encoder {
	if dest < 0 || dest >= r.world.n {
		panic("ygm: Begin destination out of range")
	}
	if r.wireOpen {
		panic("ygm: Begin while another frame is open")
	}
	if r.world.opts.CopyEncode {
		r.copyDest, r.copyH = dest, h
		r.copyEnc = r.Enc()
		r.wireOpen = true
		return r.copyEnc
	}
	route, hdr := dest, h
	relay := false
	if gw, rel := r.world.routeVia(r.id, dest); rel {
		route, hdr, relay = gw, r.world.hForward, true
	}
	buf := r.out[route]
	if buf == nil {
		buf = r.world.getBatch()
	}
	e := &r.wire
	e.SetBuf(buf)
	e.PutUvarint(uint64(hdr))
	r.wireDest = route
	r.wireOpen = true
	r.wireMark = e.BeginFrame()
	if relay {
		e.PutUvarint(uint64(dest))
		e.PutUvarint(uint64(h))
	}
	return e
}

// Commit seals a Begin frame: the length prefix is patched, the batch
// buffer is returned to the send queue, and the usual flush and poll
// policies run. e must be the encoder Begin returned.
func (r *Rank) Commit(e *serialize.Encoder) {
	if !r.wireOpen {
		panic("ygm: Commit without a matching Begin")
	}
	r.wireOpen = false
	if r.world.opts.CopyEncode {
		if e != r.copyEnc {
			panic("ygm: Commit of a foreign encoder")
		}
		r.copyEnc = nil
		r.AsyncBytes(r.copyDest, r.copyH, e.Bytes())
		r.ReleaseEnc(e)
		return
	}
	if e != &r.wire {
		panic("ygm: Commit of a foreign encoder")
	}
	e.EndFrame(r.wireMark)
	buf := e.TakeBuf()
	r.out[r.wireDest] = buf
	r.sent(r.wireDest, buf)
}

func putUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// flushDest sends the batch under construction for dest, if any.
func (r *Rank) flushDest(dest int) {
	buf := r.out[dest]
	if len(buf) == 0 {
		return
	}
	r.out[dest] = nil
	r.stats.BatchesSent++
	r.stats.BytesSent += int64(len(buf))
	if r.world.group(dest) != r.world.group(r.id) {
		// Inter-group traffic: the "network" cost in the two-level model.
		r.stats.RemoteBatches++
		r.stats.RemoteBytes += int64(len(buf))
	}
	r.world.transport.deliver(r.id, dest, buf)
}

// FlushAll sends every partially filled batch.
func (r *Rank) FlushAll() {
	for dest := range r.out {
		r.flushDest(dest)
	}
}

// Poll processes all currently queued inbound batches without blocking.
// It is a no-op when called reentrantly from a handler.
func (r *Rank) Poll() {
	if r.processing {
		return
	}
	for r.drainOnce() {
	}
}

// drainOnce processes a single inbound batch; it reports whether one was
// available.
func (r *Rank) drainOnce() bool {
	batch, ok := r.inbox.tryPop()
	if !ok {
		return false
	}
	r.processBatch(batch)
	return true
}

func (r *Rank) processBatch(batch []byte) {
	r.processing = true
	defer func() { r.processing = false }()
	f := &r.frame
	f.Reset(batch)
	handlers := r.world.handlers
	for f.Remaining() > 0 {
		h := f.Uvarint()
		n := f.Uvarint()
		payload := f.Raw(int(n))
		if f.Err() != nil {
			panic("ygm: corrupt batch framing: " + f.Err().Error())
		}
		if h >= uint64(len(handlers)) {
			panic(fmt.Sprintf("ygm: message for unregistered handler %d", h))
		}
		if handlers[h] == nil {
			panic(fmt.Sprintf("ygm: message for released handler %d", h))
		}
		// The r.processing guard prevents nested batch processing, so the
		// single per-rank payload decoder can be reused for every message.
		r.profile(h, len(payload))
		r.dec.Reset(payload)
		handlers[h](r, &r.dec)
		r.world.slots[r.id].processed.Add(1)
		r.stats.MessagesProcessed++
	}
	r.world.putBatch(batch)
}

// Barrier flushes all buffers and blocks until global quiescence: every
// message injected anywhere in the world — including messages spawned by
// handlers during the barrier — has been processed. This is the
// termination-detecting barrier of Alg. 1 line 6.
//
// All ranks must call Barrier collectively. Handlers must never call it.
func (r *Rank) Barrier() {
	if r.processing {
		panic("ygm: Barrier called from inside a handler")
	}
	w := r.world
	for {
		// Local quiescence: process everything available, flush what that
		// produced, repeat until nothing is queued locally.
		for {
			for r.drainOnce() {
			}
			r.FlushAll()
			if r.inbox.empty() {
				break
			}
		}
		// Global quiescence check: see quiesceVerdict. In a multi-process
		// world the verdict spans every process's counters, so a Barrier
		// returns only when the whole world — wires included — is quiet.
		if w.quiesceVerdict(r) {
			return
		}
	}
}
