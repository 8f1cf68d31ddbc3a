//go:build !race

package ygm

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"tripoll/internal/serialize"
)

// Steady-state allocation discipline of the hot send/receive paths. These
// tests pin the PR's pooling work: once buffers, encoders and mailbox
// arrays are warm, pushing messages must not touch the allocator. Excluded
// under -race because race instrumentation inserts its own allocations.

// TestSteadyStateEncodeZeroAllocs: the zero-copy Begin/Commit encode —
// including the periodic batch flush and mailbox hand-off it triggers —
// runs at exactly 0 allocs/op once warm. Core-count independent:
// testing.AllocsPerRun pins GOMAXPROCS(1) for the measurement and reports
// whole allocations per run, so stray process-wide allocations (fewer than
// one per send) round to zero.
func TestSteadyStateEncodeZeroAllocs(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	var sink atomic.Uint64
	h := w.RegisterHandler(func(r *Rank, d *serialize.Decoder) {
		sink.Add(d.Uvarint())
	})
	var avg float64
	w.Parallel(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		send := func() {
			e := r.Begin(1, h)
			e.PutUvarint(7)
			r.Commit(e)
		}
		// Warm everything: batch pool to the flush high-water mark, the
		// peer mailbox's backing array, poll cadence state.
		for i := 0; i < 50_000; i++ {
			send()
		}
		avg = testing.AllocsPerRun(50_000, send)
	})
	if avg > 0 {
		t.Errorf("steady-state Begin/Commit encode: %.4f allocs/op, want 0", avg)
	}
	if sink.Load() == 0 {
		t.Fatal("no messages were delivered")
	}
}

// TestTCPReceiveSteadyStateAllocs: the TCP frame receive path (read frame
// length, borrow a pooled buffer, ReadFull, mailbox push) must not allocate
// per frame once the pool has grown to the in-flight high-water mark.
// Measured process-wide with GC disabled; the budget is far below one
// allocation per frame, so a regression to per-frame buffer allocation
// (the pre-pool behavior) fails by two orders of magnitude.
//
// Two things keep the count to the receive path's own work, whatever the
// host's cores and load:
//
//   - the whole test runs at GOMAXPROCS(1), as testing.AllocsPerRun does:
//     runtime.MemStats is process-wide and sync.Pool caches per P, so with
//     real parallelism a buffer put back on the receiver's P misses the
//     sender's next Get and the miss is charged to this test (700–1600
//     allocs at GOMAXPROCS 2–8 against ~20 at 1). The pin precedes the warm
//     round because resizing GOMAXPROCS drops every pool's per-P caches;
//   - the sender never runs more than window messages (~16 frames) ahead
//     of the handler, so the high-water mark is a constant of the test and
//     not the scheduler's choice: unthrottled, a round on a loaded host
//     could queue a few hundred more frames than the warm round had, and
//     each grows the pool by a buffer and its box (2 of 60 runs went over
//     budget at GOMAXPROCS 2 beside a busy test binary, pin and a second
//     warm round notwithstanding).
func TestTCPReceiveSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Small buffers force many frames: ~64-byte messages over 1 KiB
	// batches → a frame roughly every 16 messages.
	w := MustWorld(2, Options{Transport: TransportTCP, BufferBytes: 1 << 10})
	defer w.Close()
	var got atomic.Uint64
	h := w.RegisterHandler(func(r *Rank, d *serialize.Decoder) {
		d.Bytes()
		got.Add(1)
	})
	payload := make([]byte, 60)
	const perRound = 20_000
	const window = 256 // > one batch, so the unflushed tail cannot stall the sender
	var sent uint64
	round := func() {
		w.Parallel(func(r *Rank) {
			if r.ID() != 0 {
				// Receive while the sender runs; parked in the closing Barrier
				// the rank would leave the whole round queued in its inbox.
				for target := got.Load() + perRound - window; got.Load() < target; time.Sleep(10 * time.Microsecond) {
					r.Poll()
				}
				return
			}
			for i := 0; i < perRound; i++ {
				e := r.Begin(1, h)
				e.PutBytes(payload)
				r.Commit(e)
				for sent++; sent-got.Load() > window; {
					time.Sleep(10 * time.Microsecond)
				}
			}
		})
	}
	round() // warm: pools, mailbox arrays, bufio, barrier machinery

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs

	frames := perRound * 64 / (1 << 10) // lower bound on frames sent
	t.Logf("%d allocs for ≥%d frames", allocs, frames)
	if allocs > uint64(frames)/4 {
		t.Errorf("TCP receive round: %d allocs for ≥%d frames (%d messages); want ≪ 1 alloc/frame",
			allocs, frames, perRound)
	}
	if got.Load() < 2*perRound {
		t.Fatalf("delivered %d messages, want %d", got.Load(), 2*perRound)
	}
}
