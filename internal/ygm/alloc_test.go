//go:build !race

package ygm

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

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
// (the pre-pool behavior) fails every round by two orders of magnitude.
//
// Two things make the count independent of the host's cores and load:
//
//   - the whole test runs at GOMAXPROCS(1), as testing.AllocsPerRun does:
//     runtime.MemStats is process-wide and sync.Pool caches per P, so with
//     real parallelism a buffer put back on the receiver's P misses the
//     sender's next Get and the miss is charged to this test (700–1600
//     allocs at GOMAXPROCS 2–8 against ~20 at 1). The pin precedes the warm
//     round because resizing GOMAXPROCS drops every pool's per-P caches;
//   - steady state is the first round that fits the pool, not the second
//     round: how many frames are in flight at once is the scheduler's
//     choice (on a loaded host a round can queue several hundred more than
//     the one before it), each such frame grows the pool by one buffer for
//     good, and a round sends only ~1250, so rounds are repeated until one
//     stays in budget. A per-frame allocation never does.
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
	round := func() {
		w.Parallel(func(r *Rank) {
			if r.ID() != 0 {
				return
			}
			for i := 0; i < perRound; i++ {
				e := r.Begin(1, h)
				e.PutBytes(payload)
				r.Commit(e)
			}
		})
	}
	round() // warm: pools, mailbox arrays, bufio, barrier machinery

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const (
		frames    = perRound * 64 / (1 << 10) // lower bound on frames sent per round
		budget    = frames / 4
		maxRounds = 8
	)
	var perRoundAllocs []uint64
	for len(perRoundAllocs) < maxRounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		perRoundAllocs = append(perRoundAllocs, after.Mallocs-before.Mallocs)
		if after.Mallocs-before.Mallocs <= budget {
			break
		}
	}
	t.Logf("allocs per round of ≥%d frames: %v", frames, perRoundAllocs)
	if perRoundAllocs[len(perRoundAllocs)-1] > budget {
		t.Errorf("TCP receive: no round of %d stayed within %d allocs for ≥%d frames (%d messages): %v; want ≪ 1 alloc/frame",
			maxRounds, budget, frames, perRound, perRoundAllocs)
	}
	if want := uint64(1+len(perRoundAllocs)) * perRound; got.Load() < want {
		t.Fatalf("delivered %d messages, want %d", got.Load(), want)
	}
}
