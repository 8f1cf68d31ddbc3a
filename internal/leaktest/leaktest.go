// Package leaktest holds the one assertion the leak regression tests of
// internal/engine, internal/dist and cmd/tripolld share: what a served
// query leaves behind must not depend on how many came before it.
//
// Every traversal used to pin its Survey — and every stream snapshot its
// Builder and the snapshot itself — in the world's append-only handler
// table: hundreds of MB on the benchmark, blamed on the result cache.
// Surveys and builders now release their handlers (ygm.ReleaseHandlers), so
// the table and the live heap are flat across queries.
package leaktest

import (
	"runtime"
	"testing"

	"tripoll/internal/ygm"
)

// LiveHeap is the heap in use after a forced collection.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// Probe runs cycle(1..cycles) and fails t unless w's handler table is as
// long after the last cycle as after cycle 2, and the live heap grew by
// less than budget bytes between cycle 10 and the last. GOMAXPROCS is
// pinned to 1 for the duration, the standing rule for memory assertions.
func Probe(t testing.TB, w *ygm.World, cycles int, budget uint64, cycle func(i int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var handlers int
	var heap uint64
	for i := 1; i <= cycles; i++ {
		cycle(i)
		switch i {
		case 2:
			handlers = w.NumHandlers()
		case 10:
			heap = LiveHeap()
		}
	}
	if n := w.NumHandlers(); n != handlers {
		t.Errorf("handler table: %d entries after cycle 2, %d after cycle %d", handlers, n, cycles)
	}
	end := LiveHeap()
	t.Logf("live heap %d bytes after cycle 10, %d after cycle %d", heap, end, cycles)
	if end > heap+budget {
		t.Errorf("live heap grew %d bytes between cycle 10 and cycle %d (budget %d)", end-heap, cycles, budget)
	}
}
