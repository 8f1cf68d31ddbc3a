package ygm

import (
	"fmt"
	"strings"
	"testing"

	"tripoll/internal/serialize"
)

// Handler slots have a lifetime: a register/run/release cycle gets the same
// ids every time, the table does not grow, and the closures are dropped.

func nop(*Rank, *serialize.Decoder) {}

func TestReleaseHandlersReusesIDs(t *testing.T) {
	w := MustWorld(3, Options{})
	defer w.Close()
	base := w.NumHandlers() // the relay handler
	var first [4]HandlerID
	for cycle := 0; cycle < 50; cycle++ {
		var ids [4]HandlerID
		hits := make([]int, w.Size())
		for i := range ids {
			ids[i] = w.RegisterHandler(func(r *Rank, d *serialize.Decoder) { hits[r.ID()]++ })
		}
		if cycle == 0 {
			first = ids
		} else if ids != first {
			t.Fatalf("cycle %d registered ids %v, cycle 0 got %v", cycle, ids, first)
		}
		w.Parallel(func(r *Rank) {
			for _, h := range ids {
				r.Async((r.ID()+1)%r.Size(), h, r.Enc())
			}
		})
		for rank, n := range hits {
			if n != len(ids) {
				t.Fatalf("cycle %d: rank %d handled %d messages, want %d", cycle, rank, n, len(ids))
			}
		}
		w.ReleaseHandlers(ids[:]...)
		if n := w.NumHandlers(); n != base {
			t.Fatalf("cycle %d: table length %d after release, want %d", cycle, n, base)
		}
	}
	for _, r := range w.ranks {
		if len(r.hMsgs) > base+len(first) {
			t.Errorf("rank %d profile arrays grew to %d entries", r.id, len(r.hMsgs))
		}
	}
}

// A release below a live handler leaves a hole (the ids above must not
// move); the table shrinks past it once the top is released too.
func TestReleaseHandlersHoleThenPop(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	base := w.NumHandlers()
	a := w.RegisterHandlerNamed("a", nop)
	b := w.RegisterHandlerNamed("b", nop)
	w.ReleaseHandlers(a)
	if n := w.NumHandlers(); n != base+2 {
		t.Fatalf("table length %d with a hole under a live handler, want %d", n, base+2)
	}
	if name := w.HandlerName(a); name == "a" {
		t.Errorf("released handler kept its name")
	}
	if c := w.RegisterHandler(nop); c != b+1 {
		t.Errorf("registration with a hole below got id %d, want %d (holes are not refilled)", c, b+1)
	} else {
		w.ReleaseHandlers(c)
	}
	w.ReleaseHandlers(b)
	if n := w.NumHandlers(); n != base {
		t.Fatalf("table length %d once everything is released, want %d", n, base)
	}
}

// A release asked for inside a region takes effect when the region ends:
// the handler still serves that region's messages.
func TestReleaseHandlersInsideRegionIsDeferred(t *testing.T) {
	w := MustWorld(3, Options{})
	defer w.Close()
	base := w.NumHandlers()
	hits := make([]int, w.Size())
	h := w.RegisterHandler(func(r *Rank, d *serialize.Decoder) { hits[r.ID()]++ })
	w.Parallel(func(r *Rank) {
		if r.ID() == w.LeaderID() {
			w.ReleaseHandlers(h)
		}
		Rendezvous(r)
		r.Async((r.ID()+1)%r.Size(), h, r.Enc())
	})
	if hits[0]+hits[1]+hits[2] != 3 {
		t.Errorf("handler released mid-region dropped messages: %v", hits)
	}
	if n := w.NumHandlers(); n != base {
		t.Errorf("table length %d after the region, want %d", n, base)
	}
}

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	f()
}

// A message for a released id fails as loudly as one for an id never
// registered, and names the id.
func TestMessageForReleasedHandlerPanics(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	low := w.RegisterHandler(nop)
	keep := w.RegisterHandler(nop) // keeps the table from shrinking past low
	w.ReleaseHandlers(low)
	mustPanic(t, fmt.Sprintf("released handler %d", low), func() {
		w.Parallel(func(r *Rank) { r.Async(r.ID(), low, r.Enc()) })
	})
	mustPanic(t, fmt.Sprintf("unregistered handler %d", keep+5), func() {
		w.Parallel(func(r *Rank) { r.Async(r.ID(), keep+5, r.Enc()) })
	})
	mustPanic(t, "not registered", func() { w.ReleaseHandlers(low) })
	mustPanic(t, "not registered", func() { w.ReleaseHandlers(w.hForward) })
}

func TestHandlerProfilesSkipReleased(t *testing.T) {
	w := MustWorld(2, Options{})
	defer w.Close()
	gone := w.RegisterHandlerNamed("gone", nop)
	kept := w.RegisterHandlerNamed("kept", nop)
	w.Parallel(func(r *Rank) {
		r.Async(r.ID(), gone, r.Enc())
		r.Async(r.ID(), kept, r.Enc())
	})
	w.ReleaseHandlers(gone)
	ps := w.HandlerProfiles()
	if len(ps) != 1 || ps[0].Name != "kept" || ps[0].Messages != 2 {
		t.Errorf("profiles after release = %+v, want only \"kept\" with 2 messages", ps)
	}
}

func TestAllReduceVec(t *testing.T) {
	w := MustWorld(4, Options{})
	defer w.Close()
	w.Parallel(func(r *Rank) {
		id := uint64(r.ID())
		got := AllReduceVec(r, []uint64{1, id, 10 * id, id, 7 - id}, 3)
		want := []uint64{4, 6, 60, 3, 7}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d: AllReduceVec[%d] = %d, want %d", r.ID(), i, got[i], want[i])
			}
		}
	})
	if lr := w.LinkRounds(); lr != (LinkRounds{}) {
		t.Errorf("single-process world counted link rounds: %+v", lr)
	}
}
