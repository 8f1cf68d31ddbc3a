package core

import (
	"tripoll/internal/ygm"
)

// Triangle carries one discovered triangle: its vertices in <+ order
// (P <+ Q <+ R; P is the pivot) and all six metadata items — meta(Δpqr) in
// the paper's shorthand. Callbacks receive a pointer into a per-rank scratch
// struct that is reused for the next triangle; callbacks must copy anything
// they retain.
type Triangle[VM, EM any] struct {
	P, Q, R                uint64
	MetaP, MetaQ, MetaR    VM
	MetaPQ, MetaPR, MetaQR EM
}

// Callback is the user-defined survey operation executed once per triangle
// (Alg. 1 line 10). It runs on the goroutine of the rank where the triangle
// was identified — Rank(Q) when the wedge was pushed, Rank(P) when Q's
// adjacency was pulled — so it may freely use rank-local state, but must
// not call Barrier.
type Callback[VM, EM any] func(r *ygm.Rank, t *Triangle[VM, EM])

// Mode selects the survey algorithm.
type Mode int

const (
	// PushPull is the optimized algorithm of §4.4 (the default).
	PushPull Mode = iota
	// PushOnly is the simple algorithm of Alg. 1.
	PushOnly
)

func (m Mode) String() string {
	switch m {
	case PushPull:
		return "push-pull"
	case PushOnly:
		return "push-only"
	default:
		return "unknown-mode"
	}
}
