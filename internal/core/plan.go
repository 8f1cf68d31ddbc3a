package core

import "errors"

// Plan is a survey plan: a declarative description of which triangles a
// survey cares about, compiled into per-phase filters that prune
// communication *before* it leaves the rank. Without a plan, every wedge
// batch of Alg. 1 crosses the transport and the callback sees every
// triangle; with a plan, the push phase never enqueues a wedge whose
// already-known metadata violates a predicate, the dry run never proposes
// volume for it, and pull replies omit adjacency entries that cannot
// complete a surviving triangle. The survey's result is *identical* to
// running unplanned and re-applying MatchEdges in the callback — pushed-
// down checks are necessary conditions only; the full predicate is always
// re-evaluated on the six colocated metadata items before the callback
// fires (property-tested in pushdown_test.go).
//
// Three predicate classes compose (all AND-ed):
//
//   - edge-metadata predicates (WhereEdge): a triangle qualifies only if
//     all three of its edges satisfy every predicate. Checkable per edge,
//     so it prunes in every phase, on both the push and pull sides.
//   - sliding time windows (From/Until/Window): every edge timestamp must
//     lie in [start, end]. A per-edge check once Timestamps provides the
//     accessor.
//   - temporal δ-windows (CloseWithin): the triangle's three timestamps
//     must span at most δ (t3 − t1 ≤ δ). Checkable per wedge — the source
//     rank knows meta(p,q) and meta(p,r) before enqueueing — which is what
//     makes δ-windowed surveys communication reductions rather than
//     post-hoc filters.
//
// A Plan is built fluently and is not safe for concurrent mutation; it is
// compiled (snapshotted) when a survey is constructed, so mutating it
// afterwards does not affect running surveys.
type Plan[EM any] struct {
	edgePreds []func(EM) bool
	timeOf    func(EM) uint64
	hasDelta  bool
	delta     uint64
	hasStart  bool
	start     uint64
	hasEnd    bool
	end       uint64
}

// NewPlan returns an empty plan (no constraints: every triangle matches).
func NewPlan[EM any]() *Plan[EM] { return &Plan[EM]{} }

// TemporalPlan returns a plan for uint64-timestamp edge metadata with the
// identity Timestamps accessor already installed — the common configuration
// of BuildTemporal graphs and every windowed stock survey.
func TemporalPlan() *Plan[uint64] {
	return NewPlan[uint64]().Timestamps(func(t uint64) uint64 { return t })
}

// WhereEdge adds an edge-metadata predicate; a triangle qualifies only if
// all three edges satisfy it. Multiple calls AND-compose.
//
// pred must be a pure function of the metadata. A survey evaluates it once
// per adjacency entry (not once per wedge the entry takes part in) into its
// ok column, keeps the answer for every Run of that Survey, and asks again
// only in the match-time residual (MatchEdges) before a callback. A
// predicate whose answer changes between calls cannot corrupt a message —
// header counts and payloads are written from the one recorded answer — but
// which triangles it then selects is unspecified.
func (p *Plan[EM]) WhereEdge(pred func(EM) bool) *Plan[EM] {
	p.edgePreds = append(p.edgePreds, pred)
	return p
}

// Timestamps installs the accessor that extracts a timestamp from edge
// metadata, enabling the temporal constraints. The last call wins. Like a
// WhereEdge predicate, timeOf must be a pure function of the metadata: it is
// evaluated once per adjacency entry per snapshot, into timestamp columns
// the snapshot keeps for every later survey that passes the same func value
// (graph.DODGr.Times), and again at match time. Pass one value — a named
// function, a literal without captures, or one closure kept and reused:
// every capturing closure a program makes is a new value, with columns of
// its own that live as long as the snapshot.
func (p *Plan[EM]) Timestamps(timeOf func(EM) uint64) *Plan[EM] {
	p.timeOf = timeOf
	return p
}

// CloseWithin keeps only triangles whose three edge timestamps span at
// most delta: t3 − t1 ≤ delta. delta = 0 keeps triangles whose timestamps
// are all equal. Requires Timestamps.
func (p *Plan[EM]) CloseWithin(delta uint64) *Plan[EM] {
	p.hasDelta = true
	p.delta = delta
	return p
}

// From keeps only triangles all of whose edge timestamps are ≥ start
// (an open-ended sliding window). Requires Timestamps.
func (p *Plan[EM]) From(start uint64) *Plan[EM] {
	p.hasStart = true
	p.start = start
	return p
}

// Until keeps only triangles all of whose edge timestamps are ≤ end
// (an open-ended sliding window). Requires Timestamps.
func (p *Plan[EM]) Until(end uint64) *Plan[EM] {
	p.hasEnd = true
	p.end = end
	return p
}

// Window is From(start) and Until(end) in one call: the closed interval
// [start, end]. start > end is a legal empty window that matches nothing —
// and therefore sends (almost) nothing.
func (p *Plan[EM]) Window(start, end uint64) *Plan[EM] {
	return p.From(start).Until(end)
}

// IsEmpty reports whether the plan carries no constraints at all.
func (p *Plan[EM]) IsEmpty() bool {
	return p == nil || (len(p.edgePreds) == 0 && !p.hasDelta && !p.hasStart && !p.hasEnd)
}

// ErrNoTimestamps is returned by Validate when a temporal constraint
// (CloseWithin/From/Until/Window) is set without a Timestamps accessor.
var ErrNoTimestamps = errors.New("core: plan has a temporal constraint but no Timestamps accessor (use TemporalPlan or Plan.Timestamps)")

// Validate reports whether the plan is well-formed. The only way to build
// an invalid plan is a temporal constraint without a Timestamps accessor.
func (p *Plan[EM]) Validate() error {
	if p == nil {
		return nil
	}
	if (p.hasDelta || p.hasStart || p.hasEnd) && p.timeOf == nil {
		return ErrNoTimestamps
	}
	return nil
}

// edgeOK is the single-edge necessary condition: every WhereEdge predicate
// plus the sliding window on the edge's own timestamp.
func (p *Plan[EM]) edgeOK(em EM) bool {
	for _, pred := range p.edgePreds {
		if !pred(em) {
			return false
		}
	}
	if p.timeOf != nil && (p.hasStart || p.hasEnd) {
		t := p.timeOf(em)
		if p.hasStart && t < p.start {
			return false
		}
		if p.hasEnd && t > p.end {
			return false
		}
	}
	return true
}

// pairOK is the two-edge necessary condition: two of the triangle's three
// timestamps already span more than δ, so no third can shrink the spread.
func (p *Plan[EM]) pairOK(a, b EM) bool {
	if !p.hasDelta {
		return true
	}
	return absDiff(p.timeOf(a), p.timeOf(b)) <= p.delta
}

// MatchEdges is the full triangle predicate over the three edge metadata
// items — exactly what a callback-side post-filter would evaluate. The
// engine applies it before every callback invocation, so pushdown and
// post-filtering agree triangle-for-triangle.
func (p *Plan[EM]) MatchEdges(pq, pr, qr EM) bool {
	if p == nil {
		return true
	}
	if !p.edgeOK(pq) || !p.edgeOK(pr) || !p.edgeOK(qr) {
		return false
	}
	if p.hasDelta {
		t1, _, t3 := sort3(p.timeOf(pq), p.timeOf(pr), p.timeOf(qr))
		if t3-t1 > p.delta {
			return false
		}
	}
	return true
}

// planFilters is the compiled form a Survey holds: a snapshot of the plan
// with per-phase triviality flags so the unplanned fast paths stay intact.
type planFilters[EM any] struct {
	// active is false for surveys without a plan (or with an empty one);
	// every filter hook is skipped entirely. active implies hasEdge or
	// hasPair: every plan constraint sets one of them.
	active bool
	// hasEdge marks a non-trivial single-edge filter (predicates and/or a
	// sliding window); hasPair marks an active δ-window. A pure-δ plan has
	// hasEdge == false, so adjacency scans that only help edge-level
	// pruning are skipped.
	hasEdge bool
	hasPair bool
	plan    Plan[EM] // value copy: later mutation of the source plan is invisible
}

// compile snapshots the plan. Call Validate first; compile assumes a
// well-formed plan.
func (p *Plan[EM]) compile() planFilters[EM] {
	if p.IsEmpty() {
		return planFilters[EM]{}
	}
	return planFilters[EM]{
		active:  true,
		hasEdge: len(p.edgePreds) > 0 || p.hasStart || p.hasEnd,
		hasPair: p.hasDelta,
		plan:    *p,
	}
}

// column is the single-edge filter for a survey's ok column (planCols):
// exactly edgeOK(em), given the entry's timestamp ts read from the
// snapshot's column (ignored without a sliding window). Each predicate is
// called at most once, the accessor never.
func (f *planFilters[EM]) column(em EM, ts uint64) bool {
	p := &f.plan
	for _, pred := range p.edgePreds {
		if !pred(em) {
			return false
		}
	}
	return !(p.hasStart && ts < p.start) && !(p.hasEnd && ts > p.end)
}

// edge applies the single-edge filter (trivially true when inactive). The
// stream's delta traversal calls it (and cand) per wedge; full surveys read
// plan columns instead.
func (f *planFilters[EM]) edge(em EM) bool {
	return !f.hasEdge || f.plan.edgeOK(em)
}

// cand applies the candidate filter for a wedge (p,q,r) whose two source-
// known edges are pq and pr: edge-level on pr, pair-level on (pq, pr).
func (f *planFilters[EM]) cand(pq, pr EM) bool {
	if f.hasEdge && !f.plan.edgeOK(pr) {
		return false
	}
	if f.hasPair && !f.plan.pairOK(pq, pr) {
		return false
	}
	return true
}

// tri is the full residual predicate applied before the callback.
func (f *planFilters[EM]) tri(pq, pr, qr EM) bool {
	return f.plan.MatchEdges(pq, pr, qr)
}
