package core

import (
	"fmt"
	"strings"

	"tripoll/internal/ygm"
)

// Plan algebra for the query engine. The engine coalesces concurrently
// pending queries against the same graph into one fused traversal; to do
// that it must (a) name a plan so equal queries can share a cache entry,
// (b) form the least restrictive plan covering a set of queries (the plan
// the fused traversal pushes down), and (c) re-restrict each query to its
// own plan at the callback. Canonical, UnionPlans and WithResidual are
// those three operations. They are only defined for *declarative* plans —
// temporal windows and δ-constraints, the serializable subset a QuerySpec
// can express; opaque WhereEdge predicates cannot be compared, unioned or
// keyed, so plans carrying them report ok == false and the engine runs
// them solo.

// Canonical returns a stable textual key identifying the plan's constraint
// set, and whether the plan has one. ok is false when the plan carries
// opaque WhereEdge predicates (function values have no canonical form).
// Two plans with equal keys restrict a survey identically *provided* their
// Timestamps accessors agree — the key cannot inspect the accessor, so
// callers comparing keys across plans must use a uniform accessor (the
// engine compiles every QuerySpec with the same one).
//
// A nil or empty plan canonicalizes to the empty key: unrestricted.
func (p *Plan[EM]) Canonical() (key string, ok bool) {
	if p.IsEmpty() {
		return "", true
	}
	if len(p.edgePreds) > 0 {
		return "", false
	}
	var sb strings.Builder
	if p.hasDelta {
		fmt.Fprintf(&sb, "d%d;", p.delta)
	}
	if p.hasStart {
		fmt.Fprintf(&sb, "f%d;", p.start)
	}
	if p.hasEnd {
		fmt.Fprintf(&sb, "u%d;", p.end)
	}
	return sb.String(), true
}

// UnionPlans returns the least restrictive plan matching every triangle
// that any input plan matches: component-wise, a constraint survives only
// if every plan carries it, weakened to the loosest bound (max δ, min
// From, max Until). ok is false when any plan has opaque predicates (no
// sound union exists — predicates cannot be disjoined into a pushdown
// filter). A nil result (with ok true) means the union is unrestricted.
//
// The union is what a coalesced traversal pushes down: it prunes only
// communication no member query could need, and each member re-applies its
// own full plan as a residual (WithResidual), so member results equal solo
// runs exactly — the coalesce ≡ solo property the engine tests.
func UnionPlans[EM any](plans []*Plan[EM]) (*Plan[EM], bool) {
	out := &Plan[EM]{hasDelta: true, hasStart: true, hasEnd: true}
	first := true
	for _, p := range plans {
		if p.IsEmpty() {
			return nil, true // one member is unrestricted: so is the union
		}
		if len(p.edgePreds) > 0 {
			return nil, false
		}
		if out.timeOf == nil {
			out.timeOf = p.timeOf
		}
		if !p.hasDelta {
			out.hasDelta = false
		}
		if !p.hasStart {
			out.hasStart = false
		}
		if !p.hasEnd {
			out.hasEnd = false
		}
		if first {
			out.delta, out.start, out.end = p.delta, p.start, p.end
			first = false
			continue
		}
		if p.delta > out.delta {
			out.delta = p.delta
		}
		if p.start < out.start {
			out.start = p.start
		}
		if p.end > out.end {
			out.end = p.end
		}
	}
	if first || out.IsEmpty() {
		return nil, true
	}
	return out, true
}

// residual wraps an attached analysis so it observes only triangles
// passing keep — the per-job re-restriction a coalesced traversal applies
// when it ran under a weaker union plan than the job asked for.
type residual[VM, EM any] struct {
	Attached[VM, EM]
	keep func(t *Triangle[VM, EM]) bool
}

// WithResidual returns a restricting the attached analysis to triangles
// passing keep. The engine fuses analyses with different plans into one
// traversal executed under the union plan; each analysis then sees the
// union's triangles filtered back down to its own plan, which — because
// pushed-down checks are necessary conditions only and MatchEdges is the
// full predicate — yields exactly the triangles a solo run would observe.
func WithResidual[VM, EM any](a Attached[VM, EM], keep func(t *Triangle[VM, EM]) bool) Attached[VM, EM] {
	return &residual[VM, EM]{Attached: a, keep: keep}
}

func (w *residual[VM, EM]) observe(r *ygm.Rank, t *Triangle[VM, EM]) {
	if w.keep(t) {
		w.Attached.observe(r, t)
	}
}

func (w *residual[VM, EM]) unobserve(r *ygm.Rank, t *Triangle[VM, EM]) {
	if w.keep(t) {
		w.Attached.unobserve(r, t)
	}
}
