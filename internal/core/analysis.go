package core

import (
	"fmt"

	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// The unified analysis surface. TriPoll's thesis is that counting, closure
// times, label distributions, local counts and every other triangle survey
// are just different callbacks over one enumeration engine — so the engine
// should be asked every question in one pass. An Analysis captures one
// question as a value: how to make a per-rank accumulator, how to fold a
// triangle into it, how to combine rank accumulators, and how to turn the
// combined accumulator into the final answer. Run attaches any number of
// analyses to a single survey: one dry run, one push, one pull, every
// triangle dispatched to every analysis. k fused analyses move the
// enumeration traffic once instead of k times (-exp fusion measures it),
// and because accumulators live rank-local until the final reduction, none
// of the per-triangle work crosses the transport at all.

// Analysis describes one triangle analysis as a first-class value. VM and
// EM are the surveyed graph's vertex and edge metadata types; T is both the
// per-rank accumulator and the analysis result.
//
// Observe runs on the goroutine of the rank where each triangle was
// identified, exactly like a survey Callback: it may read rank-local state
// freely but must copy anything it retains from the Triangle (the pointer
// is into reused scratch). Observe receives the rank's current accumulator
// and returns the new one — return the argument for in-place reference
// types (maps), or the updated value for value types (counters).
//
// Merge combines two rank accumulators; it must be commutative and
// associative. It may mutate and return its first argument. Merge is
// required whenever the world has more than one rank.
//
// Finalize post-processes the fully merged accumulator into the published
// result; nil means identity. It runs once, outside parallel regions, so it
// may itself use collectives or Parallel (ClusteringAnalysis does, for its
// degree pass).
type Analysis[VM, EM, T any] struct {
	// Name identifies the analysis in Result.Analyses, bench records and
	// ablation output.
	Name string
	// NewAccum returns a fresh per-rank accumulator; nil means the zero
	// value of T.
	NewAccum func() T
	// Observe folds one triangle into the rank's accumulator.
	Observe func(r *ygm.Rank, acc T, t *Triangle[VM, EM]) T
	// Merge combines two rank accumulators (commutative, associative).
	Merge func(a, b T) T
	// Finalize turns the merged accumulator into the result; nil = identity.
	Finalize func(merged T) T
}

// Bind attaches the analysis to an output destination, producing the
// opaque handle Run consumes. When Run returns, *out holds the finalized
// result. A bound handle is single-use: it carries the accumulators of one
// run.
func (a Analysis[VM, EM, T]) Bind(out *T) Attached[VM, EM] {
	return &bound[VM, EM, T]{a: a, out: out}
}

// Attached is an Analysis bound to its output, ready to fuse into a Run.
// Only Analysis.Bind produces values of this type.
type Attached[VM, EM any] interface {
	// AnalysisName returns the bound analysis's Name.
	AnalysisName() string

	validate(nranks int) error
	start(nranks int)
	observe(r *ygm.Rank, t *Triangle[VM, EM])
	reduce(r *ygm.Rank)
	finish()
}

type bound[VM, EM, T any] struct {
	a    Analysis[VM, EM, T]
	out  *T
	accs []T
	root int // slot holding the combined accumulator after reduce
}

func (b *bound[VM, EM, T]) AnalysisName() string { return b.a.Name }

// validate rejects analyses the traversal or reduction would crash on:
// a missing Observe, or a missing Merge on a multi-rank world.
func (b *bound[VM, EM, T]) validate(nranks int) error {
	if b.a.Observe == nil {
		return fmt.Errorf("core: analysis %q has no Observe", b.a.Name)
	}
	if nranks > 1 && b.a.Merge == nil {
		return fmt.Errorf("core: analysis %q has no Merge (required on a %d-rank world)", b.a.Name, nranks)
	}
	return nil
}

func (b *bound[VM, EM, T]) start(nranks int) {
	b.accs = make([]T, nranks)
	if b.a.NewAccum != nil {
		for i := range b.accs {
			b.accs[i] = b.a.NewAccum()
		}
	}
}

func (b *bound[VM, EM, T]) observe(r *ygm.Rank, t *Triangle[VM, EM]) {
	id := r.ID()
	b.accs[id] = b.a.Observe(r, b.accs[id], t)
}

// reduce tree-reduces the rank accumulators in place: lg(n) levels, each
// rank merging with its stride-partner, ygm.Rendezvous between levels (the
// same shared-address-space discipline as the ygm collectives — the pairing
// is fixed, so the result is deterministic regardless of scheduling). After
// the region, accs[root] holds the combined accumulator, where root is the
// process leader's rank (0 in a single-process world).
//
// In a multi-process world only the local span's accumulators exist in
// this address space, so the tree runs over the local span and the process
// partials are then merged across processes: each leader contributes its
// partial to an AllGather (riding gob through the world's process link)
// and merges all of them in ascending process order. Merge is commutative
// and associative, so the combined accumulator is semantically identical
// to the single-process tree — and because result serialization
// canonicalizes map-backed accumulators, byte-identical downstream.
func (b *bound[VM, EM, T]) reduce(r *ygm.Rank) {
	w := r.World()
	first, count := w.LocalSpan()
	if r.ID() == first {
		// Single writer: finish() reads root after the region's wg.Wait.
		b.root = first
	}
	for stride := 1; stride < count; stride *= 2 {
		if stride > 1 {
			ygm.Rendezvous(r)
		}
		i := r.ID() - first
		if i%(2*stride) == 0 && i+stride < count {
			b.accs[first+i] = b.a.Merge(b.accs[first+i], b.accs[first+i+stride])
		}
	}
	if !w.Distributed() {
		return
	}
	ygm.Rendezvous(r) // every process's local tree is settled
	// Cross-process merge: leaders contribute their process partial; every
	// other rank's slot gathers as untyped nil and is skipped.
	var part any
	if r.ID() == first {
		part = b.accs[first]
	}
	parts := ygm.AllGather[any](r, part)
	if r.ID() == first {
		merged := b.accs[first]
		for i, p := range parts {
			if i == first || p == nil {
				continue
			}
			merged = b.a.Merge(merged, p.(T))
		}
		b.accs[first] = merged
	}
}

func (b *bound[VM, EM, T]) finish() {
	acc := b.accs[b.root]
	if b.a.Finalize != nil {
		acc = b.a.Finalize(acc)
	}
	*b.out = acc
	b.accs = nil
}

// Run executes every attached analysis in a single fused traversal of g:
// one dry run, one push, one pull (per Options.Mode), with each enumerated
// triangle dispatched to every analysis's Observe and each analysis's
// accumulators tree-reduced afterwards. A nil or empty plan surveys every
// triangle; a non-empty plan restricts all attached analyses to
// plan-matching triangles with the plan's predicates pushed down into the
// communication phases. With no analyses Run degenerates to a pure count.
//
// Result.Analyses names the fused analyses in attachment order;
// Result.Triangles counts (plan-matching) enumerated triangles regardless
// of what the analyses observe.
//
// Call outside parallel regions. Errors are an invalid plan or a malformed
// analysis (no Observe, or no Merge on a multi-rank world).
func Run[VM, EM any](g *graph.DODGr[VM, EM], opts Options, plan *Plan[EM], analyses ...Attached[VM, EM]) (Result, error) {
	w := g.World()
	names := make([]string, len(analyses))
	for i, a := range analyses {
		if err := a.validate(w.Size()); err != nil {
			return Result{}, err
		}
		names[i] = a.AnalysisName()
		a.start(w.Size())
	}
	var cb Callback[VM, EM]
	switch len(analyses) {
	case 0:
		// Pure count: the engine maintains Result.Triangles by itself.
	case 1:
		cb = analyses[0].observe
	default:
		cb = func(r *ygm.Rank, t *Triangle[VM, EM]) {
			for _, a := range analyses {
				a.observe(r, t)
			}
		}
	}
	s, err := NewPlannedSurvey(g, opts, plan, cb)
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	res := s.Run()
	res.Analyses = names
	if len(analyses) > 0 {
		w.Parallel(func(r *ygm.Rank) {
			for _, a := range analyses {
				a.reduce(r)
			}
		})
		for _, a := range analyses {
			a.finish()
		}
	}
	return res, nil
}

// mergeCounts is the standard Merge for map-of-counters accumulators.
func mergeCounts[K comparable](a, b map[K]uint64) map[K]uint64 {
	for k, v := range b {
		a[k] += v
	}
	return a
}
