package ygm

// Collectives provide the small set of synchronous operations the paper's
// algorithms need around the asynchronous core: the All_Reduce of Alg. 2
// line 4, gathers for result collection, and broadcasts of configuration.
//
// All ranks must call a collective in the same order (standard SPMD
// discipline). Collectives must not be called from handlers.
//
// Within a process the ranks share an address space, so the implementation
// exchanges values through a slot array guarded by rendezvous. In a
// multi-process world the process leaders additionally run one link
// Exchange round so every process sees every slot (remote values ride gob
// — see NewDistWorld). Each rank then computes the reduction independently
// over the same slot order, so results are bit-identical across ranks and
// processes regardless of scheduling.

// AllReduce combines every rank's contribution with op and returns the
// result on all ranks. op must be associative; evaluation order is fixed
// (rank 0 upward) so non-commutative ops are still deterministic.
func AllReduce[T any](r *Rank, x T, op func(a, b T) T) T {
	w := r.world
	w.shared[r.id] = x
	w.gatherSlots(r)
	acc := w.shared[0].(T)
	for i := 1; i < w.n; i++ {
		acc = op(acc, w.shared[i].(T))
	}
	w.barrier.await()
	return acc
}

// AllReduceSum is AllReduce with addition for the common counter case.
func AllReduceSum(r *Rank, x uint64) uint64 {
	return AllReduce(r, x, func(a, b uint64) uint64 { return a + b })
}

// AllReduceMax returns the maximum across ranks.
func AllReduceMax(r *Rank, x uint64) uint64 {
	return AllReduce(r, x, func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllReduceVec reduces a vector of counters in one exchange: elements
// [0, nsum) are summed across ranks, the rest are maxed. Every rank passes a
// vector of the same length. It is how a stage that settles many figures at
// once (a survey's Result, a build's global figures) pays for one link
// round in a multi-process world instead of one per figure.
func AllReduceVec(r *Rank, x []uint64, nsum int) []uint64 {
	w := r.world
	w.shared[r.id] = x
	w.gatherSlots(r)
	out := make([]uint64, len(x))
	for i := 0; i < w.n; i++ {
		for k, v := range w.shared[i].([]uint64) {
			if k < nsum {
				out[k] += v
			} else if v > out[k] {
				out[k] = v
			}
		}
	}
	w.barrier.await()
	return out
}

// AllGather returns every rank's contribution, indexed by rank, on all
// ranks.
func AllGather[T any](r *Rank, x T) []T {
	w := r.world
	w.shared[r.id] = x
	w.gatherSlots(r)
	out := make([]T, w.n)
	for i := 0; i < w.n; i++ {
		// An any-typed gather may legitimately carry nil contributions
		// (e.g. non-leader ranks in a cross-process reduction); a bare
		// assertion would panic converting untyped nil even to `any`.
		if v := w.shared[i]; v != nil {
			out[i] = v.(T)
		}
	}
	w.barrier.await()
	return out
}

// Broadcast returns root's value on every rank. In a multi-process world
// only root's slot carries a value across the link; other ranks contribute
// nothing.
func Broadcast[T any](r *Rank, x T, root int) T {
	w := r.world
	if r.id == root {
		w.shared[root] = x
	} else if w.link != nil {
		// A distributed exchange ships every local slot; a stale value from
		// a previous collective must not ride along (it may not even be
		// gob-encodable).
		w.shared[r.id] = nil
	}
	w.gatherSlots(r)
	out := w.shared[root].(T)
	w.barrier.await()
	return out
}

// Rendezvous is a plain synchronization barrier with no quiescence
// semantics: it does not flush buffers or process messages. Use Barrier for
// the termination-detecting variant. In a multi-process world it
// synchronizes every rank of every process.
func Rendezvous(r *Rank) {
	r.world.syncRanks(r)
}
