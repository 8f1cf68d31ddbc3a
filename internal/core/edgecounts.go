package core

import (
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// EdgeKey canonically names an undirected edge (smaller endpoint first).
type EdgeKey = serialize.Pair[uint64, uint64]

// CanonEdge returns the canonical key for {u, v}.
func CanonEdge(u, v uint64) EdgeKey {
	if u > v {
		u, v = v, u
	}
	return EdgeKey{First: u, Second: v}
}

// EdgeCountAnalysis accumulates per-edge triangle participation counts —
// the quantity truss decomposition consumes (§5.3: "distributed versions of
// computing truss decompositions, where counts of triangles are desired at
// edges"), keyed by canonical edge.
func EdgeCountAnalysis[VM, EM any]() Analysis[VM, EM, map[EdgeKey]uint64] {
	return Analysis[VM, EM, map[EdgeKey]uint64]{
		Name:     "edgecounts",
		NewAccum: func() map[EdgeKey]uint64 { return make(map[EdgeKey]uint64) },
		Observe: func(_ *ygm.Rank, acc map[EdgeKey]uint64, t *Triangle[VM, EM]) map[EdgeKey]uint64 {
			acc[CanonEdge(t.P, t.Q)]++
			acc[CanonEdge(t.P, t.R)]++
			acc[CanonEdge(t.Q, t.R)]++
			return acc
		},
		Merge: mergeCounts[EdgeKey],
	}
}
