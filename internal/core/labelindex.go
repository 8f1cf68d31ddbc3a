package core

import (
	"tripoll/internal/ygm"
)

// Labeled triangle indexing (Reza et al. [45], cited in §1/§5.3): for
// interactive labeled pattern matching it pays to precompute, per edge,
// how many triangles close over that edge with each vertex label. A query
// like "triangles on (u,v) whose third vertex is labeled X" then reads one
// counter instead of intersecting adjacency lists.

// LabelIndexKey identifies one (edge, third-vertex-label) bucket.
type LabelIndexKey[VM comparable] struct {
	Edge  EdgeKey
	Label VM
}

// LabelIndex is the gathered index: counts per (edge, closing label).
type LabelIndex[VM comparable] map[LabelIndexKey[VM]]uint64

// Query returns the number of triangles over {u, v} whose third vertex
// carries label.
func (ix LabelIndex[VM]) Query(u, v uint64, label VM) uint64 {
	return ix[LabelIndexKey[VM]{Edge: CanonEdge(u, v), Label: label}]
}

// LabelIndexAnalysis builds the labeled triangle index: per-edge counts of
// triangles closing with each vertex label. VM is the vertex label type.
// Accumulators are rank-local, so no label codec is needed — labels never
// cross the transport.
func LabelIndexAnalysis[VM comparable, EM any]() Analysis[VM, EM, LabelIndex[VM]] {
	return Analysis[VM, EM, LabelIndex[VM]]{
		Name:     "labelindex",
		NewAccum: func() LabelIndex[VM] { return make(LabelIndex[VM]) },
		Observe: func(_ *ygm.Rank, acc LabelIndex[VM], t *Triangle[VM, EM]) LabelIndex[VM] {
			acc[LabelIndexKey[VM]{Edge: CanonEdge(t.P, t.Q), Label: t.MetaR}]++
			acc[LabelIndexKey[VM]{Edge: CanonEdge(t.P, t.R), Label: t.MetaQ}]++
			acc[LabelIndexKey[VM]{Edge: CanonEdge(t.Q, t.R), Label: t.MetaP}]++
			return acc
		},
		Merge: func(a, b LabelIndex[VM]) LabelIndex[VM] {
			for k, v := range b {
				a[k] += v
			}
			return a
		},
	}
}
