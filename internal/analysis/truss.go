// Package analysis implements downstream consumers of triangle surveys —
// the applications the paper cites as motivation for local triangle
// counting (§1, §5.3): k-truss decomposition [15] and triangle-based graph
// summaries. The distributed survey produces the per-edge counts; the
// decomposition itself is the standard single-machine peeling
// post-processing step.
//
// There is one peel (csr.peel in kernel.go) and every truss answer in the
// repository — distributed analyses, serial reference, maintained index —
// goes through it. This file is its entry points: Decompose and Peel in
// the kernel's dense form (Trussness), and the map-shaped functions the
// public API has always exported, which are thin wrappers over them.
package analysis

import (
	"cmp"
	"math"
	"slices"
)

// Edge is an undirected edge with canonical ordering (U < V).
type Edge struct {
	U, V uint64
}

// Canon returns the canonical form of {u, v}.
func Canon(u, v uint64) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// Compare orders edges ascending by (U, V) — the kernel's input order.
func (e Edge) Compare(o Edge) int {
	if c := cmp.Compare(e.U, o.U); c != 0 {
		return c
	}
	return cmp.Compare(e.V, o.V)
}

// Trussness is a truss decomposition in the kernel's dense form: the unique
// canonical edges in ascending (U, V) order and, parallel to them, each
// edge's trussness — the largest k such that the edge belongs to the
// k-truss (the maximal subgraph where every edge supports at least k−2
// triangles). Triangle-free edges have trussness 2.
type Trussness struct {
	Edges []Edge
	K     []int32
}

// Max returns the largest trussness present (0 for an empty graph).
func (t Trussness) Max() int {
	max := int32(0)
	for _, k := range t.K {
		if k > max {
			max = k
		}
	}
	return int(max)
}

// Sizes returns the k-truss sizes indexed by k, up to Max: Sizes()[k] is
// how many edges have trussness ≥ k. One histogram and a suffix sum.
func (t Trussness) Sizes() []int {
	sizes := make([]int, t.Max()+1)
	for _, k := range t.K {
		sizes[k]++
	}
	suffixSum(sizes)
	return sizes
}

func suffixSum(hist []int) {
	for k := len(hist) - 2; k >= 0; k-- {
		hist[k] += hist[k+1]
	}
}

// Map returns the decomposition keyed by edge.
func (t Trussness) Map() map[Edge]int {
	out := make(map[Edge]int, len(t.Edges))
	for i, e := range t.Edges {
		out[e] = int(t.K[i])
	}
	return out
}

// SupportOf converts a triangle count to the kernel's support type,
// saturating.
func SupportOf(count uint64) int32 {
	if count > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(count)
}

// isNormal reports whether edges is already the kernel's input form:
// canonical, self-loop-free and strictly ascending by (U, V).
func isNormal(edges []Edge) bool {
	for i, e := range edges {
		if e.U >= e.V || (i > 0 && edges[i-1].Compare(e) >= 0) {
			return false
		}
	}
	return true
}

// normalize canonicalizes, drops self-loops, sorts and dedupes an edge
// list; input already in that form is returned as is.
func normalize(edges []Edge) []Edge {
	if isNormal(edges) {
		return edges
	}
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		if e.U != e.V {
			out = append(out, Canon(e.U, e.V))
		}
	}
	slices.SortFunc(out, Edge.Compare)
	return slices.Compact(out)
}

// Decompose computes the trussness of every edge of the undirected simple
// graph underlying edges (any order; duplicates and self-loops dropped),
// counting each edge's initial support from the topology. Input already
// canonical, self-loop-free and strictly ascending is not copied: the
// result's Edges is then the argument itself, which the caller must not
// modify while the result is in use.
func Decompose(edges []Edge) Trussness {
	es := normalize(edges)
	c := buildCSR(es)
	sup := c.supports()
	c.peel(sup)
	return Trussness{Edges: es, K: sup}
}

// Peel decomposes with externally supplied initial supports (the per-edge
// triangle counts a distributed survey observed, or a maintained
// triangle-span index's window sums) instead of recounting common
// neighborhoods. edges must be canonical, self-loop-free and strictly
// ascending by (U, V); support[i] belongs to edges[i]. Both slices are
// retained by the result, support overwritten with the trussness.
//
// When the supports equal the topology's true triangle counts the result is
// identical to Decompose — the peel itself is shared. Supports may also
// under-count the topology (δ-constrained windows) or over-count it: a
// peeled edge decrements the other two edges of every topological triangle
// still alive, never below the current level, whether or not that triangle
// was in their supplied count. Supports are clamped to [0, len(edges)]; no
// edge of an m-edge graph lies in more than (m−1)/2 triangles, so the clamp
// only bounds the bucket array against corrupt counts.
func Peel(edges []Edge, support []int32) Trussness {
	if len(support) != len(edges) || !isNormal(edges) {
		panic("analysis: Peel needs canonical, strictly ascending edges with one support each")
	}
	buildCSR(edges).peel(support)
	return Trussness{Edges: edges, K: support}
}

// TrussDecomposition computes the trussness of every edge; see Decompose,
// whose result it returns keyed by edge.
func TrussDecomposition(edges []Edge) map[Edge]int {
	return Decompose(edges).Map()
}

// TrussFromSupports is Peel for an arbitrary edge list and map-keyed
// counts (edges absent from counts have support 0).
func TrussFromSupports(edges []Edge, counts map[Edge]uint64) map[Edge]int {
	es := normalize(edges)
	sup := make([]int32, len(es))
	for i, e := range es {
		sup[i] = SupportOf(counts[e])
	}
	return Peel(es, sup).Map()
}

// TrussFromEdgeCounts decomposes from the topology and verifies externally
// computed per-edge triangle counts (e.g. from the distributed
// EdgeCountAnalysis survey) against it, returning the number of edges whose
// count disagrees. This is the integration point between the distributed
// survey and the decomposition.
func TrussFromEdgeCounts(edges []Edge, counts map[Edge]uint64) (map[Edge]int, int) {
	es := normalize(edges)
	c := buildCSR(es)
	sup := c.supports()
	disagreements := 0
	for i, e := range es {
		if counts[e] != uint64(sup[i]) {
			disagreements++
		}
	}
	c.peel(sup)
	return Trussness{Edges: es, K: sup}.Map(), disagreements
}

// MaxTruss returns the largest trussness value present.
func MaxTruss(trussness map[Edge]int) int {
	max := 0
	for _, k := range trussness {
		if k > max {
			max = k
		}
	}
	return max
}

// TrussSizes returns, for each k from 2 to the maximum trussness, how many
// edges have trussness ≥ k (the size of the k-truss).
func TrussSizes(trussness map[Edge]int) map[int]int {
	hist := make([]int, MaxTruss(trussness)+1)
	for _, k := range trussness {
		if k >= 0 {
			hist[k]++
		}
	}
	suffixSum(hist)
	out := make(map[int]int, len(hist))
	for k := 2; k < len(hist); k++ {
		out[k] = hist[k]
	}
	return out
}
