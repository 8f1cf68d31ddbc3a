package graph

import (
	"cmp"
	"fmt"
	"slices"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Edge is one undirected input edge with metadata. Ingestion symmetrizes:
// adding {U, V} makes both (U, V) and (V, U) visible, per §3's convention.
type Edge[EM any] struct {
	U, V uint64
	Meta EM
}

// OutEdge is one entry of a metadata-augmented out-adjacency list Adj⁺ᵐ(u):
// the target vertex, its ordering weight (needed for <+ comparisons during
// merge-path intersection — the full degree under OrderDegree, the peel
// epoch under OrderDegeneracy), the edge metadata meta(u, target), and the
// target's vertex metadata meta(target) (§4.2: storing target metadata along
// edges trades O(|E|) memory for enumerating Δpqr without visiting r).
type OutEdge[VM, EM any] struct {
	Target uint64
	TOrd   uint32
	EMeta  EM
	TMeta  VM
}

// Key returns the target's position in the <+ order.
func (o OutEdge[VM, EM]) Key() OrderKey { return KeyOf(o.TOrd, o.Target) }

// Vertex is one locally stored vertex of the DODGr: its id, full degree in
// G, ordering weight, metadata, and Adj⁺ᵐ sorted by target order key.
type Vertex[VM, EM any] struct {
	ID   uint64
	Deg  uint32 // full degree in G (Tab. 1 statistics)
	Ord  uint32 // ordering weight in <+ (== Deg under OrderDegree)
	Meta VM
	Adj  []OutEdge[VM, EM]
}

// Key returns the vertex's position in the <+ order.
func (v *Vertex[VM, EM]) Key() OrderKey { return KeyOf(v.Ord, v.ID) }

// OutDeg returns d⁺(v).
func (v *Vertex[VM, EM]) OutDeg() int { return len(v.Adj) }

// rankLocal is one rank's shard. The per-vertex Adj slices alias CSR-style
// arenas — one per build or load, a few per stream snapshot (Orienter) — so
// a survey's sequential sweep over vertices walks memory in order instead of
// chasing per-vertex allocations. Neither the table, the index nor an arena
// is written once published. The snapshot columns (off, times; see
// timecols.go) are derived from it lazily, once each.
type rankLocal[VM, EM any] struct {
	index   map[uint64]int32 // position of each vertex of verts[:indexed]
	indexed int32
	verts   []Vertex[VM, EM]

	off   []int32          // CSR offsets of verts' entries, nil until Offsets
	times []timesEntry[EM] // per accessor, in first-use order
	// inherit is what a stream snapshot keeps of the previous snapshot's
	// columns (see inheritTimes) until its first Times call; nil for a built
	// or loaded graph.
	inherit *inheritedTimes[EM]
}

// find returns the position of vertex id in the table. Vertices past the
// indexed prefix — the newcomers a stream snapshot appended — are found by
// binary search, since the table is sorted by id.
func (rl *rankLocal[VM, EM]) find(id uint64) (int32, bool) {
	if i, ok := rl.index[id]; ok {
		return i, true
	}
	k, ok := slices.BinarySearchFunc(rl.verts[rl.indexed:], id, func(v Vertex[VM, EM], id uint64) int { return cmp.Compare(v.ID, id) })
	return rl.indexed + int32(k), ok
}

// DODGr is the distributed degree-ordered directed graph G⁺ with inlined
// metadata. It is built once by a Builder and is immutable afterwards;
// surveys read it concurrently from all ranks.
type DODGr[VM, EM any] struct {
	w        *ygm.World
	part     Partitioner
	vm       serialize.Codec[VM]
	em       serialize.Codec[EM]
	ordering Ordering

	local []rankLocal[VM, EM]

	// Global figures cached at build time (identical on all ranks).
	numVertices      uint64
	numDirectedEdges uint64 // after symmetrization; Table 1's |E| convention
	numPlusEdges     uint64 // edges of G⁺ == undirected edge count
	numWedges        uint64 // |W⁺| = Σ_v C(d⁺(v), 2)
	maxDeg           uint32 // d_max
	maxOutDeg        uint32 // d_max⁺
	degeneracy       uint32 // peel level bound; 0 when built with OrderDegree
	selfLoopsDropped uint64
	multiEdgesMerged uint64
}

// World returns the communicator the graph is partitioned over.
func (g *DODGr[VM, EM]) World() *ygm.World { return g.w }

// Owner returns the rank storing vertex v.
func (g *DODGr[VM, EM]) Owner(v uint64) int { return g.part.Owner(v, g.w.Size()) }

// Partitioner returns the vertex placement the graph was built with, so
// derived structures (stream shards, rebuilt snapshots) colocate vertices
// with the original.
func (g *DODGr[VM, EM]) Partitioner() Partitioner { return g.part }

// VertexCodec returns the vertex-metadata codec.
func (g *DODGr[VM, EM]) VertexCodec() serialize.Codec[VM] { return g.vm }

// EdgeCodec returns the edge-metadata codec.
func (g *DODGr[VM, EM]) EdgeCodec() serialize.Codec[EM] { return g.em }

// LocalVertices returns rank r's vertices, sorted by id. Read-only.
func (g *DODGr[VM, EM]) LocalVertices(r *ygm.Rank) []Vertex[VM, EM] {
	return g.local[r.ID()].verts
}

// Lookup finds a locally stored vertex by id.
func (g *DODGr[VM, EM]) Lookup(r *ygm.Rank, id uint64) (*Vertex[VM, EM], bool) {
	rl := &g.local[r.ID()]
	i, ok := rl.find(id)
	if !ok {
		return nil, false
	}
	return &rl.verts[i], true
}

// LocalIndex returns the position of id within LocalVertices(r), or -1 if
// the vertex is not stored on rank r.
func (g *DODGr[VM, EM]) LocalIndex(r *ygm.Rank, id uint64) int32 {
	i, ok := g.local[r.ID()].find(id)
	if !ok {
		return -1
	}
	return i
}

// NumVertices returns |V|.
func (g *DODGr[VM, EM]) NumVertices() uint64 { return g.numVertices }

// NumDirectedEdges returns the symmetrized directed edge count (the |E|
// reported in Table 1: "the number of nonzeros in a symmetrized graph's
// adjacency matrix").
func (g *DODGr[VM, EM]) NumDirectedEdges() uint64 { return g.numDirectedEdges }

// NumUndirectedEdges returns |E|/2, which equals the number of directed
// edges in G⁺.
func (g *DODGr[VM, EM]) NumUndirectedEdges() uint64 { return g.numPlusEdges }

// NumWedges returns |W⁺|, the wedge-check work measure of §5.5.
func (g *DODGr[VM, EM]) NumWedges() uint64 { return g.numWedges }

// MaxDegree returns d_max.
func (g *DODGr[VM, EM]) MaxDegree() uint32 { return g.maxDeg }

// MaxOutDegree returns d_max⁺.
func (g *DODGr[VM, EM]) MaxOutDegree() uint32 { return g.maxOutDeg }

// Ordering returns the vertex-ordering strategy the graph was built with.
func (g *DODGr[VM, EM]) Ordering() Ordering { return g.ordering }

// Degeneracy returns the k-core peel bound measured during construction —
// the maximum level k at which any vertex was removed, an upper bound on
// every out-degree. It is 0 when the graph was built with OrderDegree (the
// peel never ran).
func (g *DODGr[VM, EM]) Degeneracy() uint32 { return g.degeneracy }

// SelfLoopsDropped reports how many self-loop insertions were discarded.
func (g *DODGr[VM, EM]) SelfLoopsDropped() uint64 { return g.selfLoopsDropped }

// MultiEdgesMerged reports how many duplicate edge insertions were merged.
func (g *DODGr[VM, EM]) MultiEdgesMerged() uint64 { return g.multiEdgesMerged }

// AsSnapshot returns g as the snapshot of its own edge set: the same shards
// (shared; both graphs are immutable), and with them the same snapshot
// columns (Offsets, Times), and figures, less the ingest tallies —
// self-loops dropped and duplicates merged — which a graph oriented from
// live edges has none of. It is what a stream materializes before its first
// mutation.
func (g *DODGr[VM, EM]) AsSnapshot() *DODGr[VM, EM] {
	s := *g
	s.selfLoopsDropped, s.multiEdgesMerged = 0, 0
	return &s
}

// CheckInvariants validates the construction on rank r's shard:
// every out-edge points <+-upward, every adjacency list is sorted and
// duplicate-free, and every vertex is owned by the correct rank. It returns
// the number of local G⁺ edges so tests can cross-check totals.
func (g *DODGr[VM, EM]) CheckInvariants(r *ygm.Rank) (plusEdges uint64, err error) {
	rl := &g.local[r.ID()]
	for i := range rl.verts {
		v := &rl.verts[i]
		if g.Owner(v.ID) != r.ID() {
			return 0, errf("vertex %d stored on rank %d but owned by %d", v.ID, r.ID(), g.Owner(v.ID))
		}
		if g.ordering == OrderDegeneracy && uint32(len(v.Adj)) > g.degeneracy {
			return 0, errf("vertex %d has out-degree %d > degeneracy bound %d", v.ID, len(v.Adj), g.degeneracy)
		}
		vk := v.Key()
		for j := range v.Adj {
			o := &v.Adj[j]
			ok := o.Key()
			if !vk.Less(ok) {
				return 0, errf("edge (%d,%d) not <+ oriented", v.ID, o.Target)
			}
			if j > 0 {
				pk := v.Adj[j-1].Key()
				if !pk.Less(ok) {
					return 0, errf("Adj+(%d) not strictly sorted at position %d", v.ID, j)
				}
			}
		}
		plusEdges += uint64(len(v.Adj))
	}
	return plusEdges, nil
}

func errf(format string, args ...any) error { return fmt.Errorf(format, args...) }
