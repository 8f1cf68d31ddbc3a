package graph

import (
	"slices"
	"sort"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Builder performs distributed graph construction. Usage (SPMD, inside one
// or more parallel regions):
//
//	b := graph.NewBuilder(w, vmCodec, emCodec, opts)   // outside regions
//	w.Parallel(func(r *ygm.Rank) {
//	    for each locally produced edge { b.AddEdge(r, u, v, em) }
//	    for each locally produced vertex { b.SetVertexMeta(r, v, vm) }
//	    g = b.Build(r)                                  // collective
//	})
//
// Build runs the construction pipeline of §4.2:
//
//  1. ingestion routes each undirected edge to both endpoint owners
//     (symmetrization), merging duplicate edges with MergeEdgeMeta — the
//     keep-chronologically-first reduction §5.2 applies to Reddit is
//     MergeEdgeMeta = min-by-timestamp;
//  2. every owner now holds the deduplicated symmetric neighbourhoods of its
//     vertices, and with them d(u); the shared orientation stage (Orienter)
//     takes it from there: ordering weights, one boundary record per
//     (vertex, remote neighbour-owning rank), Adj⁺ᵐ(v) keeping u iff v <+ u —
//     every undirected edge lands in G⁺ exactly once, at its <+-smaller
//     endpoint — sorted by target order key, and the global figures (|V|,
//     |E|, |W⁺|, d_max, d_max⁺).
//
// A Builder is one-shot: Build releases the handlers NewBuilder registered.
type Builder[VM, EM any] struct {
	w    *ygm.World
	part Partitioner
	vm   serialize.Codec[VM]
	em   serialize.Codec[EM]
	opts BuilderOptions[EM]

	ingest []ingestState[VM, EM]
	hEdge  ygm.HandlerID
	hVMeta ygm.HandlerID
	orient *Orienter[VM, EM]
}

// BuilderOptions configures construction.
type BuilderOptions[EM any] struct {
	// Partitioner places vertices on ranks; nil selects HashPartition.
	Partitioner Partitioner
	// Ordering selects the vertex order <+ that orients G into G⁺. The
	// zero value is OrderDegree, the paper's choice; OrderDegeneracy runs
	// an extra distributed k-core peel during Build and bounds every
	// out-degree by the graph's degeneracy.
	Ordering Ordering
	// MergeEdgeMeta combines metadata when the same undirected edge is
	// inserted more than once (multigraph reduction). It must be
	// commutative and associative so the result is independent of message
	// arrival order. Nil keeps an arbitrary duplicate's metadata.
	MergeEdgeMeta func(a, b EM) EM
}

type ingestState[VM, EM any] struct {
	half      map[uint64][]halfEdge[EM]
	vmeta     map[uint64]VM
	selfLoops uint64
	merged    uint64
}

// NewBuilder creates a builder; must be called outside parallel regions.
func NewBuilder[VM, EM any](w *ygm.World, vm serialize.Codec[VM], em serialize.Codec[EM], opts BuilderOptions[EM]) *Builder[VM, EM] {
	if opts.Partitioner == nil {
		opts.Partitioner = HashPartition{}
	}
	b := &Builder[VM, EM]{w: w, part: opts.Partitioner, vm: vm, em: em, opts: opts}
	b.ingest = make([]ingestState[VM, EM], w.Size())
	for i := range b.ingest {
		b.ingest[i].half = make(map[uint64][]halfEdge[EM])
		b.ingest[i].vmeta = make(map[uint64]VM)
	}
	b.hEdge = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		u := d.Uvarint()
		v := d.Uvarint()
		em := b.em.Decode(d)
		if d.Err() != nil {
			panic("graph: corrupt edge message: " + d.Err().Error())
		}
		st := &b.ingest[r.ID()]
		st.half[u] = append(st.half[u], halfEdge[EM]{nbr: v, meta: em})
	})
	b.hVMeta = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		vm := b.vm.Decode(d)
		if d.Err() != nil {
			panic("graph: corrupt vertex-meta message: " + d.Err().Error())
		}
		b.ingest[r.ID()].vmeta[v] = vm
	})
	b.orient = NewOrienter(w, b.part, vm, em)
	return b
}

// AddEdge inserts the undirected edge {u, v} with metadata em. Self-loops
// are dropped (and counted). May be called from any rank; ownership routing
// is handled here.
func (b *Builder[VM, EM]) AddEdge(r *ygm.Rank, u, v uint64, em EM) {
	if u == v {
		b.ingest[r.ID()].selfLoops++
		return
	}
	b.sendHalf(r, u, v, em)
	b.sendHalf(r, v, u, em)
}

func (b *Builder[VM, EM]) sendHalf(r *ygm.Rank, u, v uint64, em EM) {
	e := r.Enc()
	e.PutUvarint(u)
	e.PutUvarint(v)
	b.em.Encode(e, em)
	r.Async(b.part.Owner(u, r.Size()), b.hEdge, e)
}

// SetVertexMeta records metadata for vertex v. Vertices never named by
// SetVertexMeta carry the zero value of VM.
func (b *Builder[VM, EM]) SetVertexMeta(r *ygm.Rank, v uint64, vm VM) {
	e := r.Enc()
	e.PutUvarint(v)
	b.vm.Encode(e, vm)
	r.Async(b.part.Owner(v, r.Size()), b.hVMeta, e)
}

// Build completes construction collectively and returns the immutable
// DODGr. All ranks must call it; every rank receives the same graph object.
// The builder must not be reused afterwards.
func (b *Builder[VM, EM]) Build(r *ygm.Rank) *DODGr[VM, EM] {
	r.Barrier() // ingestion settled everywhere

	// The process leader creates the shared graph object: in a
	// single-process world that is rank 0 (the historical behavior), in a
	// multi-process world every process builds its own DODGr holding its
	// local shards, with the global figures identical everywhere by virtue
	// of coming from a collective.
	lead := r.ID() == b.w.LeaderID()
	if lead {
		b.orient.begin()
	}
	ygm.Rendezvous(r)

	// Local pass: collapse the half-edge multimap into deduplicated,
	// degree-known vertex records sorted by id (deterministic layout).
	st := &b.ingest[r.ID()]
	ids := make([]uint64, 0, len(st.half)+len(st.vmeta))
	for u := range st.half {
		ids = append(ids, u)
	}
	for u := range st.vmeta {
		if _, ok := st.half[u]; !ok {
			ids = append(ids, u) // isolated vertex with explicit metadata
		}
	}
	slices.Sort(ids)

	verts := make([]Vertex[VM, EM], len(ids))
	nbrs := make([][]halfEdge[EM], len(ids))
	var merged uint64
	for i, u := range ids {
		hs := st.half[u]
		sort.Slice(hs, func(a, c int) bool { return hs[a].nbr < hs[c].nbr })
		// Dedup-merge runs of the same neighbor.
		out := hs[:0]
		for _, h := range hs {
			if n := len(out); n > 0 && out[n-1].nbr == h.nbr {
				merged++
				if b.opts.MergeEdgeMeta != nil {
					out[n-1].meta = b.opts.MergeEdgeMeta(out[n-1].meta, h.meta)
				}
				continue
			}
			out = append(out, h)
		}
		nbrs[i] = out
		d := uint32(len(out))
		verts[i] = Vertex[VM, EM]{ID: u, Deg: d, Ord: d, Meta: st.vmeta[u]}
	}
	b.orient.load(r, verts, nbrs)
	// Each undirected edge is seen at both endpoints, so merged duplicates
	// are double-counted across the world; the stage halves the global sum.
	b.orient.orient(r, b.opts.Ordering, st.selfLoops, merged)
	st.half = nil
	st.vmeta = nil

	g := b.orient.g
	if lead {
		b.w.ReleaseHandlers(b.hEdge, b.hVMeta)
		b.orient.Close()
	}
	ygm.Rendezvous(r) // the leader's figures are written before anyone reads them
	return g
}
