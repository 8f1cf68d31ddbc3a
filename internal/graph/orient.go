package graph

import (
	"cmp"
	"slices"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Orienter is the one orientation stage of graph construction: from
// rank-local symmetric neighbourhoods (every undirected edge present at both
// endpoint owners, deduplicated, sorted by neighbour id) to the DODGr —
// ordering weights (the degree, or the k-core peel), the <+ orientation,
// key-sorted adjacency in one CSR arena per rank, and the global figures.
// A Builder feeds it what its ingest shuffle collected; a stream feeds it
// the live entries its shards already hold (Snapshot).
//
// Orienting v's half-edge to u needs u's ordering weight and vertex
// metadata. Same-rank neighbours are read in place; for the rest each owner
// announces one boundary record (id, ord, vmeta) per (vertex, remote rank
// owning at least one of its neighbours), packed thousands to a frame —
// never more records than one per half-edge, and on few ranks far fewer.
//
// Construct outside parallel regions (two handlers are registered); an
// Orienter may run any number of stages, one at a time.
type Orienter[VM, EM any] struct {
	w    *ygm.World
	part Partitioner
	vm   serialize.Codec[VM]
	em   serialize.Codec[EM]

	hPeel  ygm.HandlerID
	hBound ygm.HandlerID

	g  *DODGr[VM, EM] // graph of the stage in progress
	st []orientState[VM, EM]
}

type halfEdge[EM any] struct {
	nbr  uint64
	meta EM
}

// boundaryRec is what a remote owner announced about one of its vertices.
type boundaryRec[VM any] struct {
	ord  uint32
	meta VM
}

// orientState is one rank's working state for the stage in progress.
type orientState[VM, EM any] struct {
	nbrs   [][]halfEdge[EM] // neighbourhood of g.local[rank].verts[i]
	peel   peelState
	remote map[uint64]boundaryRec[VM]
	stage  []*serialize.Encoder // per destination: records awaiting a frame
	seen   []int32              // per destination: last vertex announced there, +1
	order  []int32              // Snapshot: shard vertex indices sorted by id
}

// boundaryFrameBytes is the size at which staged boundary records are sent
// as one message: a few thousand records.
const boundaryFrameBytes = 32 << 10

// NewOrienter registers the stage's handlers; call outside parallel regions.
func NewOrienter[VM, EM any](w *ygm.World, part Partitioner, vm serialize.Codec[VM], em serialize.Codec[EM]) *Orienter[VM, EM] {
	o := &Orienter[VM, EM]{w: w, part: part, vm: vm, em: em}
	o.st = make([]orientState[VM, EM], w.Size())
	for i := range o.st {
		o.st[i].remote = make(map[uint64]boundaryRec[VM])
		o.st[i].stage = make([]*serialize.Encoder, w.Size())
		o.st[i].seen = make([]int32, w.Size())
	}
	// Peel decrement: a neighbor of v was removed this subround. Buffered,
	// not applied — see peelState.pending.
	o.hPeel = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		if d.Err() != nil {
			panic("graph: corrupt peel message: " + d.Err().Error())
		}
		i, ok := o.g.local[r.ID()].index[v]
		if !ok {
			panic("graph: peel decrement for unknown vertex")
		}
		ps := &o.st[r.ID()].peel
		ps.pending = append(ps.pending, i)
	})
	o.hBound = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		st := &o.st[r.ID()]
		for d.Remaining() > 0 {
			id := d.Uvarint()
			ord := uint32(d.Uvarint())
			meta := o.vm.Decode(d)
			if d.Err() != nil {
				panic("graph: corrupt boundary record: " + d.Err().Error())
			}
			st.remote[id] = boundaryRec[VM]{ord: ord, meta: meta}
		}
	})
	return o
}

// Close releases the stage's handlers (at the end of the region when called
// inside one). The Orienter must not be used afterwards.
func (o *Orienter[VM, EM]) Close() { o.w.ReleaseHandlers(o.hPeel, o.hBound) }

// begin creates the graph the next stage fills. One caller per process.
func (o *Orienter[VM, EM]) begin() {
	o.g = &DODGr[VM, EM]{w: o.w, part: o.part, vm: o.vm, em: o.em}
	o.g.local = make([]rankLocal[VM, EM], o.w.Size())
}

// load hands rank r's input to the stage: its vertices sorted by id, with
// Deg and Ord both holding the degree, and the neighbourhood of each. A
// rank loads before it sends anything, and handlers run on the rank's own
// goroutine, so no message of the stage can find the input missing.
func (o *Orienter[VM, EM]) load(r *ygm.Rank, verts []Vertex[VM, EM], nbrs [][]halfEdge[EM]) {
	rl := &o.g.local[r.ID()]
	rl.verts = verts
	rl.index = make(map[uint64]int32, len(verts))
	for i := range verts {
		rl.index[verts[i].ID] = int32(i)
	}
	o.st[r.ID()].nbrs = nbrs
}

// orient runs the stage on rank r over the loaded input. Collective, inside
// a parallel region. selfLoops and merged are the rank's ingest tallies for
// the global figures (merged counts each duplicate at both endpoints).
func (o *Orienter[VM, EM]) orient(r *ygm.Rank, ordering Ordering, selfLoops, merged uint64) {
	g := o.g
	me, n := r.ID(), r.Size()
	rl := &g.local[me]
	st := &o.st[me]

	// Ordering pass: under OrderDegree every Ord already holds the degree;
	// OrderDegeneracy replaces Ord with the removal epoch of a distributed
	// k-core peel (the level reached is the graph's degeneracy).
	var degen uint32
	if ordering == OrderDegeneracy {
		degen = o.peelRound(r)
	}

	// Boundary exchange: announce every local vertex once to each remote
	// rank that owns one of its neighbours.
	clear(st.seen)
	for i := range rl.verts {
		v := &rl.verts[i]
		for _, h := range st.nbrs[i] {
			dest := o.part.Owner(h.nbr, n)
			if dest == me || st.seen[dest] == int32(i)+1 {
				continue
			}
			st.seen[dest] = int32(i) + 1
			e := st.stage[dest]
			if e == nil {
				e = r.Enc()
				st.stage[dest] = e
			}
			e.PutUvarint(v.ID)
			e.PutUvarint(uint64(v.Ord))
			o.vm.Encode(e, v.Meta)
			if e.Len() >= boundaryFrameBytes {
				r.Async(dest, o.hBound, e)
				st.stage[dest] = nil
			}
		}
	}
	for dest, e := range st.stage {
		if e != nil {
			r.Async(dest, o.hBound, e)
			st.stage[dest] = nil
		}
	}
	r.Barrier()

	// Orientation: Adj⁺ᵐ(v) keeps u iff v <+ u, sorted by u's order key, all
	// lists in one CSR-style arena in vertex storage order so a survey's
	// sequential sweep reads contiguous memory.
	var half int
	for i := range st.nbrs {
		half += len(st.nbrs[i])
	}
	arena := make([]OutEdge[VM, EM], 0, half/2+16)
	ends := make([]int, len(rl.verts))
	var directed, plus, wedges uint64
	var maxDeg, maxOut uint32
	for i := range rl.verts {
		v := &rl.verts[i]
		start := len(arena)
		for _, h := range st.nbrs[i] {
			var ord uint32
			var meta VM
			if o.part.Owner(h.nbr, n) == me {
				u := &rl.verts[rl.index[h.nbr]]
				ord, meta = u.Ord, u.Meta
			} else {
				rec, ok := st.remote[h.nbr]
				if !ok {
					panic("graph: neighbour never announced by its owner")
				}
				ord, meta = rec.ord, rec.meta
			}
			if Less(v.Ord, v.ID, ord, h.nbr) {
				arena = append(arena, OutEdge[VM, EM]{Target: h.nbr, TOrd: ord, EMeta: h.meta, TMeta: meta})
			}
		}
		slices.SortFunc(arena[start:], func(a, b OutEdge[VM, EM]) int { return CompareOrder(a.TOrd, a.Target, b.TOrd, b.Target) })
		ends[i] = len(arena)
		dp := uint64(len(arena) - start)
		directed += uint64(v.Deg)
		plus += dp
		wedges += dp * (dp - 1) / 2
		maxDeg = max(maxDeg, v.Deg)
		maxOut = max(maxOut, uint32(dp))
	}
	start := 0
	for i := range rl.verts {
		rl.verts[i].Adj = arena[start:ends[i]:ends[i]]
		start = ends[i]
	}
	rl.arena = arena

	// Release the stage's working memory; the boundary table is kept for
	// the next stage of a long-lived Orienter.
	st.nbrs = nil
	st.peel = peelState{}
	clear(st.remote)

	fig := ygm.AllReduceVec(r, []uint64{
		uint64(len(rl.verts)), directed, plus, wedges, selfLoops, merged,
		uint64(maxDeg), uint64(maxOut),
	}, 6)
	if me == o.w.LeaderID() {
		g.ordering = ordering
		g.numVertices = fig[0]
		g.numDirectedEdges = fig[1]
		g.numPlusEdges = fig[2]
		g.numWedges = fig[3]
		g.selfLoopsDropped = fig[4]
		g.multiEdgesMerged = fig[5] / 2
		g.maxDeg = uint32(fig[6])
		g.maxOutDeg = uint32(fig[7])
		g.degeneracy = degen
	}
}

// Snapshot orients the live, non-tombstoned entries of stream shards (one
// per rank, indexed by rank) into an immutable DODGr: the graph a Builder
// fed the shards' vertices and live edges would build, without shuffling an
// edge — the shards already hold every edge at both owners, sorted and
// deduplicated. Vertices left isolated by expiry are kept. An Orienter that
// takes snapshots serves one stream: every call passes the same shards.
// Collective; call outside parallel regions.
func (o *Orienter[VM, EM]) Snapshot(shards []*StreamShard[VM, EM], ordering Ordering) *DODGr[VM, EM] {
	o.begin()
	g := o.g
	o.w.Parallel(func(r *ygm.Rank) {
		sh := shards[r.ID()]
		st := &o.st[r.ID()]
		// Shard vertices sit in first-sight order and are never removed, so
		// the id-sorted view of the previous stage only has to take in the
		// newcomers.
		for i := len(st.order); i < len(sh.Verts); i++ {
			st.order = append(st.order, int32(i))
		}
		slices.SortFunc(st.order, func(a, b int32) int { return cmp.Compare(sh.Verts[a].ID, sh.Verts[b].ID) })
		verts := make([]Vertex[VM, EM], len(st.order))
		nbrs := make([][]halfEdge[EM], len(st.order))
		half := make([]halfEdge[EM], 0, sh.Live())
		for i, vi := range st.order {
			sv := &sh.Verts[vi]
			start := len(half)
			for j := range sv.Adj {
				if c := &sv.Adj[j]; !c.Dead {
					half = append(half, halfEdge[EM]{nbr: c.Target, meta: c.EMeta})
				}
			}
			d := uint32(len(half) - start)
			verts[i] = Vertex[VM, EM]{ID: sv.ID, Deg: d, Ord: d, Meta: sv.Meta}
			nbrs[i] = half[start:len(half):len(half)]
		}
		o.load(r, verts, nbrs)
		o.orient(r, ordering, 0, 0)
	})
	o.g = nil
	return g
}

// Degeneracy ordering weights pack (removal epoch, capped full degree):
// the epoch in the high bits makes earlier-removed vertices sort
// <+-before later ones, and the degree in the low 8 bits breaks ties
// *within* one strip subround by the paper's degree heuristic. Any
// within-subround tie-break preserves the elimination bound (a vertex
// stripped at level k has ≤ k not-yet-removed neighbors, and all of its
// <+-later neighbors are drawn from those), but large strip batches on
// skewed graphs contain many internal edges, and orienting them toward
// the higher-degree endpoint prunes wedges exactly as the degree order
// does. Epochs saturate rather than overflow: past ~16M subrounds the
// order degrades to hash tie-breaks — surveys stay correct (any total
// order does), only the out-degree bound is lost.
const (
	peelDegBits  = 8
	peelEpochMax = (1 << (32 - peelDegBits)) - 1
	peelDegMax   = (1 << peelDegBits) - 1
)

func peelWeight(epoch, deg uint32) uint32 {
	if deg > peelDegMax {
		deg = peelDegMax
	}
	return epoch<<peelDegBits | deg
}

// peelState is one rank's working state for the distributed k-core peel:
// residual degrees (neighbors not yet removed) and removal flags, indexed
// like rankLocal.verts. Decrements arriving from neighbor owners are
// buffered in pending — Async may opportunistically run handlers while
// the strip scan is mid-flight, and applying them immediately would let
// one subround observe its own removals, breaking the elimination bound.
// They are applied between the subround's barrier and the next scan.
type peelState struct {
	residual []uint32
	removed  []bool
	pending  []int32
}

// peelRound runs the round-synchronous distributed k-core peel (Matula–Beck
// smallest-last ordering, bucketed by core level) and assigns every local
// vertex its removal-epoch weight. For increasing levels k = 0, 1, 2, ...
// it repeatedly strips every vertex whose residual degree (neighbors not
// yet removed) is ≤ k; each strip subround is one global epoch, so
// vertices removed earlier sort <+-before vertices removed later
// regardless of which rank stores them. A vertex removed at level k has at
// most k not-yet-removed neighbors, hence at most k out-neighbors in G⁺;
// the largest level reached is the graph's degeneracy, which peelRound
// returns (the value is identical on every rank, since levels advance in
// lockstep through global reductions).
func (o *Orienter[VM, EM]) peelRound(r *ygm.Rank) uint32 {
	st := &o.st[r.ID()]
	rl := &o.g.local[r.ID()]
	ps := &st.peel
	n := len(rl.verts)
	ps.residual = make([]uint32, n)
	ps.removed = make([]bool, n)
	for i := range rl.verts {
		ps.residual[i] = rl.verts[i].Deg
	}
	// Worklist of not-yet-removed local vertices, compacted on removal so
	// each subround scans survivors only.
	alive := make([]int32, n)
	for i := range alive {
		alive[i] = int32(i)
	}

	remaining := ygm.AllReduceSum(r, uint64(n))
	var epoch, level, maxLevel uint32
	for remaining > 0 {
		var removedNow uint64
		kept := alive[:0]
		for _, i := range alive {
			if ps.residual[i] > level {
				kept = append(kept, i)
				continue
			}
			ps.removed[i] = true
			rl.verts[i].Ord = peelWeight(epoch, rl.verts[i].Deg)
			removedNow++
			for _, h := range st.nbrs[i] {
				e := r.Enc()
				e.PutUvarint(h.nbr)
				r.Async(o.part.Owner(h.nbr, r.Size()), o.hPeel, e)
			}
		}
		alive = kept
		r.Barrier() // every decrement of this subround is now buffered
		for _, i := range ps.pending {
			if !ps.removed[i] && ps.residual[i] > 0 {
				ps.residual[i]--
			}
		}
		ps.pending = ps.pending[:0]
		if epoch < peelEpochMax {
			epoch++
		}
		tot := ygm.AllReduceSum(r, removedNow)
		if tot > 0 {
			remaining -= tot
			maxLevel = level
			continue // same level until it stops stripping
		}
		// Level exhausted with vertices left: jump straight to the smallest
		// surviving residual degree (skipping guaranteed-empty levels; no
		// decrements were sent this subround, so residuals are settled and
		// the global minimum exceeds the current level).
		localMin := ^uint64(0)
		for _, i := range alive {
			if uint64(ps.residual[i]) < localMin {
				localMin = uint64(ps.residual[i])
			}
		}
		level = uint32(ygm.AllReduce(r, localMin, func(a, c uint64) uint64 {
			if a < c {
				return a
			}
			return c
		}))
	}
	return maxLevel
}
