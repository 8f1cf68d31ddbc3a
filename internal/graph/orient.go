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
// ordering weights (the degree, its class, or the k-core peel), the <+
// orientation, key-sorted adjacency lists, and the global figures. A Builder
// feeds it what its ingest shuffle collected; a stream feeds it the live
// entries its shards already hold (Snapshot).
//
// A stage decides the orientation of the half-edges that changed since the
// previous stage, and of nothing else. A vertex whose ordering weight moved
// (or that is new) rebuilds its list from its whole neighbourhood and names
// itself to every neighbour, whose lists carry its weight; any other vertex
// with a changed half-edge, or a moved neighbour, patches its previous list
// with just those; every other vertex keeps the Adj slice the previous stage
// published. A published slice is never written again, so earlier graphs
// stay byte-identical. The first stage of an Orienter (every Builder's only
// one) and every OrderDegeneracy stage rebuild every list.
//
// Orienting v's half-edge to u needs u's ordering weight and vertex
// metadata. Same-rank neighbours are read in place; for the rest a changed
// vertex announces one boundary record (id, ord, vmeta, moved-weight
// neighbours) per remote rank that may lack it, packed thousands to a frame.
// The records are kept across stages: a vertex that did not move still has
// its last record at every rank owning one of its neighbours.
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

	g        *DODGr[VM, EM] // graph of the stage in progress
	oriented uint64         // half-edges the last stage oriented, world-wide
	st       []orientState[VM, EM]
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

// Stage marks, per vertex of the table.
const (
	markDirty uint8 = 1 << iota // a half-edge of its own changed: announce, patch
	markMoved                   // new, or its weight moved: announce to all, rebuild
	markFlag                    // a neighbour's weight moved: patch
)

// redoItem is one list the stage re-orients: table position v, and the
// span of the stage's patch entries that name its changed half-edges.
type redoItem struct{ v, lo, hi int32 }

// orientState is one rank's state: the input of the stage in progress, and
// what a stream's stages carry from one to the next.
type orientState[VM, EM any] struct {
	mark  []uint8              // per table vertex: stage marks
	patch []halfRef            // (table position, neighbour) half-edges to decide again
	nbrs  [][]halfEdge[EM]     // Builder: neighbourhood of each table vertex
	shard *StreamShard[VM, EM] // Snapshot: the shard the table mirrors
	order []int32              // Snapshot: table position → shard vertex index
	pos   []int32              // Snapshot: shard vertex index → table position
	half  []halfEdge[EM]       // Snapshot: adjacency scratch
	peel  peelState

	stage []*serialize.Encoder // per destination: records awaiting a frame
	seen  []int32              // per destination: last vertex announced there, +1
	dests []int                // destinations of the vertex being announced
	lists [][]uint64           // per destination: neighbours a moved vertex names there
	redo  []redoItem
	ends  []int // arena end of each redo list

	// Carried across stages.
	remote      map[uint64]boundaryRec[VM] // every remote neighbour's last record
	stages      int
	last        rankLocal[VM, EM] // the table the last stage published
	arena       int               // out-entries written outside the base arena since it was laid
	compact     bool              // the next stage lays a new base arena
	compactions int
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
		o.st[i].lists = make([][]uint64, w.Size())
	}
	// Peel decrement: a neighbor of v was removed this subround. Buffered,
	// not applied — see peelState.pending.
	o.hPeel = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		if d.Err() != nil {
			panic("graph: corrupt peel message: " + d.Err().Error())
		}
		ps := &o.st[r.ID()].peel
		ps.pending = append(ps.pending, o.localIndex(r, v))
	})
	o.hBound = w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		st := &o.st[r.ID()]
		for d.Remaining() > 0 {
			id := d.Uvarint()
			ord := uint32(d.Uvarint())
			meta := o.vm.Decode(d)
			k := d.Uvarint()
			if d.Err() != nil {
				panic("graph: corrupt boundary record: " + d.Err().Error())
			}
			st.remote[id] = boundaryRec[VM]{ord: ord, meta: meta}
			for ; k > 0; k-- {
				u := d.Uvarint()
				if d.Err() != nil {
					panic("graph: corrupt boundary record: " + d.Err().Error())
				}
				st.flag(o.localIndex(r, u), id)
			}
		}
	})
	return o
}

// localIndex is the table position of a vertex rank r stores.
func (o *Orienter[VM, EM]) localIndex(r *ygm.Rank, v uint64) int32 {
	i, ok := o.g.local[r.ID()].find(v)
	if !ok {
		panic("graph: orientation message names a vertex its rank does not store")
	}
	return i
}

func compareHalfRef(a, b halfRef) int {
	if a.v != b.v {
		return cmp.Compare(a.v, b.v)
	}
	return cmp.Compare(a.nbr, b.nbr)
}

// reach adds dest to the ranks table vertex i announces itself to.
func (st *orientState[VM, EM]) reach(i, dest int) {
	if st.seen[dest] != int32(i)+1 {
		st.seen[dest] = int32(i) + 1
		st.dests = append(st.dests, dest)
	}
}

// flag queues table vertex i's half-edge to nbr, whose weight moved.
func (st *orientState[VM, EM]) flag(i int32, nbr uint64) {
	st.mark[i] |= markFlag
	st.patch = append(st.patch, halfRef{i, nbr})
}

// Close releases the stage's handlers (at the end of the region when called
// inside one). The Orienter must not be used afterwards.
func (o *Orienter[VM, EM]) Close() { o.w.ReleaseHandlers(o.hPeel, o.hBound) }

// Compactions counts the stages in which a rank of this process copied
// every list into a new base arena, because the lists written since it
// laid the last one outnumbered its live out-entries.
func (o *Orienter[VM, EM]) Compactions() int {
	n := 0
	for i := range o.st {
		n += o.st[i].compactions
	}
	return n
}

// begin creates the graph the next stage fills. One caller per process.
func (o *Orienter[VM, EM]) begin() {
	o.g = &DODGr[VM, EM]{w: o.w, part: o.part, vm: o.vm, em: o.em}
	o.g.local = make([]rankLocal[VM, EM], o.w.Size())
}

// load hands rank r's Builder input to the stage: its vertices sorted by id
// with Deg holding the degree, and the neighbourhood of each. A rank loads
// before it sends anything, and handlers run on the rank's own goroutine, so
// no message of the stage can find the input missing.
func (o *Orienter[VM, EM]) load(r *ygm.Rank, verts []Vertex[VM, EM], nbrs [][]halfEdge[EM]) {
	rl := &o.g.local[r.ID()]
	rl.verts = verts
	rl.index = make(map[uint64]int32, len(verts))
	for i := range verts {
		rl.index[verts[i].ID] = int32(i)
	}
	rl.indexed = int32(len(verts))
	st := &o.st[r.ID()]
	st.nbrs = nbrs
	st.mark = make([]uint8, len(verts))
}

// adjacency returns table vertex i's neighbourhood: the Builder's list, or
// the live entries of the shard vertex it mirrors, copied into scratch that
// the next call reuses.
func (st *orientState[VM, EM]) adjacency(i int32) []halfEdge[EM] {
	if st.shard == nil {
		return st.nbrs[i]
	}
	sv := &st.shard.Verts[st.order[i]]
	st.half = st.half[:0]
	for j := range sv.Adj {
		if c := &sv.Adj[j]; !c.Dead {
			st.half = append(st.half, halfEdge[EM]{nbr: c.Target, meta: c.EMeta})
		}
	}
	return st.half
}

// orient runs the stage on rank r over the loaded table. Collective, inside
// a parallel region. selfLoops and merged are the rank's ingest tallies for
// the global figures (merged counts each duplicate at both endpoints).
func (o *Orienter[VM, EM]) orient(r *ygm.Rank, ordering Ordering, selfLoops, merged uint64) {
	g := o.g
	me := r.ID()
	rl := &g.local[me]
	st := &o.st[me]
	// The first stage has no previous lists, and a peel can move any
	// weight: both rebuild everything. Every rank runs the same stages, so
	// every rank agrees. A compaction is one rank's own choice.
	everything := st.stages == 0 || ordering == OrderDegeneracy
	compact := st.compact && !everything
	if compact {
		st.compactions++
	}
	st.stages++

	// Ordering pass. Under OrderDegree and OrderDegreeClass a weight is a
	// function of the vertex's own degree, so only a changed vertex's can
	// move; OrderDegeneracy replaces every weight with the removal epoch of
	// a distributed k-core peel (the level reached is the graph's
	// degeneracy).
	for i := range rl.verts {
		v := &rl.verts[i]
		if w := ordering.weight(v.Deg); everything || w != v.Ord {
			v.Ord = w
			st.mark[i] |= markDirty | markMoved
		}
	}
	var degen uint32
	if ordering == OrderDegeneracy {
		degen = o.peelRound(r)
	}

	o.announce(r, everything)
	slices.SortFunc(st.patch, compareHalfRef)
	arena, oriented := o.reorient(r, everything, compact)

	// Publish: the figures from one scan of the table.
	var directed, plus, wedges uint64
	var maxDeg, maxOut uint32
	for i := range rl.verts {
		v := &rl.verts[i]
		dp := uint64(len(v.Adj))
		directed += uint64(v.Deg)
		plus += dp
		wedges += dp * (dp - 1) / 2
		maxDeg = max(maxDeg, v.Deg)
		maxOut = max(maxOut, uint32(dp))
	}
	if everything || compact {
		st.arena = 0
	} else {
		st.arena += arena
	}
	// Each list written since the base arena was laid superseded one there
	// (or grew the rank): once they outnumber the live entries, the next
	// stage copies every list into one new base — the StreamShard tombstone
	// rule, which bounds what earlier snapshots pin and keeps a survey's
	// sweep over the rank's lists within a few arenas.
	st.compact = uint64(st.arena) > plus
	st.last = *rl

	// Release the stage's working memory; the boundary table is kept for
	// the next stage.
	st.nbrs = nil
	st.mark = nil
	st.patch = st.patch[:0]
	st.peel = peelState{}

	fig := ygm.AllReduceVec(r, []uint64{
		uint64(len(rl.verts)), directed, plus, wedges, selfLoops, merged, oriented,
		uint64(maxDeg), uint64(maxOut),
	}, 7)
	if me == o.w.LeaderID() {
		g.ordering = ordering
		g.numVertices = fig[0]
		g.numDirectedEdges = fig[1]
		g.numPlusEdges = fig[2]
		g.numWedges = fig[3]
		g.selfLoopsDropped = fig[4]
		g.multiEdgesMerged = fig[5] / 2
		o.oriented = fig[6]
		g.maxDeg = uint32(fig[7])
		g.maxOutDeg = uint32(fig[8])
		g.degeneracy = degen
	}
}

// announce is the boundary exchange. A moved vertex announces itself once
// to each remote rank owning one of its live neighbours and names those
// neighbours there (flagging its local ones); a vertex with changed
// half-edges only to the owners of their far ends, which may have gained
// it as a neighbour. A stage that rebuilds everything names no one.
func (o *Orienter[VM, EM]) announce(r *ygm.Rank, everything bool) {
	me, n := r.ID(), r.Size()
	rl := &o.g.local[me]
	st := &o.st[me]
	clear(st.seen)
	changed := len(st.patch) // the shard's half-edges, sorted; flags append past them
	p := 0
	for i := range rl.verts {
		lo := p
		for p < changed && st.patch[p].v == int32(i) {
			p++
		}
		if st.mark[i]&markDirty == 0 {
			continue
		}
		v := &rl.verts[i]
		if st.mark[i]&markMoved != 0 {
			for _, h := range st.adjacency(int32(i)) {
				dest := o.part.Owner(h.nbr, n)
				switch {
				case dest != me:
					st.reach(i, dest)
					if !everything {
						st.lists[dest] = append(st.lists[dest], h.nbr)
					}
				case !everything:
					u, _ := rl.find(h.nbr)
					st.flag(u, v.ID)
				}
			}
		} else {
			for k := lo; k < p; k++ {
				if dest := o.part.Owner(st.patch[k].nbr, n); dest != me {
					st.reach(i, dest)
				}
			}
		}
		for _, dest := range st.dests {
			e := st.stage[dest]
			if e == nil {
				e = r.Enc()
				st.stage[dest] = e
			}
			e.PutUvarint(v.ID)
			e.PutUvarint(uint64(v.Ord))
			o.vm.Encode(e, v.Meta)
			e.PutUvarint(uint64(len(st.lists[dest])))
			for _, u := range st.lists[dest] {
				e.PutUvarint(u)
			}
			st.lists[dest] = st.lists[dest][:0]
			if e.Len() >= boundaryFrameBytes {
				r.Async(dest, o.hBound, e)
				st.stage[dest] = nil
			}
		}
		st.dests = st.dests[:0]
	}
	for dest, e := range st.stage {
		if e != nil {
			r.Async(dest, o.hBound, e)
			st.stage[dest] = nil
		}
	}
	r.Barrier()
}

// reorient rebuilds or patches every marked list into one new CSR-style
// arena in vertex storage order: Adj⁺ᵐ(v) keeps u iff v <+ u, sorted by u's
// order key. Every list is rebuilt when everything is set; when compact is,
// the unmarked lists are copied into the arena too, so a survey's sequential
// sweep reads contiguous memory again. It returns the arena's length and the
// half-edges it decided.
func (o *Orienter[VM, EM]) reorient(r *ygm.Rank, everything, compact bool) (int, uint64) {
	me, n := r.ID(), r.Size()
	rl := &o.g.local[me]
	st := &o.st[me]
	target := func(u uint64) (uint32, VM) {
		if o.part.Owner(u, n) == me {
			i, _ := rl.find(u)
			return rl.verts[i].Ord, rl.verts[i].Meta
		}
		rec, ok := st.remote[u]
		if !ok {
			panic("graph: neighbour never announced by its owner")
		}
		return rec.ord, rec.meta
	}

	st.redo = st.redo[:0]
	if everything || compact {
		st.redo = slices.Grow(st.redo, len(rl.verts))
	}
	var rebuilt, kept, p int
	for i := range rl.verts {
		lo := p
		for p < len(st.patch) && st.patch[p].v == int32(i) {
			p++
		}
		if !everything && !compact && st.mark[i] == 0 {
			continue
		}
		st.redo = append(st.redo, redoItem{int32(i), int32(lo), int32(p)})
		if st.mark[i]&markMoved != 0 {
			rebuilt += int(rl.verts[i].Deg)
		} else {
			kept += len(rl.verts[i].Adj) + p - lo
		}
	}
	arena := make([]OutEdge[VM, EM], 0, rebuilt/2+kept+16)
	st.ends = slices.Grow(st.ends[:0], len(st.redo))
	var oriented uint64
	for _, it := range st.redo {
		v := &rl.verts[it.v]
		start := len(arena)
		switch {
		case st.mark[it.v] == 0: // compaction: the list as it is
			arena = append(arena, v.Adj...)
			st.ends = append(st.ends, len(arena))
			continue
		case st.mark[it.v]&markMoved != 0:
			for _, h := range st.adjacency(it.v) {
				if ord, meta := target(h.nbr); Less(v.Ord, v.ID, ord, h.nbr) {
					arena = append(arena, OutEdge[VM, EM]{Target: h.nbr, TOrd: ord, EMeta: h.meta, TMeta: meta})
				}
			}
			oriented += uint64(v.Deg)
		default:
			// Patch: decide the named half-edges again, keep the rest.
			ps := st.patch[it.lo:it.hi]
			for j, c := range ps {
				if j > 0 && ps[j-1].nbr == c.nbr {
					continue
				}
				e := st.shard.Find(st.order[it.v], c.nbr)
				if e == nil || e.Dead {
					continue
				}
				oriented++
				if ord, meta := target(c.nbr); Less(v.Ord, v.ID, ord, c.nbr) {
					arena = append(arena, OutEdge[VM, EM]{Target: c.nbr, TOrd: ord, EMeta: e.EMeta, TMeta: meta})
				}
			}
			for _, out := range v.Adj {
				if _, named := slices.BinarySearchFunc(ps, out.Target, func(c halfRef, t uint64) int { return cmp.Compare(c.nbr, t) }); !named {
					arena = append(arena, out)
				}
			}
		}
		slices.SortFunc(arena[start:], func(a, b OutEdge[VM, EM]) int { return CompareOrder(a.TOrd, a.Target, b.TOrd, b.Target) })
		st.ends = append(st.ends, len(arena))
	}
	start := 0
	for k, it := range st.redo {
		rl.verts[it.v].Adj = arena[start:st.ends[k]:st.ends[k]]
		start = st.ends[k]
	}
	return len(arena), oriented
}

// Snapshot orients the live, non-tombstoned entries of stream shards (one
// per rank, indexed by rank) into an immutable DODGr: the graph a Builder
// fed the shards' vertices and live edges would build, without shuffling an
// edge — the shards already hold every edge at both owners, sorted and
// deduplicated. Vertices left isolated by expiry are kept. An Orienter that
// takes snapshots serves one stream: every call passes the same shards, and
// a stage after the first decides only the half-edges the shards list as
// changed and those of vertices whose weight moved — every other list is the
// previous snapshot's. It returns the graph and the half-edges the stage
// decided. Collective; call outside parallel regions.
func (o *Orienter[VM, EM]) Snapshot(shards []*StreamShard[VM, EM], ordering Ordering) (*DODGr[VM, EM], uint64) {
	o.begin()
	g := o.g
	o.w.Parallel(func(r *ygm.Rank) {
		sh := shards[r.ID()]
		st := &o.st[r.ID()]
		rl := &g.local[r.ID()]
		// Shard vertices sit in first-sight order and are never removed, so
		// the new table is the last one with the newcomers merged in by id.
		// A newcomer's weight starts at zero, so it counts as moved.
		prev, prevOrder := st.last.verts, st.order
		newcomers := make([]int32, 0, len(sh.Verts)-len(prevOrder))
		for i := len(prevOrder); i < len(sh.Verts); i++ {
			newcomers = append(newcomers, int32(i))
		}
		slices.SortFunc(newcomers, func(a, b int32) int { return cmp.Compare(sh.Verts[a].ID, sh.Verts[b].ID) })
		order, index, indexed := prevOrder, st.last.index, st.last.indexed
		if len(newcomers) > 0 {
			order = make([]int32, len(sh.Verts))
		}
		// Newcomers with ids past the last table's (a stream whose new
		// vertices carry new ids) append, and the index keeps serving the
		// prefix; it is rebuilt when a newcomer lands inside the table, or
		// once the appended tail passes an eighth of it — amortised O(1)
		// per newcomer.
		inside := len(newcomers) > 0 && len(prev) > 0 && sh.Verts[newcomers[0]].ID < prev[len(prev)-1].ID
		reindex := inside || 8*(len(sh.Verts)-int(indexed)) > len(sh.Verts)
		if reindex {
			index, indexed = make(map[uint64]int32, len(sh.Verts)), int32(len(sh.Verts))
		}
		verts := make([]Vertex[VM, EM], len(sh.Verts))
		st.pos = slices.Grow(st.pos[:0], len(sh.Verts))[:len(sh.Verts)]
		p, q := 0, 0 // cursors into prev and newcomers
		for t := range verts {
			if q < len(newcomers) && (p == len(prev) || sh.Verts[newcomers[q]].ID < prev[p].ID) {
				order[t] = newcomers[q]
				q++
				verts[t] = Vertex[VM, EM]{ID: sh.Verts[order[t]].ID, Meta: sh.Verts[order[t]].Meta}
			} else {
				order[t] = prevOrder[p]
				verts[t] = prev[p] // Adj and Ord carried; the stage revisits them if marked
				p++
			}
			verts[t].Deg = uint32(sh.Verts[order[t]].Live)
			st.pos[order[t]] = int32(t)
			if reindex {
				index[verts[t].ID] = int32(t)
			}
		}
		st.mark = make([]uint8, len(verts))
		for _, c := range sh.dirty {
			t := st.pos[c.v]
			st.mark[t] |= markDirty
			st.patch = append(st.patch, halfRef{t, c.nbr})
		}
		sh.dirty = sh.dirty[:0]
		slices.SortFunc(st.patch, compareHalfRef)
		rl.verts, rl.index, rl.indexed = verts, index, indexed
		st.shard, st.order = sh, order
		o.orient(r, ordering, 0, 0)
	})
	o.g = nil
	return g, o.oriented
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
			for _, h := range st.adjacency(i) {
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
