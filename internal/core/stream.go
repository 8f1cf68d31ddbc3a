package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Streaming survey maintenance. A Stream ingests timestamped edge batches
// and keeps a set of fused analyses (Analysis values) continuously
// correct over the live edge set, without re-surveying the whole graph per
// batch. The key observation is delta locality: a batch changes exactly the
// triangles that contain a changed edge, and the triangles containing edge
// {u, v} are the common neighborhood N(u) ∩ N(v) — so each batch runs a
// *delta-scoped* version of the paper's machinery in which the only wedge
// sources are the changed edges:
//
//   - dry run: for each new (or expiring) edge {lo, hi} the initiator
//     Rank(lo) proposes |N(lo)| to Rank(hi), which grants a pull when
//     |N(hi)| · PullFactor < |N(lo)| — the §4.4 negotiation verbatim, at
//     delta scope (Push-Only skips it, exactly like the full survey);
//   - push: Rank(lo) ships N(lo) to Rank(hi), which merge-path intersects
//     it against N(hi); pull reverses the shipping direction. Plan filters
//     prune candidates before they are encoded and pull replies before
//     they are sent, reusing the PR 2 predicate-pushdown discipline, and
//     the full plan predicate is re-checked before any accumulator sees a
//     triangle;
//   - every identified triangle is dispatched to every attached analysis
//     with a sign: Observe for triangles a batch creates, Unobserve for
//     triangles an expiry destroys — the PR 3 rank-local accumulator
//     discipline, extended from a monoid to a group.
//
// A triangle whose batch changed several of its edges must be counted once,
// not once per changed edge: each candidate carries an "in the current
// delta" bit, and the intersection assigns the triangle to its
// canonically-smallest changed edge (the (min, max) lexicographic order on
// endpoint pairs, identical on every rank with no coordination).
//
// Expiry (Advance) retires every edge with timestamp below a cutoff. For
// analyses that declare Unobserve the destroyed triangles are enumerated
// by the same delta traversal (before tombstoning) and reversed out of the
// accumulators; if any attached analysis is non-invertible — or a
// metadata-revising duplicate merge makes the delta ill-defined — the
// batch falls back to a windowed epoch rebuild: accumulators are reset and
// re-populated by one fused traversal of the materialized live snapshot.
// Both paths leave results byte-identical to a from-scratch Run on the
// equivalent snapshot (property-tested in stream_test.go).
//
// Unlike the immutable DODGr, stream shards store *full* symmetrized
// neighborhoods (each edge at both owners): a delta intersection needs
// whole neighborhoods, not <+-upward halves. Entries are ordered by vertex
// id; analyses therefore see stream triangles with P < Q < R by id, and
// full traversals (seed, rebuilds) are normalized to the same presentation.
//
// Construction, like NewSurvey, registers handlers and must happen outside
// parallel regions; Ingest/Advance/Snapshot/Materialize are collective and
// must also be called outside parallel regions. Everything the stream ever
// registers it registers here (the snapshot stage's handlers included); an
// epoch rebuild's survey releases its own when it has run, so the world's
// handler table is flat however long the stream lives.

// StreamOptions configures a stream.
type StreamOptions[EM any] struct {
	// Survey selects the delta traversal's algorithm and tuning (the same
	// Options a full survey takes; PullFactor is clamped exactly as there).
	Survey Options
	// MergeEdgeMeta combines metadata when an ingested edge already exists
	// (multigraph reduction, mirroring BuilderOptions.MergeEdgeMeta; the
	// §5.2 Reddit reduction is min-by-timestamp). Commutative and
	// associative; nil keeps the stored metadata. A merge that *revises*
	// the stored value (detected by codec-byte comparison) forces an epoch
	// rebuild — on chronological streams with keep-first semantics it
	// never fires.
	MergeEdgeMeta func(a, b EM) EM
}

// StreamStats are a stream's cumulative counters.
type StreamStats struct {
	Batches          uint64 // Ingest calls
	Advances         uint64 // Advance calls
	Inserted         uint64 // edges structurally created (incl. resurrections)
	Merged           uint64 // duplicate insertions merged into stored edges
	Retired          uint64 // edges tombstoned by expiry
	SelfLoopsDropped uint64
	Rebuilds         uint64 // epoch-rebuild fallbacks
	Triangles        uint64 // net plan-matching triangles in the live window
	Snapshots        uint64 // Materialize calls
	SnapshotEntries  uint64 // half-edges those snapshots oriented, world-wide
}

// ErrStreamNoTimestamps is returned by Advance when the stream's plan has
// no Timestamps accessor to read expiry times from.
var ErrStreamNoTimestamps = errors.New("core: stream Advance needs a plan with a Timestamps accessor (use TemporalPlan or Plan.Timestamps)")

type travKind int

const (
	travInsert travKind = iota
	travExpire
)

// deltaEdge is one changed edge as the traversal sees it: a is the
// initiating endpoint (the one whose neighborhood ships, stored on the
// recording rank), b the partner. The dedup identity of the edge is its
// canonical edgeKey, independent of direction.
type deltaEdge struct{ a, b uint64 }

// edgeKey is the canonical (min, max) name of an undirected edge — the
// coordination-free total order the multi-delta dedup rule is built on.
type edgeKey struct{ lo, hi uint64 }

func pairKey(x, y uint64) edgeKey {
	if x < y {
		return edgeKey{x, y}
	}
	return edgeKey{y, x}
}

func keyLess(p, q edgeKey) bool {
	return p.lo < q.lo || (p.lo == q.lo && p.hi < q.hi)
}

type streamPullEntry[VM, EM any] struct {
	id    uint64
	fresh bool
	em    EM
	tmeta VM
}

// Stream maintains fused analyses over a mutating timestamped edge set.
// Open one with OpenStream; see the package comment above for semantics.
type Stream[VM, EM any] struct {
	g       *graph.DODGr[VM, EM]
	w       *ygm.World
	opts    StreamOptions[EM]
	plan    *Plan[EM]
	filters planFilters[EM]
	timeOf  func(EM) uint64
	vm      serialize.Codec[VM]
	em      serialize.Codec[EM]

	analyses []Attached[VM, EM]
	sinks    []StreamSink[VM, EM]
	names    []string

	shards []*graph.StreamShard[VM, EM]
	state  []streamState[VM, EM]
	orient *graph.Orienter[VM, EM] // the snapshot stage behind Materialize

	epoch         uint32
	cutoff        uint64
	hasCutoff     bool
	trav          travKind
	sign          int
	pendingCutoff uint64

	triangles uint64
	stats     StreamStats
	seed      Result

	// Per-batch scratch reused across Ingest/Advance calls (premerge's
	// dedup index and output, Advance's per-rank tombstone counts): a
	// long-lived stream ingests thousands of batches, and remaking these
	// was a measurable slice of per-batch allocations.
	scratchIdx    map[edgeKey]int
	scratchMerged []graph.Edge[EM]
	scratchHalves []uint64

	hRoute, hComplete, hFinish       ygm.HandlerID
	hDirect, hAssign                 ygm.HandlerID
	hPropose, hDecline, hPush, hPull ygm.HandlerID
}

// streamState is one rank's working state for the current batch.
type streamState[VM, EM any] struct {
	pending   []deltaEdge        // created edges awaiting the direction round
	delta     []deltaEdge        // changed edges this rank initiates
	targVol   map[uint64]uint64  // dry run: target vertex → proposed volume
	parked    map[uint64][]int32 // target vertex → delta indices awaiting pull
	declined  map[uint64]bool    // target vertex → owner declined the pull
	grants    map[uint64][]int32 // local target vertex → granted source ranks
	numGrants uint64

	changed bool
	merged  uint64

	triangles   uint64
	wedgeChecks uint64

	prunedBatches uint64
	prunedCands   uint64
	prunedPull    uint64

	scratchTri  Triangle[VM, EM]
	scratchKeep []int32
	scratchPull []streamPullEntry[VM, EM]
	pullBits    idBitset // dense-reply index reused across onPull messages
}

// OpenStream opens a stream over g's world, partitioning and ordering,
// seeded with g's edges and vertex metadata: the attached analyses start
// out holding exactly what a fused Run over g would produce, and every
// Ingest/Advance batch maintains them incrementally from there. A nil or
// empty plan streams every triangle; a non-empty plan restricts the
// analyses to plan-matching triangles with its predicates pushed into the
// delta traversal. Must be called outside parallel regions.
func OpenStream[VM, EM any](g *graph.DODGr[VM, EM], opts StreamOptions[EM], plan *Plan[EM], analyses ...Attached[VM, EM]) (*Stream[VM, EM], error) {
	return openStream(g, opts, plan, nil, analyses)
}

func openStream[VM, EM any](g *graph.DODGr[VM, EM], opts StreamOptions[EM], plan *Plan[EM], sinks []StreamSink[VM, EM], analyses []Attached[VM, EM]) (*Stream[VM, EM], error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	w := g.World()
	if !(opts.Survey.PullFactor > 0) {
		opts.Survey.PullFactor = 1.0 // same clamp as NewSurvey
	}
	s := &Stream[VM, EM]{
		g: g, w: w, opts: opts, plan: plan,
		filters: plan.compile(),
		vm:      g.VertexCodec(), em: g.EdgeCodec(),
		analyses: analyses,
		sinks:    sinks,
		sign:     1,
	}
	if plan != nil {
		s.timeOf = plan.timeOf
	}
	s.names = make([]string, len(analyses))
	for i, a := range analyses {
		if err := a.validate(w.Size(), true); err != nil {
			return nil, err
		}
		s.names[i] = a.AnalysisName()
		a.start(w.Size())
	}
	for _, sk := range sinks {
		sk.SinkOpen(w.Size())
	}
	s.shards = make([]*graph.StreamShard[VM, EM], w.Size())
	for i := range s.shards {
		s.shards[i] = graph.NewStreamShard[VM, EM]()
	}
	s.state = make([]streamState[VM, EM], w.Size())
	s.registerHandlers()
	s.orient = graph.NewOrienter(w, g.Partitioner(), s.vm, s.em)
	s.seedFrom(g)
	return s, nil
}

// Seed returns the Result of the fused traversal that initialized the
// analyses from the seed graph.
func (s *Stream[VM, EM]) Seed() Result { return s.seed }

// Triangles returns the net count of (plan-matching) triangles currently
// in the live window.
func (s *Stream[VM, EM]) Triangles() uint64 { return s.triangles }

// Cutoff returns the expiry watermark and whether Advance has ever set
// one. Durable streams persist it in checkpoint manifests so a recovered
// stream resumes with the same monotonicity guard.
func (s *Stream[VM, EM]) Cutoff() (uint64, bool) { return s.cutoff, s.hasCutoff }

// RestoreCutoff reinstates a persisted expiry watermark without retiring
// anything. Recovery only: a checkpoint snapshot already reflects every
// expiry its watermark caused, and any live edges below it are late
// arrivals the next Advance retires — exactly as in the original stream.
// Running Advance instead would retire those late arrivals early and
// diverge from an uninterrupted run.
func (s *Stream[VM, EM]) RestoreCutoff(cutoff uint64) {
	if s.hasCutoff && cutoff < s.cutoff {
		return
	}
	s.cutoff = cutoff
	s.hasCutoff = true
}

// CheckAdvance reports whether Advance(cutoff) would be admitted, without
// applying anything. Durable engines preflight with it before logging the
// advance, so the write-ahead log never holds a record whose replay would
// deterministically fail.
func (s *Stream[VM, EM]) CheckAdvance(cutoff uint64) error {
	if s.timeOf == nil {
		return ErrStreamNoTimestamps
	}
	if s.hasCutoff && cutoff < s.cutoff {
		return fmt.Errorf("core: stream cutoff moved backwards: %d < %d", cutoff, s.cutoff)
	}
	return nil
}

// Stats returns the stream's cumulative counters.
func (s *Stream[VM, EM]) Stats() StreamStats {
	st := s.stats
	st.Triangles = s.triangles
	return st
}

func (s *Stream[VM, EM]) owner(v uint64) int { return s.g.Owner(v) }

// metaCmp returns the revision detector the shard inserts use, or nil
// when no merge is configured — Insert then never revises stored
// metadata, so paying two encodes per duplicate would be dead work.
func (s *Stream[VM, EM]) metaCmp() func(a, b EM) bool {
	if s.opts.MergeEdgeMeta == nil {
		return nil
	}
	return s.metaEq
}

// metaEqPool holds the scratch encoders metaEq compares through. Package
// level because metaEq runs inside handlers on any rank's goroutine, so
// per-Stream scratch would race; a sync.Pool keeps the steady state
// allocation-free either way.
var metaEqPool = sync.Pool{New: func() any { return serialize.NewEncoder(64) }}

// metaEq compares edge metadata through the codec: byte-identical encoding
// is the package's notion of "the merge kept the stored value".
func (s *Stream[VM, EM]) metaEq(a, b EM) bool {
	ea := metaEqPool.Get().(*serialize.Encoder)
	eb := metaEqPool.Get().(*serialize.Encoder)
	ea.Reset()
	eb.Reset()
	s.em.Encode(ea, a)
	s.em.Encode(eb, b)
	eq := bytes.Equal(ea.Bytes(), eb.Bytes())
	metaEqPool.Put(ea)
	metaEqPool.Put(eb)
	return eq
}

func (s *Stream[VM, EM]) registerHandlers() {
	// Ingest routing is a three-hop chain: the batch rank sends (u, v, em)
	// to Rank(u), which inserts u→v (far metadata not yet known) and
	// forwards (em, meta(u)) to Rank(v); Rank(v) inserts v→u and replies
	// with meta(v) to patch Rank(u)'s inlined far metadata. A duplicate
	// whose merge kept the stored value stops after the first hop — the
	// partner owner holds the identical value and would no-op identically;
	// a *revising* merge must still propagate so the shards stay in
	// lockstep (the rebuild it forces reads either half).
	s.hRoute = s.w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		u := d.Uvarint()
		v := d.Uvarint()
		em := s.em.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt stream route message: " + d.Err().Error())
		}
		sh := s.shards[r.ID()]
		vi := sh.Ensure(u)
		var zero VM
		created, changed := sh.Insert(vi, v, em, zero, s.epoch, s.opts.MergeEdgeMeta, s.metaCmp())
		st := &s.state[r.ID()]
		if changed {
			st.changed = true
		}
		if !created {
			st.merged++
			if !changed {
				return
			}
		}
		e := r.Begin(s.owner(v), s.hComplete)
		e.PutUvarint(v)
		e.PutUvarint(u)
		s.em.Encode(e, em)
		s.vm.Encode(e, sh.Verts[vi].Meta)
		r.Commit(e)
	})
	s.hComplete = s.w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		u := d.Uvarint()
		em := s.em.Decode(d)
		metaU := s.vm.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt stream complete message: " + d.Err().Error())
		}
		sh := s.shards[r.ID()]
		vi := sh.Ensure(v)
		created, changed := sh.Insert(vi, u, em, metaU, s.epoch, s.opts.MergeEdgeMeta, s.metaCmp())
		st := &s.state[r.ID()]
		if changed {
			st.changed = true
		}
		if !created {
			return // revising duplicate: merged at both owners, chain ends
		}
		st.pending = append(st.pending, deltaEdge{a: v, b: u})
		e := r.Begin(s.owner(u), s.hFinish)
		e.PutUvarint(u)
		e.PutUvarint(v)
		s.vm.Encode(e, sh.Verts[vi].Meta)
		r.Commit(e)
	})
	s.hFinish = s.w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		u := d.Uvarint()
		v := d.Uvarint()
		metaV := s.vm.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt stream finish message: " + d.Err().Error())
		}
		sh := s.shards[r.ID()]
		vi, ok := sh.Index[u]
		if !ok {
			panic("core: stream finish for vertex not stored at its owner")
		}
		sh.Find(vi, v).TMeta = metaV
	})
	// Direction round: once a batch's insertions have settled (degrees are
	// final), each created edge picks its delta initiator toward the
	// lower-degree endpoint — the stream's analog of the DODGr's degree
	// orientation, so the shipped neighborhood is the small one. The pair's
	// recording owner proposes with its degree; the partner either claims
	// the edge (it is smaller) or assigns it back.
	s.hDirect = s.w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		u := d.Uvarint()
		v := d.Uvarint()
		degV := d.Uvarint()
		if d.Err() != nil {
			panic("core: corrupt stream direct message: " + d.Err().Error())
		}
		sh := s.shards[r.ID()]
		st := &s.state[r.ID()]
		vi, ok := sh.Index[u]
		if !ok {
			panic("core: stream direct for vertex not stored at its owner")
		}
		degU := uint64(sh.LiveDeg(vi))
		if degU < degV || (degU == degV && u < v) {
			sh.Find(vi, v).Init = true
			st.delta = append(st.delta, deltaEdge{a: u, b: v})
			return
		}
		e := r.Begin(s.owner(v), s.hAssign)
		e.PutUvarint(v)
		e.PutUvarint(u)
		r.Commit(e)
	})
	s.hAssign = s.w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		u := d.Uvarint()
		if d.Err() != nil {
			panic("core: corrupt stream assign message: " + d.Err().Error())
		}
		sh := s.shards[r.ID()]
		st := &s.state[r.ID()]
		vi := sh.Index[v]
		sh.Find(vi, u).Init = true
		st.delta = append(st.delta, deltaEdge{a: v, b: u})
	})
	s.hPropose = s.w.RegisterHandler(s.onPropose)
	s.hDecline = s.w.RegisterHandler(s.onDecline)
	s.hPush = s.w.RegisterHandler(s.onPush)
	s.hPull = s.w.RegisterHandler(s.onPull)
}

// seedFrom populates the shards with g's edges (symmetrizing the
// <+-upward lists into full neighborhoods) and initializes the analyses
// with one fused traversal of g.
func (s *Stream[VM, EM]) seedFrom(g *graph.DODGr[VM, EM]) {
	hSeed := s.w.RegisterHandler(func(r *ygm.Rank, d *serialize.Decoder) {
		v := d.Uvarint()
		u := d.Uvarint()
		em := s.em.Decode(d)
		tm := s.vm.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt stream seed message: " + d.Err().Error())
		}
		sh := s.shards[r.ID()]
		vi, ok := sh.Index[v]
		if !ok {
			panic("core: stream seed for vertex not stored at its owner")
		}
		sh.Verts[vi].Adj = append(sh.Verts[vi].Adj, graph.StreamEntry[VM, EM]{Target: u, EMeta: em, TMeta: tm})
	})
	s.w.Parallel(func(r *ygm.Rank) {
		sh := s.shards[r.ID()]
		verts := g.LocalVertices(r)
		for i := range verts {
			sh.EnsureMeta(verts[i].ID, verts[i].Meta)
		}
		ygm.Rendezvous(r) // every record exists before reverse halves fly
		for i := range verts {
			v := &verts[i]
			vi := sh.Index[v.ID]
			for j := range v.Adj {
				o := &v.Adj[j]
				// The forward half inherits the DODGr's <+ orientation as
				// the delta-initiator mark: under the degree order the
				// <+-smaller endpoint is the low-degree side, exactly the
				// direction the ingest chain would choose.
				sh.Verts[vi].Adj = append(sh.Verts[vi].Adj, graph.StreamEntry[VM, EM]{Target: o.Target, EMeta: o.EMeta, TMeta: o.TMeta, Init: true})
				for _, sk := range s.sinks {
					sk.SinkSeedEdge(r, v.ID, o.Target, o.EMeta)
				}
				e := r.Begin(s.owner(o.Target), hSeed)
				e.PutUvarint(o.Target)
				e.PutUvarint(v.ID)
				s.em.Encode(e, o.EMeta)
				s.vm.Encode(e, v.Meta)
				r.Commit(e)
			}
		}
		r.Barrier() // all seeds delivered before sealing
		sh.Seal()
	})
	s.w.ReleaseHandlers(hSeed)
	// Initial observe: one fused traversal of the seed graph, normalized to
	// the stream's id-ordered triangle presentation.
	sv, err := NewPlannedSurvey(g, s.opts.Survey, s.plan, s.fullObserveCallback())
	if err != nil {
		// plan was validated by OpenStream; unreachable
		panic("core: stream seed survey: " + err.Error())
	}
	s.seed = sv.Run()
	sv.Close()
	s.triangles = s.seed.Triangles
	s.sinkCommit()
}

// fullObserveCallback dispatches full-traversal triangles (seed and epoch
// rebuilds) to every analysis with sign +1, re-sorted into the stream's
// id-ordered presentation.
func (s *Stream[VM, EM]) fullObserveCallback() Callback[VM, EM] {
	if len(s.analyses) == 0 && len(s.sinks) == 0 {
		return nil
	}
	return func(r *ygm.Rank, t *Triangle[VM, EM]) {
		u := &s.state[r.ID()].scratchTri
		fillIDSorted(u, t.P, t.MetaP, t.Q, t.MetaQ, t.R, t.MetaR, t.MetaPQ, t.MetaPR, t.MetaQR)
		for _, a := range s.analyses {
			a.observe(r, u)
		}
		for _, sk := range s.sinks {
			sk.SinkTriangle(r, u, 1)
		}
	}
}

// dispatch hands one delta triangle {u, v, w} (any vertex order; emXY is
// the metadata of edge {x, y}) to every analysis with the batch's sign.
func (s *Stream[VM, EM]) dispatch(r *ygm.Rank, u uint64, mu VM, v uint64, mv VM, w uint64, mw VM, emUV, emUW, emVW EM) {
	t := &s.state[r.ID()].scratchTri
	fillIDSorted(t, u, mu, v, mv, w, mw, emUV, emUW, emVW)
	for _, a := range s.analyses {
		if s.sign > 0 {
			a.observe(r, t)
		} else {
			a.unobserve(r, t)
		}
	}
	for _, sk := range s.sinks {
		sk.SinkTriangle(r, t, s.sign)
	}
}

// fillIDSorted fills t with the triangle's vertices sorted ascending by id
// (the stream presentation), permuting vertex and edge metadata in step.
// ems convention: ems[0] = meta(pair 0,1), ems[1] = meta(pair 0,2),
// ems[2] = meta(pair 1,2).
func fillIDSorted[VM, EM any](t *Triangle[VM, EM], u uint64, mu VM, v uint64, mv VM, w uint64, mw VM, emUV, emUW, emVW EM) {
	ids := [3]uint64{u, v, w}
	vms := [3]VM{mu, mv, mw}
	ems := [3]EM{emUV, emUW, emVW}
	swap01 := func() {
		ids[0], ids[1] = ids[1], ids[0]
		vms[0], vms[1] = vms[1], vms[0]
		ems[1], ems[2] = ems[2], ems[1]
	}
	swap12 := func() {
		ids[1], ids[2] = ids[2], ids[1]
		vms[1], vms[2] = vms[2], vms[1]
		ems[0], ems[1] = ems[1], ems[0]
	}
	if ids[0] > ids[1] {
		swap01()
	}
	if ids[1] > ids[2] {
		swap12()
	}
	if ids[0] > ids[1] {
		swap01()
	}
	t.P, t.Q, t.R = ids[0], ids[1], ids[2]
	t.MetaP, t.MetaQ, t.MetaR = vms[0], vms[1], vms[2]
	t.MetaPQ, t.MetaPR, t.MetaQR = ems[0], ems[1], ems[2]
}

// inDelta reports whether a stored entry's edge belongs to the current
// batch's delta set: inserted this epoch for Ingest batches, expiring
// below the pending cutoff for Advance batches.
func (s *Stream[VM, EM]) inDelta(e *graph.StreamEntry[VM, EM]) bool {
	if s.trav == travInsert {
		return e.Epoch == s.epoch
	}
	return s.timeOf(e.EMeta) < s.pendingCutoff
}

func (s *Stream[VM, EM]) resetBatch(sign int, trav travKind) {
	s.sign = sign
	s.trav = trav
	for i := range s.state {
		st := &s.state[i]
		st.pending = st.pending[:0]
		st.delta = st.delta[:0]
		if st.targVol == nil {
			st.targVol = make(map[uint64]uint64)
			st.parked = make(map[uint64][]int32)
			st.declined = make(map[uint64]bool)
			st.grants = make(map[uint64][]int32)
		} else {
			// Reuse the previous batch's maps: a long-lived stream resets
			// these every batch, and the slices above already recycle.
			clear(st.targVol)
			clear(st.parked)
			clear(st.declined)
			clear(st.grants)
		}
		st.numGrants = 0
		st.changed = false
		st.merged = 0
		st.triangles = 0
		st.wedgeChecks = 0
		st.prunedBatches = 0
		st.prunedCands = 0
		st.prunedPull = 0
	}
}

// phase mirrors Survey.Run's per-phase accounting, accumulating (so the
// Mutate phase can span several regions).
func (s *Stream[VM, EM]) phase(prev *ygm.Stats, dst *PhaseStats, body func(r *ygm.Rank)) {
	start := time.Now()
	s.w.Parallel(body)
	dst.Duration += time.Since(start)
	now := s.w.Stats()
	d := now.Sub(*prev)
	*prev = now
	dst.Bytes += d.BytesSent
	dst.Messages += d.MessagesSent
	dst.Batches += d.BatchesSent
}

// Ingest applies one batch of edge insertions and brings every attached
// analysis up to date: the triangles the batch creates are enumerated by a
// delta traversal scoped to the new edges and observed into the
// accumulators. Duplicates of stored edges are merged with MergeEdgeMeta
// (in-batch duplicates are pre-merged, so owners see one deterministic
// insertion per pair); a merge that revises stored metadata forces an
// epoch rebuild (Result.Rebuilt). Self-loops are dropped and counted.
// Collective; call outside parallel regions.
func (s *Stream[VM, EM]) Ingest(batch []graph.Edge[EM]) (Result, error) {
	s.epoch++
	s.resetBatch(1, travInsert)
	s.w.ResetStats()
	res := s.baseResult()
	t0 := time.Now()
	var prev ygm.Stats

	merged := s.premerge(batch)
	for _, sk := range s.sinks {
		sk.SinkBatch(merged)
	}
	s.phase(&prev, &res.Mutate, func(r *ygm.Rank) {
		for i := r.ID(); i < len(merged); i += r.Size() {
			e := r.Begin(s.owner(merged[i].U), s.hRoute)
			e.PutUvarint(merged[i].U)
			e.PutUvarint(merged[i].V)
			s.em.Encode(e, merged[i].Meta)
			r.Commit(e)
		}
	})
	// Direction round: degrees are settled behind the phase barrier, so
	// every created edge can pick its initiator by final batch degree.
	s.phase(&prev, &res.Mutate, func(r *ygm.Rank) {
		sh := s.shards[r.ID()]
		st := &s.state[r.ID()]
		for _, p := range st.pending {
			e := r.Begin(s.owner(p.b), s.hDirect)
			e.PutUvarint(p.b)
			e.PutUvarint(p.a)
			e.PutUvarint(uint64(sh.LiveDeg(sh.Index[p.a])))
			r.Commit(e)
		}
	})
	changed := false
	for i := range s.state {
		st := &s.state[i]
		res.DeltaEdges += uint64(len(st.delta))
		s.stats.Merged += st.merged
		changed = changed || st.changed
	}
	s.stats.Batches++
	s.stats.Inserted += res.DeltaEdges

	// The rebuild-vs-delta decision must be collective: local shards see
	// only local merges, and in a multi-process world a metadata revision
	// on one process must force every process into the same epoch rebuild
	// (diverging here would mean diverging parallel regions — a protocol
	// breakdown, not just a wrong answer).
	if s.w.Distributed() {
		var local uint64
		if changed {
			local = 1
		}
		var votes uint64
		s.phase(&prev, &res.Mutate, func(r *ygm.Rank) {
			v := ygm.AllReduceSum(r, local)
			if r.ID() == s.w.LeaderID() {
				votes = v
			}
		})
		changed = votes > 0
	}

	if changed {
		if err := s.rebuild(&res, &prev); err != nil {
			return res, err
		}
	} else {
		s.runDelta(&res, &prev)
		s.triangles += res.Triangles
	}
	s.sinkCommit()
	res.Total = time.Since(t0)
	return res, nil
}

// premerge canonicalizes a batch: self-loops dropped (and counted),
// duplicate pairs merged with MergeEdgeMeta, endpoints ordered lo < hi —
// so both owners of a pair receive exactly one deterministic insertion.
// The returned slice is the stream's scratch storage, valid until the next
// Ingest.
func (s *Stream[VM, EM]) premerge(batch []graph.Edge[EM]) []graph.Edge[EM] {
	if s.scratchIdx == nil {
		s.scratchIdx = make(map[edgeKey]int, len(batch))
	} else {
		clear(s.scratchIdx)
	}
	idx := s.scratchIdx
	out := s.scratchMerged[:0]
	for _, e := range batch {
		if e.U == e.V {
			s.stats.SelfLoopsDropped++
			continue
		}
		k := pairKey(e.U, e.V)
		if j, ok := idx[k]; ok {
			s.stats.Merged++
			if s.opts.MergeEdgeMeta != nil {
				out[j].Meta = s.opts.MergeEdgeMeta(out[j].Meta, e.Meta)
			}
			continue
		}
		idx[k] = len(out)
		out = append(out, graph.Edge[EM]{U: k.lo, V: k.hi, Meta: e.Meta})
	}
	s.scratchMerged = out
	return out
}

// Advance retires every live edge whose timestamp is below cutoff and
// reverses the destroyed triangles out of the attached analyses — via the
// delta traversal and Unobserve when every analysis is invertible, via an
// epoch rebuild otherwise. The cutoff is a monotone watermark (edges at
// exactly cutoff survive); late arrivals below it are admitted by Ingest
// and retired at the next Advance. Requires a plan with a Timestamps
// accessor. Collective; call outside parallel regions.
func (s *Stream[VM, EM]) Advance(cutoff uint64) (Result, error) {
	if err := s.CheckAdvance(cutoff); err != nil {
		return Result{}, err
	}
	s.resetBatch(-1, travExpire)
	s.pendingCutoff = cutoff
	s.w.ResetStats()
	res := s.baseResult()
	t0 := time.Now()
	var prev ygm.Stats

	invertible := true
	for _, a := range s.analyses {
		invertible = invertible && a.invertible()
	}
	for _, sk := range s.sinks {
		invertible = invertible && sk.SinkInvertible()
	}
	if invertible {
		// Enumerate destroyed triangles while the expiring edges are still
		// live: the delta set is every live edge below cutoff, recorded at
		// the half that carries the initiator mark (so destroyed triangles
		// ship the low-degree neighborhood, like insertions do).
		s.phase(&prev, &res.Mutate, func(r *ygm.Rank) {
			sh := s.shards[r.ID()]
			st := &s.state[r.ID()]
			for vi := range sh.Verts {
				v := &sh.Verts[vi]
				for j := range v.Adj {
					c := &v.Adj[j]
					if c.Dead || !c.Init {
						continue
					}
					if s.timeOf(c.EMeta) < cutoff {
						st.delta = append(st.delta, deltaEdge{a: v.ID, b: c.Target})
					}
				}
			}
		})
		s.runDelta(&res, &prev)
	}
	if s.scratchHalves == nil {
		s.scratchHalves = make([]uint64, s.w.Size())
	}
	halves := s.scratchHalves
	s.phase(&prev, &res.Mutate, func(r *ygm.Rank) {
		sh := s.shards[r.ID()]
		halves[r.ID()] = uint64(sh.ExpireBefore(s.timeOf, cutoff))
		sh.MaybeCompact()
	})
	// Every edge is tombstoned at both owners, so the retired edge count
	// is half the tombstoned halves.
	var retired uint64
	for _, h := range halves {
		retired += h
	}
	retired /= 2
	res.DeltaEdges = retired
	s.stats.Advances++
	s.stats.Retired += retired
	s.cutoff = cutoff
	s.hasCutoff = true
	for _, sk := range s.sinks {
		sk.SinkExpire(cutoff)
	}

	if !invertible {
		if err := s.rebuild(&res, &prev); err != nil {
			return res, err
		}
	} else {
		s.triangles -= res.Triangles
	}
	s.sinkCommit()
	res.Total = time.Since(t0)
	return res, nil
}

func (s *Stream[VM, EM]) baseResult() Result {
	return Result{
		Mode:     s.opts.Survey.Mode,
		Ordering: s.g.Ordering().String(),
		Planned:  s.filters.active,
		Analyses: s.names,
		Delta:    true,
	}
}

// runDelta executes the delta-scoped dry run/push/pull over the current
// delta lists and folds the per-rank counters into res, across processes
// too on a distributed world (each process holds only its ranks' state).
func (s *Stream[VM, EM]) runDelta(res *Result, prev *ygm.Stats) {
	if s.opts.Survey.Mode == PushPull {
		s.phase(prev, &res.DryRun, s.dryRunPhase)
	}
	s.phase(prev, &res.Push, s.pushPhase)
	if s.opts.Survey.Mode == PushPull {
		s.phase(prev, &res.Pull, s.pullPhase)
	}
	for i := range s.state {
		st := &s.state[i]
		res.Triangles += st.triangles
		res.PullsGranted += st.numGrants
		res.WedgeChecks += st.wedgeChecks
		res.PrunedBatches += st.prunedBatches
		res.PrunedCandidates += st.prunedCands
		res.PrunedPullEntries += st.prunedPull
		if st.wedgeChecks > res.MaxRankWedgeChecks {
			res.MaxRankWedgeChecks = st.wedgeChecks
		}
	}
	settleResult(s.w, res)
}

// candCount counts live candidates of v's adjacency excluding the delta
// partner hi.
func candCount[VM, EM any](adj []graph.StreamEntry[VM, EM], hi uint64) int {
	n := 0
	for i := range adj {
		if !adj[i].Dead && adj[i].Target != hi {
			n++
		}
	}
	return n
}

// dryRunPhase mirrors the survey's §4.4 negotiation at delta scope: for
// every delta edge the initiator proposes its live candidate volume to the
// partner's owner, aggregated per target vertex. Fully plan-pruned delta
// edges propose nothing (their push cost is zero).
func (s *Stream[VM, EM]) dryRunPhase(r *ygm.Rank) {
	sh := s.shards[r.ID()]
	st := &s.state[r.ID()]
	f := &s.filters
	for di := range st.delta {
		de := st.delta[di]
		vi := sh.Index[de.a]
		v := &sh.Verts[vi]
		ent := sh.Find(vi, de.b)
		em := ent.EMeta
		if f.active {
			if !f.edge(em) {
				st.prunedBatches++
				st.prunedCands += uint64(candCount(v.Adj, de.b))
				continue
			}
			alive := false
			for j := range v.Adj {
				c := &v.Adj[j]
				if !c.Dead && c.Target != de.b && f.cand(em, c.EMeta) {
					alive = true
					break
				}
			}
			if !alive {
				st.prunedBatches++
				st.prunedCands += uint64(candCount(v.Adj, de.b))
				continue
			}
		}
		vol := uint64(candCount(v.Adj, de.b))
		if vol == 0 {
			continue // no candidates, no triangles: nothing to negotiate
		}
		st.targVol[de.b] += vol
		st.parked[de.b] = append(st.parked[de.b], int32(di))
	}
	for hi, vol := range st.targVol {
		e := r.Begin(s.owner(hi), s.hPropose)
		e.PutUvarint(hi)
		e.PutUvarint(vol)
		e.PutUvarint(uint64(r.ID()))
		r.Commit(e)
	}
}

// onPropose runs at the delta partner's owner: grant the pull when
// shipping N(hi) once beats receiving the proposed volume. Under an
// edge-level plan filter the pull cost is the filtered live adjacency.
func (s *Stream[VM, EM]) onPropose(r *ygm.Rank, d *serialize.Decoder) {
	hi := d.Uvarint()
	vol := d.Uvarint()
	src := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt stream propose message: " + d.Err().Error())
	}
	sh := s.shards[r.ID()]
	st := &s.state[r.ID()]
	vi, ok := sh.Index[hi]
	if !ok {
		panic("core: stream propose for vertex not stored at its owner")
	}
	adjLen := sh.LiveDeg(vi)
	if s.filters.hasEdge {
		n := 0
		adj := sh.Verts[vi].Adj
		for j := range adj {
			if !adj[j].Dead && s.filters.edge(adj[j].EMeta) {
				n++
			}
		}
		adjLen = n
	}
	if float64(adjLen)*s.opts.Survey.PullFactor < float64(vol) {
		st.grants[hi] = append(st.grants[hi], int32(src))
		st.numGrants++
		return
	}
	e := r.Begin(src, s.hDecline)
	e.PutUvarint(hi)
	r.Commit(e)
}

func (s *Stream[VM, EM]) onDecline(r *ygm.Rank, d *serialize.Decoder) {
	hi := d.Uvarint()
	if d.Err() != nil {
		panic("core: corrupt stream decline message: " + d.Err().Error())
	}
	s.state[r.ID()].declined[hi] = true
}

// pushPhase ships, for every delta edge not granted a pull, the
// initiator's live neighborhood (minus the partner, minus plan-filtered
// candidates) to the partner's owner for intersection.
func (s *Stream[VM, EM]) pushPhase(r *ygm.Rank) {
	sh := s.shards[r.ID()]
	st := &s.state[r.ID()]
	f := &s.filters
	pushPull := s.opts.Survey.Mode == PushPull
	for di := range st.delta {
		de := st.delta[di]
		vi := sh.Index[de.a]
		v := &sh.Verts[vi]
		ent := sh.Find(vi, de.b)
		em := ent.EMeta
		if f.active && !f.edge(em) {
			// The dry run already accounted this fully-pruned delta edge in
			// push-pull mode; count it here only when no dry run ran.
			if !pushPull {
				st.prunedBatches++
				st.prunedCands += uint64(candCount(v.Adj, de.b))
			}
			continue
		}
		if pushPull && !st.declined[de.b] {
			continue // granted pull (or nothing proposed): pull covers it
		}
		// One predicate pass, then encode from the recorded survivors (the
		// same impure-predicate discipline as the full survey). A candidate
		// that is itself in the delta with a smaller canonical key is
		// pre-filtered here: the dedup rule assigns any shared triangle to
		// that edge, so shipping it could only waste bytes — for a batch
		// whose edges are all new (a fresh stream's first batch) this skips
		// about half of every neighborhood.
		eKey := pairKey(de.a, de.b)
		keep := st.scratchKeep[:0]
		cands := 0
		for j := range v.Adj {
			c := &v.Adj[j]
			if c.Dead || c.Target == de.b {
				continue
			}
			if s.inDelta(c) && keyLess(pairKey(de.a, c.Target), eKey) {
				continue
			}
			cands++
			if f.active && !f.cand(em, c.EMeta) {
				continue
			}
			keep = append(keep, int32(j))
		}
		st.scratchKeep = keep
		if len(keep) == 0 {
			if f.active && !pushPull && cands > 0 {
				st.prunedBatches++
				st.prunedCands += uint64(cands)
			}
			continue
		}
		if f.active {
			st.prunedCands += uint64(cands - len(keep))
		}
		e := r.Begin(s.owner(de.b), s.hPush)
		e.PutUvarint(de.a)
		s.vm.Encode(e, v.Meta)
		e.PutUvarint(de.b)
		s.em.Encode(e, em)
		s.encodeCandidates(e, v.Adj, keep)
		r.Commit(e)
	}
}

// encodeCandidates writes a neighborhood slice in the delta candidate wire
// format (see candcodec.go), parameterizing the shared codec with this
// batch's in-delta test.
func (s *Stream[VM, EM]) encodeCandidates(e *serialize.Encoder, adj []graph.StreamEntry[VM, EM], keep []int32) {
	encodeCandList(e, s.em, s.vm, adj, keep, s.trav, s.epoch, s.pendingCutoff, s.timeOf)
}

// onPush intersects a pushed delta neighborhood against the local live
// adjacency of the partner vertex. Each match is a triangle the batch
// created (or, on expiry, destroys); the dedup rule assigns triangles with
// several delta edges to the canonically smallest one.
func (s *Stream[VM, EM]) onPush(r *ygm.Rank, d *serialize.Decoder) {
	a := d.Uvarint() // initiating endpoint (its neighborhood follows)
	metaA := s.vm.Decode(d)
	b := d.Uvarint() // partner: a local vertex of this rank
	emAB := s.em.Decode(d)
	if d.Err() != nil {
		panic("core: corrupt stream push header: " + d.Err().Error())
	}
	sh := s.shards[r.ID()]
	st := &s.state[r.ID()]
	vi, ok := sh.Index[b]
	if !ok {
		panic("core: stream push for vertex not stored at its owner")
	}
	v := &sh.Verts[vi]
	adj := v.Adj
	eKey := pairKey(a, b)
	var cs candScan[VM, EM]
	if !cs.open(d, s.em, s.vm) {
		panic("core: corrupt stream push candidates: " + cs.err.Error())
	}
	k := 0
	for cs.next() {
		w := cs.id
		k = gallopStreamID(adj, k, w)
		st.wedgeChecks++
		if k < len(adj) && adj[k].Target == w && !adj[k].Dead {
			c := &adj[k]
			if cs.fresh && keyLess(pairKey(a, w), eKey) {
				continue // counted at delta edge {a, w}
			}
			if s.inDelta(c) && keyLess(pairKey(b, w), eKey) {
				continue // counted at delta edge {b, w}
			}
			if s.filters.active && !s.filters.tri(emAB, cs.emv, c.EMeta) {
				continue
			}
			st.triangles++
			s.dispatch(r, a, metaA, b, v.Meta, w, cs.tm, emAB, cs.emv, c.EMeta)
		}
	}
	if cs.err != nil {
		panic("core: corrupt stream push candidate: " + cs.err.Error())
	}
}

// pullPhase ships each granted live neighborhood — once per granting
// (vertex, source rank) pair, plan-filtered like the survey's — back to
// the initiating rank, which completes every parked delta edge.
func (s *Stream[VM, EM]) pullPhase(r *ygm.Rank) {
	sh := s.shards[r.ID()]
	st := &s.state[r.ID()]
	f := &s.filters
	for hi, srcs := range st.grants {
		vi := sh.Index[hi]
		v := &sh.Verts[vi]
		keep := st.scratchKeep[:0]
		total := 0
		for j := range v.Adj {
			c := &v.Adj[j]
			if c.Dead {
				continue
			}
			total++
			if f.hasEdge && !f.edge(c.EMeta) {
				continue
			}
			keep = append(keep, int32(j))
		}
		st.scratchKeep = keep
		if f.hasEdge {
			st.prunedPull += uint64((total - len(keep)) * len(srcs))
		}
		if len(keep) == 0 {
			continue
		}
		for _, src := range srcs {
			e := r.Begin(int(src), s.hPull)
			e.PutUvarint(hi)
			s.vm.Encode(e, v.Meta)
			s.encodeCandidates(e, v.Adj, keep)
			r.Commit(e)
		}
	}
}

// onPull completes, back at the initiating rank, every parked delta edge
// targeting the pulled vertex: the mirror intersection of onPush. One
// decoded reply is intersected against *many* parked neighborhoods, so a
// dense reply is indexed once into the rank's reusable idBitset (O(1)
// membership + list index per candidate); sparse replies gallop like the
// push side.
func (s *Stream[VM, EM]) onPull(r *ygm.Rank, d *serialize.Decoder) {
	hi := d.Uvarint()
	metaHi := s.vm.Decode(d)
	if d.Err() != nil {
		panic("core: corrupt stream pull header: " + d.Err().Error())
	}
	sh := s.shards[r.ID()]
	st := &s.state[r.ID()]
	var cs candScan[VM, EM]
	if !cs.open(d, s.em, s.vm) {
		panic("core: corrupt stream pull candidates: " + cs.err.Error())
	}
	pulled := st.scratchPull[:0]
	for cs.next() {
		pulled = append(pulled, streamPullEntry[VM, EM]{id: cs.id, fresh: cs.fresh, em: cs.emv, tmeta: cs.tm})
	}
	if cs.err != nil {
		panic("core: corrupt stream pull entry: " + cs.err.Error())
	}
	st.scratchPull = pulled

	dense := buildPullBitset(&st.pullBits, pulled)
	f := &s.filters
	for _, di := range st.parked[hi] {
		de := st.delta[di]
		vi := sh.Index[de.a]
		v := &sh.Verts[vi]
		ent := sh.Find(vi, de.b)
		emAB := ent.EMeta
		eKey := pairKey(de.a, de.b)
		k := 0
		for j := range v.Adj {
			c := &v.Adj[j]
			if c.Dead || c.Target == de.b {
				continue
			}
			if f.active && !f.cand(emAB, c.EMeta) {
				st.prunedCands++
				continue
			}
			w := c.Target
			st.wedgeChecks++
			var hit bool
			if dense {
				k, hit = st.pullBits.lookup(w)
			} else {
				k = gallopStreamPullID(pulled, k, w)
				hit = k < len(pulled) && pulled[k].id == w
			}
			if hit {
				p := &pulled[k]
				if s.inDelta(c) && keyLess(pairKey(de.a, w), eKey) {
					continue
				}
				if p.fresh && keyLess(pairKey(hi, w), eKey) {
					continue
				}
				if f.active && !f.tri(emAB, c.EMeta, p.em) {
					continue
				}
				st.triangles++
				s.dispatch(r, de.a, v.Meta, hi, metaHi, w, c.TMeta, emAB, c.EMeta, p.em)
			}
		}
	}
}

// Materialize builds an immutable DODGr snapshot of the live edge set,
// with the seed graph's partitioning — the rebuild vehicle, also what engine
// queries and checkpoints read. The shards already hold every live edge at
// both owners, sorted and deduplicated, so nothing is shuffled: each rank
// orients its own entries after one boundary exchange (graph.Orienter), and
// the result is the graph a Builder fed the same vertices and live edges
// would build with the snapshot's ordering. Until the first Ingest or
// Advance the live edge set is the seed graph's, and so is the snapshot: no
// stage runs. After it, under the degree-class order, a snapshot decides
// only the half-edges the mutations since the previous one changed, and
// reuses every other adjacency list. Collective; call outside parallel
// regions.
func (s *Stream[VM, EM]) Materialize() *graph.DODGr[VM, EM] {
	s.stats.Snapshots++
	if s.stats.Batches == 0 && s.stats.Advances == 0 {
		return s.g.AsSnapshot()
	}
	g, oriented := s.orient.Snapshot(s.shards, s.snapshotOrdering())
	s.stats.SnapshotEntries += oriented
	return g
}

// snapshotOrdering is the ordering Materialize orients a mutated stream
// with: degeneracy when the seed graph was degeneracy-ordered, the degree
// class otherwise — within a factor of 2 of the degree order's out-degree
// bound, and a vertex's class moves only when its degree crosses a power of
// two.
func (s *Stream[VM, EM]) snapshotOrdering() graph.Ordering {
	if s.g.Ordering() == graph.OrderDegeneracy {
		return graph.OrderDegeneracy
	}
	return graph.OrderDegreeClass
}

// rebuild is the windowed epoch rebuild: accumulators are reset and
// re-populated by one fused traversal of the materialized live snapshot.
// The build traffic lands in res.Mutate; the traversal replaces the
// res phase stats wholesale.
func (s *Stream[VM, EM]) rebuild(res *Result, prev *ygm.Stats) error {
	res.Rebuilt = true
	s.stats.Rebuilds++
	for _, a := range s.analyses {
		a.start(s.w.Size())
	}
	for _, sk := range s.sinks {
		sk.SinkReset()
	}
	t0 := time.Now()
	g2 := s.Materialize()
	now := s.w.Stats()
	d := now.Sub(*prev)
	res.Mutate.Duration += time.Since(t0)
	res.Mutate.Bytes += d.BytesSent
	res.Mutate.Messages += d.MessagesSent
	res.Mutate.Batches += d.BatchesSent
	sv, err := NewPlannedSurvey(g2, s.opts.Survey, s.plan, s.fullObserveCallback())
	if err != nil {
		return err
	}
	r2 := sv.Run() // resets world stats; phases accounted inside
	sv.Close()
	*prev = s.w.Stats()
	res.DryRun, res.Push, res.Pull = r2.DryRun, r2.Push, r2.Pull
	res.Triangles = r2.Triangles
	res.WedgeChecks = r2.WedgeChecks
	res.MaxRankWedgeChecks = r2.MaxRankWedgeChecks
	res.WorkBalance = r2.WorkBalance
	res.PullsGranted = r2.PullsGranted
	res.AvgPullsPerRank = r2.AvgPullsPerRank
	res.PrunedBatches = r2.PrunedBatches
	res.PrunedCandidates = r2.PrunedCandidates
	res.PrunedPullEntries = r2.PrunedPullEntries
	s.triangles = r2.Triangles
	return nil
}

// Snapshot publishes every attached analysis's current result into its
// bound output: the live per-rank accumulators are cloned, and the clones
// go through the same reduce (across processes too) and Finalize as a
// Run's, so the stream keeps maintaining the live ones across subsequent
// batches. Returns the cumulative stream counters. Collective; call
// outside parallel regions.
func (s *Stream[VM, EM]) Snapshot() StreamStats {
	for _, a := range s.analyses {
		a.detach()
	}
	publish(s.w, s.analyses)
	return s.Stats()
}
