package core

import (
	"cmp"
	"slices"
	"time"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Options configures a survey.
type Options struct {
	// Mode selects Push-Only (Alg. 1) or Push-Pull (§4.4).
	Mode Mode
	// PullFactor scales the pull side of the dry-run comparison: a target
	// vertex q is pulled by a source rank when
	//     |Adj⁺(q)| · PullFactor  <  Σ_{p local to source} |candidates → q|.
	// 1.0 reproduces the paper's inequality; other values are exposed for
	// the ablation study of the decision threshold. Values that cannot
	// scale a cost — zero, negatives (which would flip the inequality for
	// every non-empty adjacency), NaN — are clamped to 1.0.
	PullFactor float64
}

// PhaseStats describes one phase of a survey run: its wall-clock duration
// and the communication it generated (Table 4 reports exactly these).
type PhaseStats struct {
	Duration time.Duration
	Bytes    int64
	Messages int64
	Batches  int64
}

// Result summarizes a survey run.
type Result struct {
	Mode Mode
	// Ordering names the vertex-ordering strategy the surveyed graph was
	// built with ("degree" or "degeneracy") so ablation output and bench
	// records can attribute work measures to the order that produced them.
	Ordering  string
	Triangles uint64 // total callback firings == |T(G)|

	// Analyses names the analyses fused into this traversal, in attachment
	// order, when the run came through Run; nil for bare Survey.Run calls.
	// Bench records and ablation output use it to attribute a run to the
	// questions it answered in one pass.
	Analyses []string

	// DryRun, Push and Pull break the run into the paper's three phases
	// (Fig. 7). Push-Only runs populate only Push.
	DryRun PhaseStats
	Push   PhaseStats
	Pull   PhaseStats

	Total time.Duration

	// PullsGranted counts (target vertex, source rank) pairs that chose
	// pull; divided by world size it is Table 3's "Avg. Pulls Per Rank".
	PullsGranted    uint64
	AvgPullsPerRank float64

	// WedgeChecks counts candidate comparisons actually performed, the
	// algorithm's unit of work (|W⁺| when nothing is skipped).
	WedgeChecks uint64
	// MaxRankWedgeChecks is the largest number of wedge checks any single
	// rank performed — the critical-path work measure. On a simulated-rank
	// runtime (ranks are goroutines, possibly on few physical cores) this,
	// not wall clock, is the quantity strong scaling should be judged by.
	MaxRankWedgeChecks uint64
	// WorkBalance is WedgeChecks / (ranks · MaxRankWedgeChecks) ∈ (0, 1]:
	// 1.0 means perfectly balanced intersection work.
	WorkBalance float64

	// Planned reports whether a survey plan's pushed-down predicates were
	// active; when true, Triangles counts only plan-matching triangles
	// (callback firings), and the Pruned* counters below are meaningful.
	Planned bool
	// PrunedBatches counts wedge batches never enqueued: the batch's edge
	// (p,q) failed the edge filter, or every candidate in its suffix failed
	// the candidate filter.
	PrunedBatches uint64
	// PrunedCandidates counts suffix entries dropped before encoding —
	// wedge checks (and their bytes) that never happened anywhere.
	PrunedCandidates uint64
	// PrunedPullEntries counts Adj⁺ᵐ(q) entries omitted from pull replies
	// (including all entries of replies skipped entirely).
	PrunedPullEntries uint64

	// Delta reports that this Result describes one incremental stream
	// batch (Stream.Ingest or Stream.Advance), not a full traversal: the
	// phase stats cover only the delta-scoped dry run/push/pull, Triangles
	// counts the (plan-matching) triangles the batch created or destroyed,
	// and Mutate holds the structural mutation traffic (edge routing and
	// metadata completion) that preceded the traversal.
	Delta bool
	// DeltaEdges counts the edges the batch inserted (Ingest) or retired
	// (Advance) — the wedge sources of the delta traversal.
	DeltaEdges uint64
	// Rebuilt reports that the batch fell back to a windowed epoch rebuild
	// (a non-invertible analysis met an expiry, or a metadata-revising
	// merge): the phase stats then cover the from-scratch traversal, and
	// Mutate additionally includes the snapshot build.
	Rebuilt bool
	// Mutate is the structural phase of a stream batch: ingest routing,
	// expiry bookkeeping, and (under Rebuilt) the snapshot rebuild.
	Mutate PhaseStats
}

// Survey is a reusable triangle survey over one DODGr. Construct outside a
// parallel region (handlers are registered); Run as many times as desired,
// then Close.
type Survey[VM, EM any] struct {
	g    *graph.DODGr[VM, EM]
	w    *ygm.World
	opts Options
	cb   Callback[VM, EM]
	plan planFilters[EM]

	hPush    ygm.HandlerID
	hPropose ygm.HandlerID
	hDecline ygm.HandlerID
	hPull    ygm.HandlerID

	state []rankState[VM, EM]
}

type pullEntry[EM any] struct {
	id  uint64
	deg uint32
	em  EM
}

type rankState[VM, EM any] struct {
	// sc holds the negotiation tables, the buffers of the survey's own
	// columns and the survivor list (see surveyScratch); nil until the first
	// Run, and for ranks other processes host.
	sc *surveyScratch
	// cols is the rank's plan columns: the snapshot's, plus ok and parked
	// in sc's buffers (see planCols).
	cols planCols

	// Work accounting.
	triangles   uint64
	wedgeChecks uint64

	// Pushdown prune accounting (stay zero without a plan).
	prunedBatches uint64
	prunedCands   uint64
	prunedPull    uint64

	scratchTri Triangle[VM, EM]
}

// NewSurvey prepares a survey of g invoking cb on every triangle. cb may be
// nil for pure counting (Result.Triangles is maintained either way).
func NewSurvey[VM, EM any](g *graph.DODGr[VM, EM], opts Options, cb Callback[VM, EM]) *Survey[VM, EM] {
	// Not `== 0`: a negative (or NaN) factor would flip the dry-run pull
	// inequality and grant pulls to exactly the targets that should push,
	// silently degrading Push-Pull into nonsense grants.
	if !(opts.PullFactor > 0) {
		opts.PullFactor = 1.0
	}
	s := &Survey[VM, EM]{g: g, w: g.World(), opts: opts, cb: cb}
	s.state = make([]rankState[VM, EM], s.w.Size())
	s.hPush = s.w.RegisterHandler(s.onPush)
	s.hPropose = s.w.RegisterHandler(s.onPropose)
	s.hDecline = s.w.RegisterHandler(s.onDecline)
	s.hPull = s.w.RegisterHandler(s.onPull)
	return s
}

// Close releases the survey's four handlers — and with them the survey and
// the graph it reaches, which the world's handler table would otherwise pin
// for as long as the world lives — and returns each rank's scratch (column
// buffers, negotiation tables) to the pool the next survey draws from; the
// snapshot's columns stay with the snapshot. Call outside parallel regions
// once the last Run has returned; the survey must not run afterwards.
func (s *Survey[VM, EM]) Close() {
	s.w.ReleaseHandlers(s.hPush, s.hPropose, s.hDecline, s.hPull)
	for i := range s.state {
		st := &s.state[i]
		if st.sc != nil {
			scratchPool.Put(st.sc)
			st.sc = nil
		}
		st.cols = planCols{}
	}
}

// NewPlannedSurvey prepares a survey restricted to plan-matching triangles,
// with the plan's predicates pushed into every communication phase (see
// Plan). A nil or empty plan degenerates to NewSurvey. The only error is an
// invalid plan (Plan.Validate).
func NewPlannedSurvey[VM, EM any](g *graph.DODGr[VM, EM], opts Options, plan *Plan[EM], cb Callback[VM, EM]) (*Survey[VM, EM], error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s := NewSurvey(g, opts, cb)
	if plan != nil {
		s.plan = plan.compile()
	}
	return s, nil
}

// Run executes the survey collectively and returns aggregate statistics.
// It must be called outside parallel regions; it resets the world's
// communication statistics to attribute traffic per phase.
func (s *Survey[VM, EM]) Run() Result {
	for i := range s.state {
		if !s.w.Local(i) {
			continue
		}
		st := &s.state[i]
		if st.sc == nil {
			st.sc = scratchPool.Get().(*surveyScratch)
		}
		st.sc.reset()
		st.triangles = 0
		st.wedgeChecks = 0
		st.prunedBatches = 0
		st.prunedCands = 0
		st.prunedPull = 0
	}
	s.w.ResetStats()

	res := Result{Mode: s.opts.Mode, Ordering: s.g.Ordering().String(), Planned: s.plan.active}
	t0 := time.Now()
	var prev ygm.Stats

	phase := func(dst *PhaseStats, body func(r *ygm.Rank)) {
		start := time.Now()
		s.w.Parallel(body)
		dst.Duration = time.Since(start)
		now := s.w.Stats()
		d := now.Sub(prev)
		prev = now
		dst.Bytes = d.BytesSent
		dst.Messages = d.MessagesSent
		dst.Batches = d.BatchesSent
	}

	if s.opts.Mode == PushPull {
		phase(&res.DryRun, s.dryRunPhase)
	}
	phase(&res.Push, s.pushPhase)
	if s.opts.Mode == PushPull {
		phase(&res.Pull, s.pullPhase)
	}

	res.Total = time.Since(t0)
	for i := range s.state {
		res.Triangles += s.state[i].triangles
		if sc := s.state[i].sc; sc != nil {
			res.PullsGranted += uint64(len(sc.grants))
		}
		res.WedgeChecks += s.state[i].wedgeChecks
		res.PrunedBatches += s.state[i].prunedBatches
		res.PrunedCandidates += s.state[i].prunedCands
		res.PrunedPullEntries += s.state[i].prunedPull
		if s.state[i].wedgeChecks > res.MaxRankWedgeChecks {
			res.MaxRankWedgeChecks = s.state[i].wedgeChecks
		}
	}
	if s.w.Distributed() {
		s.reduceResult(&res)
	}
	res.AvgPullsPerRank = float64(res.PullsGranted) / float64(s.w.Size())
	if res.MaxRankWedgeChecks > 0 {
		res.WorkBalance = float64(res.WedgeChecks) / (float64(s.w.Size()) * float64(res.MaxRankWedgeChecks))
	}
	return res
}

// reduceResult folds every process's Result partials into world-wide
// totals so a multi-process run reports exactly what the equivalent
// single-process run would. Each process leader contributes its process
// partial to one vector collective — fifteen sums and a max in a single link
// round; the other local ranks contribute zeros but must participate —
// collectives are world-wide. Durations stay process-local: wall clock is
// machine-dependent and excluded from every determinism gate.
func (s *Survey[VM, EM]) reduceResult(res *Result) {
	phases := []*PhaseStats{&res.DryRun, &res.Push, &res.Pull}
	part := []uint64{
		res.Triangles, res.PullsGranted, res.WedgeChecks,
		res.PrunedBatches, res.PrunedCandidates, res.PrunedPullEntries,
	}
	for _, ph := range phases {
		part = append(part, uint64(ph.Bytes), uint64(ph.Messages), uint64(ph.Batches))
	}
	nsum := len(part)
	part = append(part, res.MaxRankWedgeChecks)
	var out []uint64
	s.w.Parallel(func(r *ygm.Rank) {
		x := part
		if r.ID() != s.w.LeaderID() {
			x = make([]uint64, len(part))
		}
		if t := ygm.AllReduceVec(r, x, nsum); r.ID() == s.w.LeaderID() {
			out = t
		}
	})
	res.Triangles, res.PullsGranted, res.WedgeChecks = out[0], out[1], out[2]
	res.PrunedBatches, res.PrunedCandidates, res.PrunedPullEntries = out[3], out[4], out[5]
	for i, ph := range phases {
		ph.Bytes, ph.Messages, ph.Batches = int64(out[6+3*i]), int64(out[7+3*i]), int64(out[8+3*i])
	}
	res.MaxRankWedgeChecks = out[nsum]
}

// --- Plan columns -------------------------------------------------------

// columns returns rank r's plan columns, taking them on the survey's first
// planned phase: the snapshot's offsets and, for a plan with a temporal
// constraint, its timestamp columns for the plan's accessor (built there by
// the first survey to ask, one accessor call per entry); and, for a plan
// with an edge filter, the survey's own ok column, one call of each
// predicate per entry. Every phase body calls it before its first ygm call
// (see planCols); nil without a plan.
func (s *Survey[VM, EM]) columns(r *ygm.Rank) *planCols {
	if !s.plan.active {
		return nil
	}
	st := &s.state[r.ID()]
	c := &st.cols
	if c.built {
		return c
	}
	sc, p := st.sc, &s.plan.plan
	c.off = s.g.Offsets(r)
	n := int(c.off[len(c.off)-1])
	var times graph.EdgeTimes
	if p.hasDelta || p.hasStart || p.hasEnd { // Validate saw to an accessor
		times = s.g.Times(r, p.timeOf)
	}
	c.delta = noDelta
	if s.plan.hasPair {
		c.delta = p.delta
		c.ts, c.gap = times.TS, times.Gap
	}
	if s.plan.hasEdge {
		sc.ok = slices.Grow(sc.ok[:0], n)[:n]
		verts := s.g.LocalVertices(r)
		for vi := range verts {
			adj, k := verts[vi].Adj, int(c.off[vi])
			for j := range adj {
				var t uint64
				if times.TS != nil {
					t = times.TS[k+j]
				}
				sc.ok[k+j] = s.plan.column(adj[j].EMeta, t)
			}
		}
		c.ok = sc.ok
	}
	words := (n + 63) / 64
	sc.parked = slices.Grow(sc.parked[:0], words)[:words]
	clear(sc.parked)
	c.parked = sc.parked
	c.built = true
	return c
}

// --- Dry-run phase (§4.4, "Push vs Pull Dry-Run") ---------------------

// dryRunPhase mimics the push pass over adjacency lists without moving any
// adjacency data: it accumulates, per target vertex, the number of edges
// this rank would push, remembers where each wedge source lives (so pulls
// can be served locally later), and proposes aggregate volumes to target
// owners.
//
// Under a plan, wedges the pushdown filters would fully eliminate — the
// (p,q) edge fails the edge filter, or no suffix candidate survives the
// candidate filter — contribute no volume, are never parked, and so are
// never proposed: their true push cost is zero, and omitting them keeps
// the dry run's negotiation honest. Surviving wedges propose their
// *unfiltered* suffix length, a cheap upper bound on the materialized push.
// The survival test reads the plan columns (planCols.dead): one word of the
// snapshot's gap column settles a δ-only plan's batch; an edge filter adds
// a scan that stops at the first passing candidate. Never a predicate call.
func (s *Survey[VM, EM]) dryRunPhase(r *ygm.Rank) {
	st := &s.state[r.ID()]
	sc := st.sc
	cols := s.columns(r)
	verts := s.g.LocalVertices(r)
	for vi := range verts {
		p := &verts[vi]
		n := len(p.Adj)
		base := 0
		if cols != nil {
			base = int(cols.off[vi])
		}
		for j := 0; j+1 < n; j++ {
			rest := uint64(n - j - 1)
			if cols != nil {
				// Fully-pruned wedges are accounted here, once: the push
				// phase skips them silently in push-pull mode.
				if cols.dead(base+j, base+n) {
					st.prunedBatches++
					st.prunedCands += rest
					continue
				}
				cols.park(base + j)
			}
			sc.parkWedge(p.Adj[j].Target, reqRef{vert: int32(vi), pos: int32(j)}, rest)
		}
	}
	for q, slot := range sc.targ {
		e := r.Begin(s.g.Owner(q), s.hPropose)
		e.PutUvarint(q)
		e.PutUvarint(slot.vol)
		e.PutUvarint(uint64(r.ID()))
		r.Commit(e)
	}
}

// onPropose runs at the target vertex's owner: grant the pull when sending
// Adj⁺ᵐ(q) once beats receiving the proposed volume, otherwise tell the
// source to push as usual. Under a plan with an edge-level filter, the
// pull side's cost is the *filtered* adjacency length — the entries a pull
// reply would actually carry.
func (s *Survey[VM, EM]) onPropose(r *ygm.Rank, d *serialize.Decoder) {
	q := d.Uvarint()
	vol := d.Uvarint()
	src := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt propose message: " + d.Err().Error())
	}
	sc := s.state[r.ID()].sc
	vi := s.g.LocalIndex(r, q)
	if vi < 0 {
		panic("core: propose for vertex not stored at its owner")
	}
	adjLen := len(s.g.LocalVertices(r)[vi].Adj)
	if s.plan.hasEdge {
		adjLen = s.state[r.ID()].cols.countOK(vi)
	}
	if float64(adjLen)*s.opts.PullFactor < float64(vol) {
		sc.grants = append(sc.grants, pullGrant{vert: vi, src: int32(src)})
		return
	}
	e := r.Begin(src, s.hDecline)
	e.PutUvarint(q)
	r.Commit(e)
}

func (s *Survey[VM, EM]) onDecline(r *ygm.Rank, d *serialize.Decoder) {
	q := d.Uvarint()
	if d.Err() != nil {
		panic("core: corrupt decline message: " + d.Err().Error())
	}
	targ := s.state[r.ID()].sc.targ
	slot := targ[q]
	slot.declined = true
	targ[q] = slot
}

// --- Push phase (Alg. 1; §4.3) -----------------------------------------

// pushPhase streams, for every local pivot p and every q ∈ Adj⁺(p), the
// <+-suffix of Adj⁺ᵐ(p) after q to Rank(q), where onPush intersects it with
// Adj⁺ᵐ(q). In Push-Pull mode, targets granted a pull are skipped.
//
// Under a plan, the pushdown happens here: a batch whose (p,q) edge fails
// the edge filter is never enqueued, candidates failing the candidate
// filter are dropped before encoding (the surviving subsequence stays
// sorted, so onPush's merge path is untouched), and a batch whose suffix
// empties is never enqueued either. In Push-Only mode a batch that
// planCols.cut rules out is skipped on one column read, before its suffix is
// scanned. In Push-Pull mode the dry run has already made (and accounted)
// both decisions and left one parked bit per batch it proposed, so a batch
// without the bit is skipped on that bit alone.
func (s *Survey[VM, EM]) pushPhase(r *ygm.Rank) {
	st := &s.state[r.ID()]
	sc := st.sc
	cols := s.columns(r)
	pushPull := s.opts.Mode == PushPull
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()
	verts := s.g.LocalVertices(r)
	for vi := range verts {
		p := &verts[vi]
		n := len(p.Adj)
		base := 0
		if cols != nil {
			base = int(cols.off[vi])
		}
		for j := 0; j+1 < n; j++ {
			if cols != nil {
				if pushPull {
					if !cols.isParked(base + j) {
						continue // fully pruned: nothing was proposed, nothing to ask
					}
				} else if cols.cut(base + j) {
					st.prunedBatches++
					st.prunedCands += uint64(n - j - 1)
					continue
				}
			}
			q := &p.Adj[j]
			if pushPull && !sc.targ[q.Target].declined {
				continue // granted pull: the pull phase covers this wedge batch
			}
			rest := p.Adj[j+1:]
			// Survivors are recorded in one pass over the columns and the
			// encode loop below works from that list, so the header count
			// and the entries written cannot disagree.
			keep := sc.keep[:0]
			if cols != nil {
				keep = cols.survivors(keep, base+j, base+n)
				sc.keep = keep
				if len(keep) == 0 {
					// Only without a dry run: a parked batch has a survivor.
					st.prunedBatches++
					st.prunedCands += uint64(len(rest))
					continue
				}
				st.prunedCands += uint64(len(rest) - len(keep))
			}
			e := r.Begin(s.g.Owner(q.Target), s.hPush)
			e.PutUvarint(p.ID)
			vmC.Encode(e, p.Meta)
			e.PutUvarint(q.Target)
			emC.Encode(e, q.EMeta)
			// Candidate entries carry (r, d(r), meta(p,r)) but not meta(r):
			// Rank(q) already stores meta(r) for any r closing a triangle
			// (§4.3: "this extra metadata is never actually transmitted").
			// d(r) is sent as the gap from the previous candidate's — the
			// suffix is sorted by order key, so TOrd is non-decreasing and
			// the gaps are near-zero varints where absolute values (hub
			// degrees) routinely cost multiple bytes.
			prevOrd := uint32(0)
			if cols != nil {
				e.PutUvarint(uint64(len(keep)))
				for _, k := range keep {
					c := &rest[k]
					e.PutUvarint(c.Target)
					e.PutUvarint(uint64(c.TOrd - prevOrd))
					prevOrd = c.TOrd
					emC.Encode(e, c.EMeta)
				}
			} else {
				e.PutUvarint(uint64(len(rest)))
				for k := range rest {
					c := &rest[k]
					e.PutUvarint(c.Target)
					e.PutUvarint(uint64(c.TOrd - prevOrd))
					prevOrd = c.TOrd
					emC.Encode(e, c.EMeta)
				}
			}
			r.Commit(e)
		}
	}
}

// onPush runs at Rank(q): a streaming merge-path intersection of the
// received candidate list (sorted, a suffix of Adj⁺ᵐ(p)) against Adj⁺ᵐ(q).
// Each match is a triangle Δpqr; all six metadata items are on hand —
// meta(p), meta(p,q), meta(p,r) from the message, meta(q), meta(q,r),
// meta(r) from local storage (§4.3).
func (s *Survey[VM, EM]) onPush(r *ygm.Rank, d *serialize.Decoder) {
	st := &s.state[r.ID()]
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()

	pid := d.Uvarint()
	metaP := vmC.Decode(d)
	qid := d.Uvarint()
	metaPQ := emC.Decode(d)
	count := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt push header: " + d.Err().Error())
	}
	q, ok := s.g.Lookup(r, qid)
	if !ok {
		panic("core: push for vertex not stored at its owner")
	}
	adj := q.Adj
	k := 0
	cdeg := uint32(0)
	for i := 0; i < count; i++ {
		cid := d.Uvarint()
		cdeg += uint32(d.Uvarint())
		metaPR := emC.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt push candidate: " + d.Err().Error())
		}
		ck := graph.KeyOf(cdeg, cid)
		k = gallopOutKey(adj, k, ck)
		st.wedgeChecks++
		if k < len(adj) && adj[k].Target == cid {
			o := &adj[k]
			// With a plan, the source's checks were necessary conditions
			// only; the full predicate runs here on all three edge metas.
			if s.plan.active && !s.plan.tri(metaPQ, metaPR, o.EMeta) {
				k++
				continue
			}
			st.triangles++
			if s.cb != nil {
				t := &st.scratchTri
				t.P, t.Q, t.R = pid, qid, cid
				t.MetaP, t.MetaQ, t.MetaR = metaP, q.Meta, o.TMeta
				t.MetaPQ, t.MetaPR, t.MetaQR = metaPQ, metaPR, o.EMeta
				s.cb(r, t)
			}
			k++
		}
	}
}

// --- Pull phase (§4.4) ---------------------------------------------------

// pullPhase ships each granted Adj⁺ᵐ(q) — once per granting (q, source
// rank) pair — to the source, where onPull completes every wedge batch that
// was parked during the dry run. Target vertex metadata of pulled entries
// is not transmitted: the puller already stores meta(r) for every candidate
// r in its own Adj⁺ᵐ(p) (the same redundancy §4.3 notes for pushes).
// Under a plan with an edge-level filter, entries whose (q,r) edge cannot
// appear in any matching triangle are omitted from the reply (the filtered
// subsequence stays sorted); a reply that would carry no entries is not
// sent at all — the parked wedges at the source can close no triangle.
func (s *Survey[VM, EM]) pullPhase(r *ygm.Rank) {
	st := &s.state[r.ID()]
	sc := st.sc
	cols := s.columns(r)
	filtered := s.plan.hasEdge
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()
	verts := s.g.LocalVertices(r)
	slices.SortFunc(sc.grants, func(a, b pullGrant) int {
		return cmp.Or(cmp.Compare(a.vert, b.vert), cmp.Compare(a.src, b.src))
	})
	for lo, hi := 0, 0; lo < len(sc.grants); lo = hi {
		vi := sc.grants[lo].vert
		for hi = lo + 1; hi < len(sc.grants) && sc.grants[hi].vert == vi; hi++ {
		}
		q := &verts[vi]
		// One pass over the columns per vertex (not per reply): the survivor
		// set is identical across granting sources, and encoding from the
		// recorded indices keeps the header count and the payload in sync
		// (same invariant as pushPhase).
		keep := sc.keep[:0]
		if filtered {
			for k, ok := range cols.ok[cols.off[vi]:cols.off[vi+1]] {
				if ok {
					keep = append(keep, int32(k))
				}
			}
			sc.keep = keep
			st.prunedPull += uint64((len(q.Adj) - len(keep)) * (hi - lo))
			if len(keep) == 0 {
				continue
			}
		}
		for _, g := range sc.grants[lo:hi] {
			e := r.Begin(int(g.src), s.hPull)
			e.PutUvarint(q.ID)
			vmC.Encode(e, q.Meta)
			// Same TOrd gap encoding as the push candidates: Adj⁺ᵐ(q) is
			// sorted by order key, so the gaps are near-zero varints.
			prevOrd := uint32(0)
			if filtered {
				e.PutUvarint(uint64(len(keep)))
				for _, k := range keep {
					o := &q.Adj[k]
					e.PutUvarint(o.Target)
					e.PutUvarint(uint64(o.TOrd - prevOrd))
					prevOrd = o.TOrd
					emC.Encode(e, o.EMeta)
				}
			} else {
				e.PutUvarint(uint64(len(q.Adj)))
				for k := range q.Adj {
					o := &q.Adj[k]
					e.PutUvarint(o.Target)
					e.PutUvarint(uint64(o.TOrd - prevOrd))
					prevOrd = o.TOrd
					emC.Encode(e, o.EMeta)
				}
			}
			r.Commit(e)
		}
	}
}

// onPull runs back at the source rank (the rank that hosts the pivots):
// intersect the pulled Adj⁺ᵐ(q) against every parked local suffix for q.
// The callback fires at Rank(p) here — metadata colocation still holds:
// meta(p), meta(p,q), meta(p,r), meta(r) are local, meta(q) and meta(q,r)
// arrive with the pull.
func (s *Survey[VM, EM]) onPull(r *ygm.Rank, d *serialize.Decoder) {
	st := &s.state[r.ID()]
	emC, vmC := s.g.EdgeCodec(), s.g.VertexCodec()

	qid := d.Uvarint()
	metaQ := vmC.Decode(d)
	count := int(d.Uvarint())
	if d.Err() != nil {
		panic("core: corrupt pull header: " + d.Err().Error())
	}
	sc := st.sc
	buf, _ := sc.pulled.(*[]pullEntry[EM])
	if buf == nil {
		buf = new([]pullEntry[EM])
		sc.pulled = buf
	}
	pulled := (*buf)[:0]
	prevOrd := uint32(0)
	for i := 0; i < count; i++ {
		var pe pullEntry[EM]
		pe.id = d.Uvarint()
		pe.deg = prevOrd + uint32(d.Uvarint())
		prevOrd = pe.deg
		pe.em = emC.Decode(d)
		if d.Err() != nil {
			panic("core: corrupt pull entry: " + d.Err().Error())
		}
		pulled = append(pulled, pe)
	}
	*buf = pulled

	cols := s.columns(r) // built: handlers run after the rank's phase body began
	verts := s.g.LocalVertices(r)
	for n := sc.targ[qid].head; n != 0; n = sc.reqs[n-1].next {
		ref := sc.reqs[n-1].ref
		p := &verts[ref.vert]
		suffix := p.Adj[ref.pos+1:]
		metaPQ := p.Adj[ref.pos].EMeta
		e, tq := 0, uint64(0)
		if cols != nil {
			e = int(cols.off[ref.vert] + ref.pos)
			if cols.ts != nil {
				tq = cols.ts[e]
			}
		}
		k := 0
		for i := range suffix {
			cand := &suffix[i]
			// Mirror of the push side's candidate pushdown: a filtered
			// candidate is skipped without advancing the merge cursor.
			if cols != nil && !cols.passes(e+1+i, tq) {
				st.prunedCands++
				continue
			}
			ck := cand.Key()
			k = gallopPullKey(pulled, k, ck)
			st.wedgeChecks++
			if k < len(pulled) && pulled[k].id == cand.Target {
				if cols != nil && !s.plan.tri(metaPQ, cand.EMeta, pulled[k].em) {
					k++
					continue
				}
				st.triangles++
				if s.cb != nil {
					t := &st.scratchTri
					t.P, t.Q, t.R = p.ID, qid, cand.Target
					t.MetaP, t.MetaQ, t.MetaR = p.Meta, metaQ, cand.TMeta
					t.MetaPQ, t.MetaPR, t.MetaQR = metaPQ, cand.EMeta, pulled[k].em
					s.cb(r, t)
				}
				k++
			}
		}
	}
}

func keyOfPull[EM any](p *pullEntry[EM]) graph.OrderKey {
	return graph.KeyOf(p.deg, p.id)
}
