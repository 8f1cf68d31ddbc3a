package truss

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"tripoll/internal/analysis"
	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// Index is the maintained triangle-span index: a core.StreamSink that
// keeps a graph.TriSpanStore continuously consistent with a Stream's live
// window, so truss queries answer from the store instead of re-running
// the fused traversal.
//
// Maintenance discipline:
//
//   - edge state is maintained structurally: seed edges arrive via
//     SinkSeedEdge (rank-local, published at SinkCommit), batches via
//     SinkBatch (the premerged batch is process-identical, applied
//     locally), expiry via SinkExpire (everything below the cutoff
//     leaves, mirroring the shard tombstone pass). Re-insertions merge
//     timestamps through MergeTimestamp, which MUST equal the stream's
//     MergeEdgeMeta or the stored timestamps diverge from the shards;
//   - support state follows the triangle events: insertions bump the
//     [lo, hi] bucket on the triangle's three edges. Expiry deltas are
//     ignored (a triangle dies iff its minimum edge timestamp falls
//     below the watermark, so SinkExpire's drop-buckets-by-lo is exact,
//     and the Ingest delta path never emits negative signs — a revising
//     merge forces an epoch rebuild instead), and a rebuild resets
//     support before the full traversal re-delivers it;
//   - SinkCommit publishes the rank-local event buffers with one
//     AllGather per kind and applies them in global rank order — after
//     it, every process of a distributed world holds an identical store,
//     which is what lets the driver answer queries with zero messages.
//
// Queries go through ServeQuery, which also implements the engine's
// index-serving seam structurally (IndexEpoch + ServeQuery). Results are
// memoized; a commit drops the cached windows its dirty timestamp range
// overlaps, so the memo holds only answers that are still valid. One
// goroutine must drive the sink and query methods (the engine's scheduler
// does); mu exists so Stats can read concurrently from observability
// endpoints.
type Index[VM any] struct {
	mu    sync.Mutex
	store *graph.TriSpanStore
	merge func(a, b uint64) uint64

	edgeBuf [][]uint64 // per global rank: (u, v, ts) seed-edge triples
	triBuf  [][]uint64 // per global rank: (p, q, r, lo, hi) triangle tuples

	epoch uint64

	// Pending dirty bounds for the commit in progress.
	pendingDirty bool
	pendingLo    uint64
	pendingHi    uint64
	pendingReset bool

	// Epochs of the last maxDirty commits that had a dirty range,
	// ascending; floor is the newest one trimmed off. A memo entry older
	// than floor is dropped even when no dirty range overlapped it: the
	// memo keeps an answer for at most maxDirty dirty commits.
	dirty []uint64
	floor uint64

	cache map[string]cacheEntry
	win   graph.WindowRead // ReadWindow's buffers, reused across reads

	// Serving statistics, exposed through Stats.
	served, recomputed, commits uint64
	// Window-read work, exposed through Stats.
	windowReads, edgesScanned, bucketsScanned uint64
}

const maxDirty = 64

type cacheEntry struct {
	epoch       uint64
	from, until uint64
	val         any
}

// IndexOptions configures NewIndex.
type IndexOptions struct {
	// MergeTimestamp combines stored and incoming timestamps on duplicate
	// edge insertion. Must equal the stream's MergeEdgeMeta (nil keeps
	// the stored value, like a nil merge there).
	MergeTimestamp func(a, b uint64) uint64
}

// NewIndex returns an empty index ready to be attached at stream open via
// core.OpenStreamSinks.
func NewIndex[VM any](opts IndexOptions) *Index[VM] {
	return &Index[VM]{
		store: graph.NewTriSpanStore(),
		merge: opts.MergeTimestamp,
		cache: make(map[string]cacheEntry),
	}
}

// Store exposes the underlying triangle-span store (snapshot encoding,
// direct inspection in tests).
func (ix *Index[VM]) Store() *graph.TriSpanStore { return ix.store }

// IndexStats is the index's observability surface.
type IndexStats struct {
	Epoch      uint64 `json:"epoch"`
	Edges      int    `json:"edges"`
	Buckets    int    `json:"buckets"`
	Served     uint64 `json:"served"`
	Recomputed uint64 `json:"recomputed"`
	Commits    uint64 `json:"commits"`
	// MemoEntries is how many memoized answers are held; every one is
	// still valid for its window.
	MemoEntries int `json:"memo_entries"`
	// WindowReads counts window reads of the store (one per recomputed
	// trussness or maxtruss answer, one per span of a spantruss);
	// EdgesScanned the slots those reads visited, BucketsScanned the
	// support buckets. All three are a pure function of the store and the
	// windows asked.
	WindowReads    uint64 `json:"window_reads"`
	EdgesScanned   uint64 `json:"edges_scanned"`
	BucketsScanned uint64 `json:"buckets_scanned"`
}

// Stats reports the index's current size and serving counters. Safe to
// call from any goroutine.
func (ix *Index[VM]) Stats() IndexStats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return IndexStats{
		Epoch:      ix.epoch,
		Edges:      ix.store.NumEdges(),
		Buckets:    ix.store.NumBuckets(),
		Served:     ix.served,
		Recomputed: ix.recomputed,
		Commits:    ix.commits,

		MemoEntries:    len(ix.cache),
		WindowReads:    ix.windowReads,
		EdgesScanned:   ix.edgesScanned,
		BucketsScanned: ix.bucketsScanned,
	}
}

func (ix *Index[VM]) touch(lo, hi uint64) {
	if !ix.pendingDirty {
		ix.pendingDirty, ix.pendingLo, ix.pendingHi = true, lo, hi
		return
	}
	if lo < ix.pendingLo {
		ix.pendingLo = lo
	}
	if hi > ix.pendingHi {
		ix.pendingHi = hi
	}
}

// StreamSink implementation. VM is the stream's vertex metadata type; the
// edge metadata must be uint64 timestamps, like every temporal analysis.

// SinkName identifies the sink in diagnostics.
func (ix *Index[VM]) SinkName() string { return "truss-index" }

// SinkOpen sizes the per-rank event buffers.
func (ix *Index[VM]) SinkOpen(nranks int) {
	ix.edgeBuf = make([][]uint64, nranks)
	ix.triBuf = make([][]uint64, nranks)
}

// SinkSeedEdge buffers one seed edge on its observing rank.
func (ix *Index[VM]) SinkSeedEdge(r *ygm.Rank, u, v uint64, em uint64) {
	ix.edgeBuf[r.ID()] = append(ix.edgeBuf[r.ID()], u, v, em)
}

// SinkTriangle buffers one created triangle on its observing rank.
// Expiry deltas (sign < 0) are ignored; see the type comment.
func (ix *Index[VM]) SinkTriangle(r *ygm.Rank, t *core.Triangle[VM, uint64], sign int) {
	if sign < 0 {
		return
	}
	lo, hi := envelope(t.MetaPQ, t.MetaPR, t.MetaQR)
	ix.triBuf[r.ID()] = append(ix.triBuf[r.ID()], t.P, t.Q, t.R, lo, hi)
}

// SinkBatch applies one premerged Ingest batch to the edge state. The
// batch is identical on every process, so this needs no exchange.
func (ix *Index[VM]) SinkBatch(batch []graph.Edge[uint64]) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, e := range batch {
		if old, ok := ix.store.Timestamp(e.U, e.V); ok {
			// A duplicate can revise the stored timestamp; both values
			// bound the affected windows.
			ix.touch(minU64(old, e.Meta), maxU64(old, e.Meta))
		} else {
			ix.touch(e.Meta, e.Meta)
		}
		ix.store.InsertEdge(e.U, e.V, e.Meta, ix.merge)
	}
}

// SinkExpire drops everything below the watermark, mirroring the shard
// tombstone pass.
func (ix *Index[VM]) SinkExpire(cutoff uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.store.ExpireBefore(cutoff)
	if cutoff > 0 {
		ix.touch(0, cutoff-1)
	}
}

// SinkReset clears support state ahead of an epoch rebuild; the rebuild's
// full traversal re-delivers every live-window triangle via SinkTriangle.
func (ix *Index[VM]) SinkReset() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.store.ResetSupport()
	ix.pendingReset = true
}

// SinkInvertible reports that the index tolerates the delta expiry path.
func (ix *Index[VM]) SinkInvertible() bool { return true }

// SinkCommit publishes the rank-local buffers collectively and applies
// them in global rank order, identically on every process.
func (ix *Index[VM]) SinkCommit(w *ygm.World) {
	var edges, tris [][]uint64
	w.Parallel(func(r *ygm.Rank) {
		ge := ygm.AllGather(r, ix.edgeBuf[r.ID()])
		gt := ygm.AllGather(r, ix.triBuf[r.ID()])
		if r.ID() == w.LeaderID() {
			edges, tris = ge, gt
		}
	})
	ix.mu.Lock()
	defer ix.mu.Unlock()
	changed := false
	for _, buf := range edges {
		for i := 0; i+3 <= len(buf); i += 3 {
			u, v, ts := buf[i], buf[i+1], buf[i+2]
			ix.store.InsertEdge(u, v, ts, ix.merge)
			ix.touch(ts, ts)
			changed = true
		}
	}
	for _, buf := range tris {
		for i := 0; i+5 <= len(buf); i += 5 {
			ix.store.AddSupport(buf[i], buf[i+1], buf[i+2], buf[i+3], buf[i+4], 1)
			ix.touch(buf[i+3], buf[i+4])
			changed = true
		}
	}
	for i := range ix.edgeBuf {
		ix.edgeBuf[i] = ix.edgeBuf[i][:0]
	}
	for i := range ix.triBuf {
		ix.triBuf[i] = ix.triBuf[i][:0]
	}
	if !changed && !ix.pendingDirty && !ix.pendingReset {
		return // empty commit: nothing moved, keep the epoch (and caches)
	}
	ix.epoch++
	ix.commits++
	if ix.pendingReset {
		// A rebuild replays every live triangle; invalidate wholesale.
		ix.cache = make(map[string]cacheEntry)
		ix.dirty = ix.dirty[:0]
		ix.floor = ix.epoch
	} else if ix.pendingDirty {
		ix.dirty = append(ix.dirty, ix.epoch)
		for len(ix.dirty) > maxDirty {
			ix.floor = ix.dirty[0]
			ix.dirty = ix.dirty[1:]
		}
		for key, ent := range ix.cache {
			if ent.epoch < ix.floor || (ix.pendingLo <= ent.until && ent.from <= ix.pendingHi) {
				delete(ix.cache, key)
			}
		}
	}
	ix.pendingDirty, ix.pendingReset = false, false
}

func (ix *Index[VM]) cachePut(key string, from, until uint64, val any) {
	ix.cache[key] = cacheEntry{epoch: ix.epoch, from: from, until: until, val: val}
}

// decompose peels one window from the store: edges timestamped inside it
// (ReadWindow returns them in the kernel's order), seeded with the
// window's (δ-constrained) bucket sums.
func (ix *Index[VM]) decompose(wn Window, hasDelta bool, delta uint64) analysis.Trussness {
	ix.store.ReadWindow(&ix.win, wn.From, wn.Until, hasDelta, delta)
	ix.windowReads++
	ix.edgesScanned += uint64(ix.win.Slots)
	ix.bucketsScanned += uint64(ix.win.Buckets)
	edges := make([]analysis.Edge, len(ix.win.Edges))
	sup := make([]int32, len(ix.win.Edges))
	for i, p := range ix.win.Edges {
		edges[i] = analysis.Edge{U: p.First, V: p.Second}
		sup[i] = analysis.SupportOf(ix.win.Support[i])
	}
	return analysis.Peel(edges, sup)
}

// IndexEpoch returns the commit counter; the engine keys its own result
// cache on it so index-backed answers invalidate with the index.
func (ix *Index[VM]) IndexEpoch() uint64 { return ix.epoch }

// ServeQuery answers one truss analysis from the maintained index:
// handled reports whether the analysis is index-backed at all (false
// falls through to the traversal path); the answer is byte-identical to
// the corresponding Analysis's outcome on the materialized snapshot.
// from/until/delta carry the query's window exactly as the engine's
// traversal path would compile them into a plan.
func (ix *Index[VM]) ServeQuery(name string, args json.RawMessage, from, until, delta *uint64) (any, bool, error) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	env := WholeWindow()
	if from != nil {
		env.From = *from
	}
	if until != nil {
		env.Until = *until
	}
	hasDelta := delta != nil
	var d uint64
	if hasDelta {
		d = *delta
	}
	switch name {
	case "trussness", "maxtruss":
		key := fmt.Sprintf("%s|%d|%d|%v|%d", name, env.From, env.Until, hasDelta, d)
		if ent, ok := ix.cache[key]; ok {
			ix.served++
			return ent.val, true, nil
		}
		tr := ix.decompose(env, hasDelta, d)
		var out any
		if name == "trussness" {
			out = buildDecomp(tr)
		} else {
			out = buildMax(tr)
		}
		ix.cachePut(key, env.From, env.Until, out)
		ix.served++
		ix.recomputed++
		return out, true, nil
	case "spantruss":
		var sa SpanTrussArgs
		if len(args) > 0 {
			if err := json.Unmarshal(args, &sa); err != nil {
				return nil, true, fmt.Errorf("%w: %w", ErrBadSpanTrussArgs, err)
			}
		}
		k, spans, err := sa.Normalize(env)
		if err != nil {
			return nil, true, err
		}
		var kb strings.Builder
		fmt.Fprintf(&kb, "spantruss|%d|%d|%v|%d|%d", env.From, env.Until, hasDelta, d, k)
		for _, sp := range spans {
			fmt.Fprintf(&kb, "|%d,%d", sp.From, sp.Until)
		}
		key := kb.String()
		if ent, ok := ix.cache[key]; ok {
			ix.served++
			return ent.val, true, nil
		}
		out := SpanResult{K: k, Spans: make([]SpanTruss, len(spans))}
		for i, sp := range spans {
			eff := sp.intersect(env)
			out.Spans[i] = buildSpanTruss(k, sp, ix.decompose(eff, hasDelta, d))
		}
		ix.cachePut(key, env.From, env.Until, out)
		ix.served++
		ix.recomputed++
		return out, true, nil
	default:
		return nil, false, nil
	}
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
