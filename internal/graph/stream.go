package graph

import "sort"

// Mutable shard storage for streaming surveys: the first mutation path in a
// package otherwise built around the immutable DODGr. A StreamShard holds
// one rank's *full* symmetrized neighborhoods (both directions of every
// undirected edge, unlike the DODGr's <+-upward lists: a delta traversal
// for an arriving edge {u,v} intersects whole neighborhoods, so both must
// be on hand at their owners). The layout mirrors the DODGr's CSR
// discipline where it can:
//
//   - Seal compacts the seeded adjacency lists into one contiguous arena,
//     exactly like the DODGr's, so the steady-state scan order of a
//     freshly opened stream matches the immutable graph's;
//   - later insertions append through ordinary slice growth — a vertex
//     whose list outgrows its arena extent migrates to its own backing
//     array on first growth (copy-on-grow), leaving the arena intact for
//     its neighbors;
//   - expiry never moves memory in place: retired entries are tombstoned
//     (Dead = true) so positions stay stable for any in-flight iteration,
//     and Compact sweeps tombstones out between batches once they dominate.
//
// The shard also lists every half-edge changed since the last snapshot
// (created, resurrected, tombstoned, expired or revised): the dirty set
// Orienter.Snapshot re-orients from and then clears.
//
// Entries are sorted by Target id (not by <+ order key — a stream has no
// stable degree order), so neighborhood intersections are merge paths just
// like the survey's, keyed by id.
type StreamShard[VM, EM any] struct {
	Index map[uint64]int32
	Verts []StreamVert[VM, EM]

	arena []StreamEntry[VM, EM] // seed-time backing store (Seal)
	dead  int                   // tombstoned entries not yet compacted
	live  int                   // live entries (half-edges) on this shard
	dirty []halfRef             // half-edges changed since the last snapshot
}

// halfRef names the half-edge v→nbr by its owner's local index.
type halfRef struct {
	v   int32
	nbr uint64
}

// StreamVert is one locally stored vertex of a stream shard: id, metadata
// (fixed at first sight — streams mutate edges, not vertex metadata), and
// the full live+tombstoned neighborhood sorted by Target.
type StreamVert[VM, EM any] struct {
	ID   uint64
	Meta VM
	Adj  []StreamEntry[VM, EM]
	Live int32 // live entries in Adj (the stream's degree of this vertex)
}

// StreamEntry is one half-edge of a stream shard. Epoch records the ingest
// batch that created (or resurrected) the edge — the delta traversal's
// "new this batch" membership test. TMeta inlines the target's vertex
// metadata, the same O(|E|) trade the DODGr makes so triangles can be
// surveyed without visiting their third vertex. Init marks the half whose
// owner initiates delta traversals for this edge (exactly one of the two
// halves carries it): the stream's analog of the DODGr's degree
// orientation, chosen toward the lower-degree endpoint so the shipped
// neighborhood is the small one.
type StreamEntry[VM, EM any] struct {
	Target uint64
	EMeta  EM
	TMeta  VM
	Epoch  uint32
	Dead   bool
	Init   bool
}

// NewStreamShard returns an empty shard.
func NewStreamShard[VM, EM any]() *StreamShard[VM, EM] {
	return &StreamShard[VM, EM]{Index: make(map[uint64]int32)}
}

// Ensure returns the local index of vertex id, creating an empty record
// (zero metadata) on first sight.
func (s *StreamShard[VM, EM]) Ensure(id uint64) int32 {
	if i, ok := s.Index[id]; ok {
		return i
	}
	i := int32(len(s.Verts))
	s.Index[id] = i
	s.Verts = append(s.Verts, StreamVert[VM, EM]{ID: id})
	return i
}

// EnsureMeta is Ensure for a vertex whose metadata is known (seeding).
// Metadata is set only when the record is created.
func (s *StreamShard[VM, EM]) EnsureMeta(id uint64, meta VM) int32 {
	if i, ok := s.Index[id]; ok {
		return i
	}
	i := s.Ensure(id)
	s.Verts[i].Meta = meta
	return i
}

// Seal sorts every seeded adjacency list and compacts them into one
// contiguous arena (the CSR layout), in vertex storage order. Call once
// after seeding, before the first batch; lists appended to afterwards
// migrate off the arena automatically on growth.
func (s *StreamShard[VM, EM]) Seal() {
	var total int
	for i := range s.Verts {
		v := &s.Verts[i]
		sort.Slice(v.Adj, func(a, b int) bool { return v.Adj[a].Target < v.Adj[b].Target })
		total += len(v.Adj)
	}
	s.arena = make([]StreamEntry[VM, EM], 0, total)
	for i := range s.Verts {
		v := &s.Verts[i]
		start := len(s.arena)
		s.arena = append(s.arena, v.Adj...)
		v.Adj = s.arena[start:len(s.arena):len(s.arena)]
		v.Live = int32(len(v.Adj))
	}
	s.live = total
	s.dead = 0
}

// Insert adds or revises the half-edge vi→nbr (vi a local index from
// Ensure). A structurally new or resurrected entry is created with the
// given epoch and reports created = true. An existing live entry is merged:
// merge combines stored and incoming edge metadata (nil keeps the stored
// value), and changed reports whether the stored metadata was revised by
// the merge (eq compares; nil eq treats every merge as unchanged) — the
// signal the stream layer uses to fall back to an epoch rebuild.
func (s *StreamShard[VM, EM]) Insert(vi int32, nbr uint64, em EM, tmeta VM, epoch uint32, merge func(a, b EM) EM, eq func(a, b EM) bool) (created, changed bool) {
	v := &s.Verts[vi]
	k := sort.Search(len(v.Adj), func(i int) bool { return v.Adj[i].Target >= nbr })
	if k < len(v.Adj) && v.Adj[k].Target == nbr {
		e := &v.Adj[k]
		if e.Dead {
			// Resurrection: the retired edge is gone from the live graph, so
			// the incoming metadata replaces (not merges with) the corpse's.
			*e = StreamEntry[VM, EM]{Target: nbr, EMeta: em, TMeta: tmeta, Epoch: epoch}
			s.dead--
			s.live++
			v.Live++
			s.dirty = append(s.dirty, halfRef{vi, nbr})
			return true, false
		}
		if merge == nil {
			return false, false
		}
		old := e.EMeta
		e.EMeta = merge(old, em)
		changed = eq != nil && !eq(old, e.EMeta)
		if changed || eq == nil { // without eq a revision cannot be ruled out
			s.dirty = append(s.dirty, halfRef{vi, nbr})
		}
		return false, changed
	}
	v.Adj = append(v.Adj, StreamEntry[VM, EM]{})
	copy(v.Adj[k+1:], v.Adj[k:])
	v.Adj[k] = StreamEntry[VM, EM]{Target: nbr, EMeta: em, TMeta: tmeta, Epoch: epoch}
	s.live++
	v.Live++
	s.dirty = append(s.dirty, halfRef{vi, nbr})
	return true, false
}

// Find returns the entry vi→nbr (live or dead), or nil.
func (s *StreamShard[VM, EM]) Find(vi int32, nbr uint64) *StreamEntry[VM, EM] {
	v := &s.Verts[vi]
	k := sort.Search(len(v.Adj), func(i int) bool { return v.Adj[i].Target >= nbr })
	if k >= len(v.Adj) || v.Adj[k].Target != nbr {
		return nil
	}
	return &v.Adj[k]
}

// Tombstone marks the half-edge vi→nbr dead. It reports whether a live
// entry was found (idempotent on already-dead entries).
func (s *StreamShard[VM, EM]) Tombstone(vi int32, nbr uint64) bool {
	v := &s.Verts[vi]
	k := sort.Search(len(v.Adj), func(i int) bool { return v.Adj[i].Target >= nbr })
	if k >= len(v.Adj) || v.Adj[k].Target != nbr || v.Adj[k].Dead {
		return false
	}
	v.Adj[k].Dead = true
	s.live--
	s.dead++
	v.Live--
	s.dirty = append(s.dirty, halfRef{vi, nbr})
	return true
}

// Live returns the number of live half-edges stored on this shard.
func (s *StreamShard[VM, EM]) Live() int { return s.live }

// Dead returns the number of tombstoned entries awaiting compaction.
func (s *StreamShard[VM, EM]) Dead() int { return s.dead }

// LiveDeg returns the live degree of the vertex at local index vi.
func (s *StreamShard[VM, EM]) LiveDeg(vi int32) int { return int(s.Verts[vi].Live) }

// ExpireBefore tombstones every live entry whose metadata maps to a
// timestamp below cutoff, returning the number of half-edges retired.
// Both owners of an edge hold the same (merged) metadata, so symmetric
// scans retire both halves without communication.
func (s *StreamShard[VM, EM]) ExpireBefore(timeOf func(EM) uint64, cutoff uint64) int {
	n := 0
	for i := range s.Verts {
		v := &s.Verts[i]
		for j := range v.Adj {
			e := &v.Adj[j]
			if !e.Dead && timeOf(e.EMeta) < cutoff {
				e.Dead = true
				v.Live--
				n++
				s.dirty = append(s.dirty, halfRef{int32(i), e.Target})
			}
		}
	}
	s.live -= n
	s.dead += n
	return n
}

// MaybeCompact sweeps tombstones out of every adjacency list once they
// outnumber live entries (amortized O(1) per retirement). Positions shift,
// so call it only between batches, never during a traversal.
func (s *StreamShard[VM, EM]) MaybeCompact() {
	if s.dead <= s.live {
		return
	}
	for i := range s.Verts {
		v := &s.Verts[i]
		out := v.Adj[:0]
		for j := range v.Adj {
			if !v.Adj[j].Dead {
				out = append(out, v.Adj[j])
			}
		}
		// Keep capacity (likely arena-backed) for future growth; the dead
		// suffix beyond len is unreachable.
		v.Adj = out
	}
	s.dead = 0
}
