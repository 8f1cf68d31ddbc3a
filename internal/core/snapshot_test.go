package core

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// The snapshot ≡ builder property: Stream.Materialize orients the shards'
// live entries in place (graph.Orienter.Snapshot), and the graph it returns
// must be — to the byte of its TPDG2 snapshot — the graph a fresh Builder
// builds, with the snapshot's ordering, when fed the shards' vertex metadata
// and live edges. The Builder call below is that reference: it is what
// Materialize itself did before the snapshot stopped shuffling edges, kept
// here and nowhere in production. A snapshot re-orients only what changed
// and shares every other list with the one before, so the property also
// re-saves every earlier snapshot after the later ones: a published graph
// never changes.

func builderSnapshot[VM, EM any](s *Stream[VM, EM], ord graph.Ordering) *graph.DODGr[VM, EM] {
	b := graph.NewBuilder(s.w, s.vm, s.em, graph.BuilderOptions[EM]{
		Partitioner:   s.g.Partitioner(),
		Ordering:      ord,
		MergeEdgeMeta: s.opts.MergeEdgeMeta,
	})
	var g *graph.DODGr[VM, EM]
	s.w.Parallel(func(r *ygm.Rank) {
		sh := s.shards[r.ID()]
		for vi := range sh.Verts {
			v := &sh.Verts[vi]
			b.SetVertexMeta(r, v.ID, v.Meta)
			for j := range v.Adj {
				c := &v.Adj[j]
				if c.Dead || v.ID >= c.Target {
					continue
				}
				b.AddEdge(r, v.ID, c.Target, c.EMeta)
			}
		}
		gg := b.Build(r)
		if r.ID() == s.w.LeaderID() {
			g = gg
		}
	})
	return g
}

// saveBytes returns the files of g's snapshot, by name.
func saveBytes[VM, EM any](t *testing.T, g *graph.DODGr[VM, EM]) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := g.Save(dir); err != nil {
		t.Fatalf("save: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// counters is the deterministic part of a Result.
func counters(r Result) [16]uint64 {
	return [16]uint64{
		r.Triangles, r.PullsGranted, r.WedgeChecks, r.MaxRankWedgeChecks,
		r.PrunedBatches, r.PrunedCandidates, r.PrunedPullEntries,
		uint64(r.DryRun.Messages), uint64(r.DryRun.Bytes),
		uint64(r.Push.Messages), uint64(r.Push.Bytes),
		uint64(r.Pull.Messages), uint64(r.Pull.Bytes),
	}
}

// checkSnapshot materializes s, checks the snapshot against the builder's
// graph, and returns it with its saved files.
func checkSnapshot(t *testing.T, label string, s *Stream[uint64, uint64], mode Mode) (*graph.DODGr[uint64, uint64], map[string][]byte) {
	t.Helper()
	snap := s.Materialize()
	ref := builderSnapshot(s, snap.Ordering())
	got, want := saveBytes(t, snap), saveBytes(t, ref)
	if len(got) != len(want) {
		t.Fatalf("%s: snapshot wrote %d files, builder %d", label, len(got), len(want))
	}
	for name, wb := range want {
		if !bytes.Equal(got[name], wb) {
			t.Errorf("%s: %s differs (%d bytes from the shards, %d from the builder)", label, name, len(got[name]), len(wb))
		}
	}
	var local [2]uint64
	for i, g := range []*graph.DODGr[uint64, uint64]{snap, ref} {
		errs := make([]error, s.w.Size())
		plus := make([]uint64, s.w.Size())
		s.w.Parallel(func(r *ygm.Rank) { plus[r.ID()], errs[r.ID()] = g.CheckInvariants(r) })
		for rank, err := range errs {
			if err != nil {
				t.Fatalf("%s: invariants, graph %d rank %d: %v", label, i, rank, err)
			}
			local[i] += plus[rank]
		}
	}
	if local[0] != snap.NumUndirectedEdges() || local[0] != local[1] {
		t.Errorf("%s: G+ edges: %d counted on the snapshot (figure %d), %d on the builder's", label, local[0], snap.NumUndirectedEdges(), local[1])
	}
	var a, b uint64
	ra, err := Run(snap, Options{Mode: mode}, TemporalPlan().CloseWithin(12), CountAnalysis[uint64, uint64]().Bind(&a))
	if err != nil {
		t.Fatalf("%s: run on snapshot: %v", label, err)
	}
	rb, err := Run(ref, Options{Mode: mode}, TemporalPlan().CloseWithin(12), CountAnalysis[uint64, uint64]().Bind(&b))
	if err != nil {
		t.Fatalf("%s: run on builder graph: %v", label, err)
	}
	if a != b || counters(ra) != counters(rb) {
		t.Errorf("%s: surveys diverge:\n snapshot %d %v\n builder  %d %v", label, a, counters(ra), b, counters(rb))
	}
	return snap, got
}

func TestSnapshotEqualsBuilderProperty(t *testing.T) {
	const nv, horizon, steps = 28, 32, 40
	var shardCompactions, snapshotCompactions, isolated, resurrected int
	for _, ranks := range []int{1, 3, 4} {
		for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
			label := fmt.Sprintf("ranks%d/%v", ranks, ord)
			rng := rand.New(rand.NewSource(int64(100*ranks) + int64(ord)))
			mode := []Mode{PushOnly, PushPull}[ranks%2]
			w := ygm.MustWorld(ranks, ygm.Options{})
			base := w.NumHandlers()

			// Seed graph with vertex metadata, so the boundary records carry
			// something; vertices the stream meets later have none.
			sb := graph.NewBuilder(w, serialize.Uint64Codec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{Ordering: ord, MergeEdgeMeta: minMerge})
			var seed *graph.DODGr[uint64, uint64]
			w.Parallel(func(r *ygm.Rank) {
				if r.ID() == 0 {
					seedRng := rand.New(rand.NewSource(int64(ranks)))
					for i := 0; i < 50; i++ {
						sb.AddEdge(r, seedRng.Uint64()%nv, seedRng.Uint64()%nv, seedRng.Uint64()%horizon)
					}
					for v := uint64(0); v < nv; v += 2 {
						sb.SetVertexMeta(r, v, 1000+v)
					}
				}
				if g := sb.Build(r); r.ID() == 0 {
					seed = g
				}
			})
			s, err := OpenStream(seed, StreamOptions[uint64]{Survey: Options{Mode: mode}, MergeEdgeMeta: minMerge}, TemporalPlan())
			if err != nil {
				t.Fatalf("%s: OpenStream: %v", label, err)
			}
			afterOpen := w.NumHandlers()
			type published struct {
				label string
				g     *graph.DODGr[uint64, uint64]
				files map[string][]byte
			}
			var history []published
			check := func(label string) {
				g, files := checkSnapshot(t, label, s, mode)
				history = append(history, published{label, g, files})
			}
			check(label + "/seed")

			var expired []graph.Edge[uint64]
			cutoff := uint64(0)
			for step := 0; step < steps; step++ {
				// Repeated edges (in the batch and against the store),
				// out-of-order timestamps, late arrivals below the cutoff,
				// and the resurrection of an edge an earlier expiry retired.
				var batch []graph.Edge[uint64]
				lo := cutoff - min(cutoff, 4)
				for i := 0; i < 14; i++ {
					e := graph.Edge[uint64]{U: rng.Uint64() % (nv + 6), V: rng.Uint64() % (nv + 6), Meta: lo + rng.Uint64()%horizon}
					batch = append(batch, e)
					if i%5 == 0 {
						batch = append(batch, graph.Edge[uint64]{U: e.V, V: e.U, Meta: lo + rng.Uint64()%horizon})
					}
				}
				if len(expired) > 0 {
					e := expired[rng.Intn(len(expired))]
					e.Meta = cutoff + rng.Uint64()%4
					batch = append(batch, e)
					resurrected++
				}
				if _, err := s.Ingest(batch); err != nil {
					t.Fatalf("%s: ingest %d: %v", label, step, err)
				}
				check(fmt.Sprintf("%s/ingest%d", label, step))

				if step%2 == 1 {
					// The cutoff is a timestamp live edges carry, so the expiry
					// has same-timestamp ties on both sides of it; the last one
					// retires almost everything (tombstones then outnumber live
					// entries and MaybeCompact sweeps them).
					cutoff += 3
					if step == steps-1 {
						cutoff += horizon - 4
					}
					for _, sh := range s.shards {
						for vi := range sh.Verts {
							v := &sh.Verts[vi]
							for j := range v.Adj {
								if c := &v.Adj[j]; !c.Dead && v.ID < c.Target && c.EMeta < cutoff {
									expired = append(expired, graph.Edge[uint64]{U: v.ID, V: c.Target})
								}
							}
						}
					}
					dead := 0
					for _, sh := range s.shards {
						dead += sh.Dead()
					}
					if _, err := s.Advance(cutoff); err != nil {
						t.Fatalf("%s: advance %d: %v", label, cutoff, err)
					}
					after := 0
					for _, sh := range s.shards {
						after += sh.Dead()
						for vi := range sh.Verts {
							if sh.LiveDeg(int32(vi)) == 0 {
								isolated++
							}
						}
					}
					if after < dead {
						shardCompactions++
					}
					check(fmt.Sprintf("%s/advance%d", label, cutoff))
				}
			}
			// Every snapshot saves as it did when it was published, however
			// many later snapshots reused its lists.
			for _, p := range history {
				for name, b := range saveBytes(t, p.g) {
					if !bytes.Equal(b, p.files[name]) {
						t.Errorf("%s: %s changed after later snapshots", p.label, name)
					}
				}
			}
			snapshotCompactions += s.orient.Compactions()
			if n := w.NumHandlers(); n != afterOpen || afterOpen <= base {
				t.Errorf("%s: handler table %d after the history, %d after OpenStream (%d before)", label, n, afterOpen, base)
			}
			w.Close()
		}
	}
	if shardCompactions == 0 || snapshotCompactions == 0 || isolated == 0 || resurrected == 0 {
		t.Errorf("histories never exercised: shard compactions=%d snapshot compactions=%d isolated=%d resurrected=%d",
			shardCompactions, snapshotCompactions, isolated, resurrected)
	}
}

// liveSet is a stream's live edge set as its shards hold it: vertex →
// live neighbour → edge timestamp, for every vertex the shards ever met.
type liveSet map[uint64]map[uint64]uint64

func liveOf[VM any](s *Stream[VM, uint64]) liveSet {
	ls := liveSet{}
	for _, sh := range s.shards {
		for vi := range sh.Verts {
			v := &sh.Verts[vi]
			nb := map[uint64]uint64{}
			for j := range v.Adj {
				if c := &v.Adj[j]; !c.Dead {
					nb[c.Target] = c.EMeta
				}
			}
			ls[v.ID] = nb
		}
	}
	return ls
}

// owedWork is the number of half-edges a degree-class snapshot must decide
// between two live sets, derived by brute force: every live half-edge of a
// vertex whose degree class moved (a newcomer's moves from 0), and for any
// other vertex each live half-edge that is new, carries a new timestamp, or
// leads to a vertex whose class moved.
func owedWork(before, after liveSet) uint64 {
	moved := func(v uint64) bool { return bits.Len(uint(len(before[v]))) != bits.Len(uint(len(after[v]))) }
	var n uint64
	for v, nb := range after {
		if moved(v) {
			n += uint64(len(nb))
			continue
		}
		for u, ts := range nb {
			if old, ok := before[v][u]; !ok || old != ts || moved(u) {
				n++
			}
		}
	}
	return n
}

// TestSnapshotWork pins, at zero tolerance, the half-edges each snapshot of
// a seeded 4-rank script orients (StreamStats.SnapshotEntries): none before
// the first mutation (the snapshot is the seed graph), every live half-edge
// on the first stage after it, none on a second with nothing changed, and
// after a 64-edge ingest and after an advance retiring about 2 % of the
// edges exactly what owedWork derives from the shards' live sets before
// and after.
func TestSnapshotWork(t *testing.T) {
	const (
		nv, seedEdges, horizon = 500, 2000, 1000
		wantFresh              = 3996
		wantIngest             = 386
		wantAdvance            = 250
	)
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	rng := rand.New(rand.NewSource(26))
	edges := make([]graph.TemporalEdge, seedEdges)
	for i := range edges {
		edges[i] = graph.TemporalEdge{U: rng.Uint64() % nv, V: rng.Uint64() % nv, Time: rng.Uint64() % horizon}
	}
	sb := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{MergeEdgeMeta: minMerge})
	var seed *graph.DODGr[serialize.Unit, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for i := r.ID(); i < len(edges); i += r.Size() {
			sb.AddEdge(r, edges[i].U, edges[i].V, edges[i].Time)
		}
		if g := sb.Build(r); r.ID() == 0 {
			seed = g
		}
	})
	s, err := OpenStream(seed, StreamOptions[uint64]{MergeEdgeMeta: minMerge}, TemporalPlan())
	if err != nil {
		t.Fatal(err)
	}
	var g *graph.DODGr[serialize.Unit, uint64]
	snapshot := func() uint64 {
		before := s.Stats().SnapshotEntries
		g = s.Materialize()
		return s.Stats().SnapshotEntries - before
	}
	// Edges later than anything stored, some to vertices the stream has
	// not met: no merge revises a timestamp, so no ingest rebuilds.
	next := uint64(horizon)
	batch := func(n int) []graph.Edge[uint64] {
		b := make([]graph.Edge[uint64], n)
		for i := range b {
			b[i] = graph.Edge[uint64]{U: rng.Uint64() % (nv + 40), V: rng.Uint64() % (nv + 40), Meta: next}
			next++
		}
		return b
	}

	if got := snapshot(); got != 0 || g.Ordering() != graph.OrderDegree || g.NumWedges() != seed.NumWedges() {
		t.Errorf("snapshot before any mutation oriented %d half-edges into a %v graph of %d wedges, want the %v seed's %d and none",
			got, g.Ordering(), g.NumWedges(), seed.Ordering(), seed.NumWedges())
	}
	if _, err := s.Ingest(batch(16)); err != nil {
		t.Fatal(err)
	}
	var half uint64
	for _, nb := range liveOf(s) {
		half += uint64(len(nb))
	}
	if got := snapshot(); got != half || got != wantFresh || g.Ordering() != graph.OrderDegreeClass {
		t.Errorf("first stage oriented %d half-edges (%v), want every live one: %d (pinned %d)", got, g.Ordering(), half, wantFresh)
	}
	if got := snapshot(); got != 0 {
		t.Errorf("snapshot with nothing changed oriented %d half-edges, want 0", got)
	}
	for _, step := range []struct {
		name   string
		mutate func() (Result, error)
		want   uint64
	}{
		{"ingest", func() (Result, error) { return s.Ingest(batch(64)) }, wantIngest},
		{"advance", func() (Result, error) { return s.Advance(horizon / 40) }, wantAdvance},
	} {
		before := liveOf(s)
		res, err := step.mutate()
		if err != nil || res.Rebuilt {
			t.Fatalf("%s: err %v, rebuilt %v", step.name, err, res.Rebuilt)
		}
		owed := owedWork(before, liveOf(s))
		if got := snapshot(); got != owed || got != step.want {
			t.Errorf("snapshot after the %s oriented %d half-edges, brute force says %d (pinned %d)", step.name, got, owed, step.want)
		}
	}
	if st := s.Stats(); st.Snapshots != 5 {
		t.Errorf("%d snapshots, want 5", st.Snapshots)
	}
}

// BenchmarkMaterialize times one snapshot of a stream the size of the
// benchmark's stream-dist workload (250k comment events over 31k authors,
// 4 ranks; a fifth of that under -short), reporting the transport messages
// and the half-edges it orients. Both cases start after the first stage
// (one ingest, then a snapshot that orients everything). "unchanged"
// snapshots a stream that holds no change since the previous snapshot;
// "after-ingest" first ingests, off the clock, the next 256 events of the
// stream's own continuation.
func BenchmarkMaterialize(b *testing.B) {
	const batch, batches = 256, 256
	p := gen.DefaultRedditParams()
	p.Events, p.Users = 250_000, 31_250
	if testing.Short() {
		p.Events, p.Users = 50_000, 6_250
	}
	base := p.Events
	p.Events += batch * batches
	events := gen.RedditLike(p)
	for _, tr := range []ygm.TransportKind{ygm.TransportChannel, ygm.TransportTCP} {
		for _, ingest := range []bool{false, true} {
			name := tr.String() + "/unchanged"
			if ingest {
				name = tr.String() + "/after-ingest"
			}
			b.Run(name, func(b *testing.B) {
				w := ygm.MustWorld(4, ygm.Options{Transport: tr})
				defer w.Close()
				sb := graph.NewBuilder(w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{MergeEdgeMeta: minMerge})
				var seed *graph.DODGr[serialize.Unit, uint64]
				w.Parallel(func(r *ygm.Rank) {
					for i := r.ID(); i < base; i += r.Size() {
						sb.AddEdge(r, events[i].U, events[i].V, events[i].Time)
					}
					if g := sb.Build(r); r.ID() == 0 {
						seed = g
					}
				})
				s, err := OpenStream(seed, StreamOptions[uint64]{MergeEdgeMeta: minMerge}, TemporalPlan())
				if err != nil {
					b.Fatal(err)
				}
				next := make([]graph.Edge[uint64], batch)
				ingestBatch := func(i int) {
					for k := range next {
						e := events[base+(i%batches)*batch+k]
						next[k] = graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time}
					}
					if _, err := s.Ingest(next); err != nil {
						b.Fatal(err)
					}
				}
				// The first stage, after the first mutation, orients everything.
				ingestBatch(0)
				s.Materialize()
				var msgs int64
				oriented := s.Stats().SnapshotEntries
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if ingest {
						b.StopTimer()
						ingestBatch(i + 1)
						b.StartTimer()
					}
					sent := w.Stats().MessagesSent
					s.Materialize()
					msgs += w.Stats().MessagesSent - sent
				}
				b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
				b.ReportMetric(float64(s.Stats().SnapshotEntries-oriented)/float64(b.N), "entries/op")
			})
		}
	}
}
