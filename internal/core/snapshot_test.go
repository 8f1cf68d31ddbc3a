package core

import (
	"bytes"
	"fmt"
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
// builds when fed the shards' vertex metadata and live edges. The Builder
// call below is that reference: it is what Materialize itself did before the
// snapshot stopped shuffling edges, kept here and nowhere in production.

func builderSnapshot[VM, EM any](s *Stream[VM, EM]) *graph.DODGr[VM, EM] {
	b := graph.NewBuilder(s.w, s.vm, s.em, graph.BuilderOptions[EM]{
		Partitioner:   s.g.Partitioner(),
		Ordering:      s.g.Ordering(),
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

func checkSnapshot(t *testing.T, label string, s *Stream[uint64, uint64], mode Mode) {
	t.Helper()
	snap := s.Materialize()
	ref := builderSnapshot(s)
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
}

func TestSnapshotEqualsBuilderProperty(t *testing.T) {
	const nv, horizon = 28, 32
	var compactions, isolated, resurrected int
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
			checkSnapshot(t, label+"/seed", s, mode)

			var expired []graph.Edge[uint64]
			cutoff := uint64(0)
			for step := 0; step < 10; step++ {
				// Repeated edges (in the batch and against the store),
				// out-of-order timestamps, a late arrival below the cutoff,
				// and the resurrection of an edge an earlier expiry retired.
				var batch []graph.Edge[uint64]
				for i := 0; i < 14; i++ {
					e := graph.Edge[uint64]{U: rng.Uint64() % (nv + 6), V: rng.Uint64() % (nv + 6), Meta: rng.Uint64() % horizon}
					batch = append(batch, e)
					if i%5 == 0 {
						batch = append(batch, graph.Edge[uint64]{U: e.V, V: e.U, Meta: rng.Uint64() % horizon})
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
				checkSnapshot(t, fmt.Sprintf("%s/ingest%d", label, step), s, mode)

				if step%2 == 1 {
					// The cutoff is a timestamp live edges carry, so the expiry
					// has same-timestamp ties on both sides of it; the last one
					// retires almost everything (tombstones then outnumber live
					// entries and MaybeCompact sweeps them).
					cutoff += 3
					if step == 9 {
						cutoff = horizon - 1
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
						compactions++
					}
					checkSnapshot(t, fmt.Sprintf("%s/advance%d", label, cutoff), s, mode)
				}
			}
			if n := w.NumHandlers(); n != afterOpen || afterOpen <= base {
				t.Errorf("%s: handler table %d after the history, %d after OpenStream (%d before)", label, n, afterOpen, base)
			}
			w.Close()
		}
	}
	if compactions == 0 || isolated == 0 || resurrected == 0 {
		t.Errorf("histories never exercised: compactions=%d isolated=%d resurrected=%d", compactions, isolated, resurrected)
	}
}

// BenchmarkMaterialize times one snapshot of a stream the size of the
// benchmark's stream-dist workload (250k comment events over 31k authors,
// 4 ranks), reporting the transport messages it moves.
func BenchmarkMaterialize(b *testing.B) {
	p := gen.DefaultRedditParams()
	p.Events, p.Users = 250_000, 31_250
	edges := gen.RedditLike(p)
	for _, tr := range []ygm.TransportKind{ygm.TransportChannel, ygm.TransportTCP} {
		b.Run(tr.String(), func(b *testing.B) {
			w := ygm.MustWorld(4, ygm.Options{Transport: tr})
			defer w.Close()
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
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sent := w.Stats().MessagesSent
			for i := 0; i < b.N; i++ {
				s.Materialize()
			}
			b.ReportMetric(float64(w.Stats().MessagesSent-sent)/float64(b.N), "msgs/op")
		})
	}
}
