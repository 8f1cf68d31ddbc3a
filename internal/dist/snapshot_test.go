package dist

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Two-process halves of two properties of the read path on a written graph:
//
//   - snapshot ≡ builder (the one-process half, with the shards themselves
//     as the reference's input, is internal/core's
//     TestSnapshotEqualsBuilderProperty): Stream.Materialize orients the
//     shards' live entries where they are, and its TPDG2 bytes must equal
//     those of a Builder fed the same vertices and live edges;
//   - the link-round budget: how many control-link exchanges and transport
//     messages a snapshot and a traversal cost, pinned exactly.
//
// Both run SPMD, the way ygm programs do: the same seeded script on the
// driver's world and on the worker's, each on its own goroutine, every
// collective in lockstep.

// spmd assembles a 2-process world of perProc ranks each and runs body on
// both processes' worlds concurrently.
func spmd(t *testing.T, perProc int, body func(w *ygm.World)) {
	t.Helper()
	cl, wks := startCluster(t, 2, perProc, tcpOpts())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body(wks[0].World())
	}()
	body(cl.World())
	wg.Wait()
	served := make(chan error, 1)
	go func() { served <- Serve(wks[0], Hooks[U, uint64]{}, nil) }()
	if err := cl.Close(); err != nil {
		t.Errorf("cluster close: %v", err)
	}
	if err := <-served; err != nil {
		t.Errorf("worker serve: %v", err)
	}
}

// streamModel is the serial model of a stream's live set: min-merged
// timestamps, expiry below a cutoff, and every vertex ever seen (expiry
// leaves vertices behind, isolated).
type streamModel struct {
	live  map[[2]uint64]uint64
	verts map[uint64]bool
}

func (m *streamModel) ingest(batch []graph.Edge[uint64]) {
	for _, e := range batch {
		if e.U == e.V {
			continue
		}
		k := [2]uint64{min(e.U, e.V), max(e.U, e.V)}
		if old, ok := m.live[k]; ok {
			m.live[k] = mergeMin(old, e.Meta)
		} else {
			m.live[k] = e.Meta
		}
		m.verts[e.U], m.verts[e.V] = true, true
	}
}

func (m *streamModel) advance(cutoff uint64) {
	for k, ts := range m.live {
		if ts < cutoff {
			delete(m.live, k)
		}
	}
}

// build is the reference: a fresh Builder fed the model's vertices and live
// edges by the driver's ranks (workers feed nothing), on this process's
// side of the collective build.
func (m *streamModel) build(w *ygm.World, ord graph.Ordering) *graph.DODGr[U, uint64] {
	keys := make([][2]uint64, 0, len(m.live))
	for k := range m.live {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	verts := make([]uint64, 0, len(m.verts))
	for v := range m.verts {
		verts = append(verts, v)
	}
	sort.Slice(verts, func(i, j int) bool { return verts[i] < verts[j] })
	b := graph.NewBuilder[U, uint64](w, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{
		Ordering: ord, MergeEdgeMeta: mergeMin,
	})
	var g *graph.DODGr[U, uint64]
	first, count := w.LocalSpan()
	w.Parallel(func(r *ygm.Rank) {
		if first == 0 {
			for i := r.ID(); i < len(keys); i += count {
				b.AddEdge(r, keys[i][0], keys[i][1], m.live[keys[i]])
			}
			for i := r.ID(); i < len(verts); i += count {
				b.SetVertexMeta(r, verts[i], U{})
			}
		}
		if gg := b.Build(r); r.ID() == w.LeaderID() {
			g = gg
		}
	})
	return g
}

// snapshotHistory is the seeded script both processes replay: batches with
// repeated edges and out-of-order timestamps, advances whose cutoff is a
// timestamp live edges carry (ties on both sides), late arrivals that
// resurrect retired edges, and a last advance that retires nearly
// everything (tombstones then outnumber live entries and the shards
// compact).
func snapshotHistory(seed int64) (seedEdges []graph.TemporalEdge, script []durableMutation) {
	const nv, horizon = 26, 32
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 50; i++ {
		seedEdges = append(seedEdges, graph.TemporalEdge{U: rng.Uint64() % nv, V: rng.Uint64() % nv, Time: rng.Uint64() % horizon})
	}
	cutoff := uint64(0)
	for step := 0; step < 8; step++ {
		var batch []graph.Edge[uint64]
		for i := 0; i < 14; i++ {
			e := graph.Edge[uint64]{U: rng.Uint64() % (nv + 6), V: rng.Uint64() % (nv + 6), Meta: rng.Uint64() % horizon}
			batch = append(batch, e)
			if i%5 == 0 {
				batch = append(batch, graph.Edge[uint64]{U: e.V, V: e.U, Meta: rng.Uint64() % horizon})
			}
		}
		if cutoff > 0 { // below the watermark: admitted, and likely a resurrection
			s := seedEdges[rng.Intn(len(seedEdges))]
			batch = append(batch, graph.Edge[uint64]{U: s.U, V: s.V, Meta: cutoff - 1})
		}
		script = append(script, durableMutation{batch: batch})
		if step%2 == 1 {
			cutoff += 4
			if step == 7 {
				cutoff = horizon - 1
			}
			script = append(script, durableMutation{cutoff: cutoff})
		}
	}
	return seedEdges, script
}

// localFiles saves g under dir and returns this process's files by name.
func localFiles(g *graph.DODGr[U, uint64], dir string) (map[string][]byte, error) {
	if err := g.Save(dir); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if files[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return files, nil
}

// surveyFigures is the deterministic part of a count traversal's Result.
func surveyFigures(g *graph.DODGr[U, uint64]) ([8]uint64, error) {
	var n uint64
	r, err := core.Run(g, core.Options{Mode: core.PushPull}, core.TemporalPlan(), core.CountAnalysis[U, uint64]().Bind(&n))
	return [8]uint64{n, r.Triangles, r.WedgeChecks, r.PullsGranted,
		uint64(r.DryRun.Messages), uint64(r.Push.Messages), uint64(r.Pull.Messages),
		uint64(r.DryRun.Bytes + r.Push.Bytes + r.Pull.Bytes)}, err
}

func TestSnapshotEqualsBuilderTwoProcess(t *testing.T) {
	for _, perProc := range []int{1, 2} {
		for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
			t.Run(fmt.Sprintf("2x%d/%v", perProc, ord), func(t *testing.T) {
				seedEdges, script := snapshotHistory(int64(10*perProc) + int64(ord))
				root := t.TempDir()
				spmd(t, perProc, func(w *ygm.World) {
					first, _ := w.LocalSpan()
					var feed []graph.TemporalEdge
					if first == 0 {
						feed = seedEdges
					}
					m := &streamModel{live: map[[2]uint64]uint64{}, verts: map[uint64]bool{}}
					for _, e := range seedEdges {
						m.ingest([]graph.Edge[uint64]{{U: e.U, V: e.V, Meta: e.Time}})
					}
					s, err := core.OpenStream(buildTemporalOrdered(w, feed, ord),
						core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan())
					if err != nil {
						t.Errorf("OpenStream: %v", err)
						return
					}
					handlers := w.NumHandlers()
					for step := -1; step < len(script); step++ {
						label := fmt.Sprintf("proc@%d/seed", first)
						if step >= 0 {
							label = fmt.Sprintf("proc@%d/step%d", first, step)
							if mu := script[step]; mu.batch != nil {
								_, err = s.Ingest(mu.batch)
								m.ingest(mu.batch)
							} else {
								_, err = s.Advance(mu.cutoff)
								m.advance(mu.cutoff)
							}
							if err != nil {
								t.Errorf("%s: %v", label, err)
								return
							}
						}
						snap := s.Materialize()
						ref := m.build(w, snap.Ordering())
						dir := filepath.Join(root, fmt.Sprintf("p%d-%d", first, step+1))
						got, err1 := localFiles(snap, dir+"-snap")
						want, err2 := localFiles(ref, dir+"-ref")
						if err1 != nil || err2 != nil || len(got) != len(want) {
							t.Errorf("%s: save: %v / %v (%d files vs %d)", label, err1, err2, len(got), len(want))
							return
						}
						for name, wb := range want {
							if !bytes.Equal(got[name], wb) {
								t.Errorf("%s: %s differs (%d bytes from the shards, %d from the builder)", label, name, len(got[name]), len(wb))
							}
						}
						for _, g := range []*graph.DODGr[U, uint64]{snap, ref} {
							w.Parallel(func(r *ygm.Rank) {
								if _, err := g.CheckInvariants(r); err != nil {
									t.Errorf("%s: rank %d: %v", label, r.ID(), err)
								}
							})
						}
						fa, erra := surveyFigures(snap)
						fb, errb := surveyFigures(ref)
						if erra != nil || errb != nil || fa != fb {
							t.Errorf("%s: surveys diverge: snapshot %v (%v), builder %v (%v)", label, fa, erra, fb, errb)
						}
					}
					if n := w.NumHandlers(); n != handlers {
						t.Errorf("proc@%d: handler table %d after the history, %d after OpenStream", first, n, handlers)
					}
				})
			})
		}
	}
}

// TestLinkRoundBudget pins, at zero tolerance, what the read path costs on
// the control link and the transport for a fixed seeded 2-process script
// (2 ranks per process, degree ordering; the snapshotHistory of seed 77).
// All four figures are pure functions of the script:
//
//   - exchange rounds per `count` traversal: 2 — one for the survey's
//     Result (sixteen scalar AllReduces before: 16) and one for the
//     attached analysis (17 in all at the parent);
//   - exchange rounds per snapshot: 1, the global figures (8 at the parent,
//     one per figure);
//   - transport messages per snapshot, world-wide: the boundary frames of
//     the vertices the step's mutation reached, at most one per ordered
//     pair of ranks that share an edge (12 on 4 ranks). Every ingest of this
//     script revises a stored timestamp, so it runs an epoch rebuild, whose
//     own Materialize re-orients what the batch changed: the snapshot after
//     it finds nothing dirty and sends nothing. An advance rebuilds nothing,
//     and its snapshot announces the vertices the expiry reached. Measured
//     step by step: parentSnapshotMsgs below at the commit before the
//     orientation stage (4·|E| + |V| messages: 2 ingest halves + 2
//     orientation messages per live edge and one per vertex), 3 515 in all;
//     138 once the stage announced every vertex once per neighbouring rank
//     (12 on every step, 6 on the all-but-empty last); 36 now;
//   - handler-table growth per traversal and per snapshot: 0 (4 per
//     traversal and 4 per snapshot at the parent).
//
// Quiesce rounds depend on how long the wires take to drain: logged, not
// pinned.
func TestLinkRoundBudget(t *testing.T) {
	parentSnapshotMsgs := []int64{253, 299, 275, 324, 376, 280, 320, 364, 272, 328, 376, 48}
	wantSnapshotMsgs := []int64{0, 0, 8, 0, 0, 10, 0, 0, 12, 0, 0, 6}
	seedEdges, script := snapshotHistory(77)
	var mu sync.Mutex
	msgs := map[int]int64{} // step → transport messages of its snapshot, summed over processes
	var quiesce uint64
	spmd(t, 2, func(w *ygm.World) {
		first, _ := w.LocalSpan()
		var feed []graph.TemporalEdge
		if first == 0 {
			feed = seedEdges
		}
		s, err := core.OpenStream(buildTemporalOrdered(w, feed, graph.OrderDegree),
			core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan())
		if err != nil {
			t.Errorf("OpenStream: %v", err)
			return
		}
		for step, m := range script {
			var res core.Result
			if m.batch != nil {
				res, err = s.Ingest(m.batch)
			} else {
				res, err = s.Advance(m.cutoff)
			}
			if err != nil {
				t.Errorf("step %d: %v", step, err)
				return
			}
			if res.Rebuilt != (m.batch != nil) {
				t.Errorf("step %d: rebuilt %v, the script expects a rebuild on every ingest and none on an advance", step, res.Rebuilt)
			}
			handlers, rounds, sent := w.NumHandlers(), w.LinkRounds(), w.Stats().MessagesSent
			snap := s.Materialize()
			afterSnap := w.LinkRounds()
			mu.Lock()
			msgs[step] += w.Stats().MessagesSent - sent
			mu.Unlock()
			if x := afterSnap.Exchange - rounds.Exchange; x != 1 {
				t.Errorf("proc@%d step %d: snapshot made %d exchange rounds, want 1", first, step, x)
			}
			var n uint64
			if _, err := core.Run(snap, core.Options{Mode: core.PushPull}, core.TemporalPlan(), core.CountAnalysis[U, uint64]().Bind(&n)); err != nil {
				t.Errorf("step %d: run: %v", step, err)
				return
			}
			afterRun := w.LinkRounds()
			if x := afterRun.Exchange - afterSnap.Exchange; x != 2 {
				t.Errorf("proc@%d step %d: count traversal made %d exchange rounds, want 2", first, step, x)
			}
			if g := w.NumHandlers() - handlers; g != 0 {
				t.Errorf("proc@%d step %d: handler table grew by %d over a snapshot and a traversal", first, step, g)
			}
			if first == 0 {
				quiesce += afterRun.Quiesce - rounds.Quiesce
			}
		}
	})
	t.Logf("quiesce rounds over %d snapshot+traversal pairs: %d (timing-dependent, not pinned)", len(script), quiesce)
	var total, parentTotal int64
	for step := range script {
		if msgs[step] != wantSnapshotMsgs[step] {
			t.Errorf("step %d: snapshot moved %d transport messages, want %d (parent: %d)", step, msgs[step], wantSnapshotMsgs[step], parentSnapshotMsgs[step])
		}
		total += msgs[step]
		parentTotal += parentSnapshotMsgs[step]
	}
	if 10*total > parentTotal {
		t.Errorf("snapshots moved %d transport messages over the script, not 10x below the parent's %d", total, parentTotal)
	}
}
