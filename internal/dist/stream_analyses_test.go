package dist

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// streamAnswers is what a stream publishes after one step: its live
// triangle count and the four stock invertible analyses.
type streamAnswers struct {
	Triangles uint64
	Count     uint64
	Verts     map[uint64]uint64
	Joint     *stats.Joint2D
	Labels    map[uint64]uint64
}

// streamAnswersOf opens a stream over g with the four stock invertible
// analyses attached and returns its answers after the seed and after every
// step of script, with the number of steps the delta path served (no epoch
// rebuild). Collective: on a process group every process runs it in
// lockstep.
func streamAnswersOf(g *graph.DODGr[U, uint64], script []durableMutation) ([]streamAnswers, int, error) {
	var a streamAnswers
	s, err := core.OpenStream(g, core.StreamOptions[uint64]{MergeEdgeMeta: mergeMin}, core.TemporalPlan(),
		core.CountAnalysis[U, uint64]().Bind(&a.Count),
		core.VertexCountAnalysis[U, uint64]().Bind(&a.Verts),
		core.ClosureTimeAnalysis[U]().Bind(&a.Joint),
		core.MaxEdgeLabelAnalysis[U](false).Bind(&a.Labels))
	if err != nil {
		return nil, 0, err
	}
	var out []streamAnswers
	deltas := 0
	for step := -1; step < len(script); step++ {
		if step >= 0 {
			var res core.Result
			if m := script[step]; m.batch != nil {
				res, err = s.Ingest(m.batch)
			} else {
				res, err = s.Advance(m.cutoff)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("step %d: %w", step, err)
			}
			if !res.Rebuilt {
				deltas++
			}
		}
		s.Snapshot()
		a.Triangles = s.Triangles()
		out = append(out, a)
	}
	return out, deltas, nil
}

// TestStreamAnalysesTwoProcess: a stream on a 2-process group publishes,
// on both processes and after every step of a mutation history, exactly
// what a one-process stream of as many ranks publishes — the live triangle
// count the delta batches maintain, and every stock invertible analysis.
// A snapshot reduces its clones across processes, and a delta batch
// settles its counters across processes, like a survey's Run does.
func TestStreamAnalysesTwoProcess(t *testing.T) {
	for _, perProc := range []int{1, 2} {
		for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
			t.Run(fmt.Sprintf("2x%d/%v", perProc, ord), func(t *testing.T) {
				seedEdges, script := snapshotHistory(20 + int64(perProc) + int64(ord))
				refW, err := ygm.NewWorld(2*perProc, ygm.Options{})
				if err != nil {
					t.Fatalf("NewWorld: %v", err)
				}
				want, deltas, err := streamAnswersOf(buildTemporalOrdered(refW, seedEdges, ord), script)
				refW.Close()
				if err != nil {
					t.Fatalf("one-process reference: %v", err)
				}
				if deltas == 0 {
					t.Fatal("every step rebuilt: the history never reaches the delta path")
				}
				var mu sync.Mutex
				got := map[int][]streamAnswers{}
				spmd(t, perProc, func(w *ygm.World) {
					first, _ := w.LocalSpan()
					var feed []graph.TemporalEdge
					if first == 0 {
						feed = seedEdges
					}
					answers, _, err := streamAnswersOf(buildTemporalOrdered(w, feed, ord), script)
					if err != nil {
						t.Errorf("proc@%d: %v", first, err)
						return
					}
					mu.Lock()
					got[first] = answers
					mu.Unlock()
				})
				if len(got) != 2 {
					t.Fatalf("answers from %d processes, want 2", len(got))
				}
				for first, answers := range got {
					for i := range want {
						if !reflect.DeepEqual(answers[i], want[i]) {
							t.Errorf("proc@%d after step %d: %+v, one-process reference %+v", first, i-1, answers[i], want[i])
						}
					}
				}
			})
		}
	}
}
