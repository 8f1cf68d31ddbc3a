package dist

import (
	"context"
	"testing"
	"time"

	"tripoll/internal/engine"
	"tripoll/internal/graph"
	"tripoll/internal/leaktest"
)

// The two-process half of the leak regression (internal/engine has the
// one-process half, internal/leaktest the assertion): driver engine, worker
// Serve loop, real control link and data mesh. The worker shares this test
// binary's heap, so the heap budget covers both processes' tables.

func submitWait(t *testing.T, e *engine.Engine[U, uint64], spec engine.Spec) engine.QueryResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job, err := e.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("submit %+v: %v", spec, err)
	}
	res, err := job.Wait(ctx)
	if err != nil {
		t.Fatalf("job %+v: %v", spec, err)
	}
	return res
}

func TestTwoProcessQueriesDoNotLeak(t *testing.T) {
	d := startDurableMulti(t, 2, 2, randomTemporalEdges(5, 120, 900), t.TempDir())
	defer d.stop(t)
	// Static phase: 200 pairwise-distinct count queries on one epoch.
	leaktest.Probe(t, d.cl.World(), 200, 1<<20, func(i int) {
		if res := submitWait(t, d.e, engine.Spec{Graph: "g", Analysis: "count", Delta: engine.Uint64(uint64(100 + i))}); res.Cached {
			t.Fatalf("query %d answered from the cache", i)
		}
	})
	// Stream phase: 50 ingest→query cycles, every query on a new epoch
	// (broadcast, collective apply, commit, re-materialise, traverse).
	leaktest.Probe(t, d.cl.World(), 50, 1<<20, func(i int) {
		var batch []graph.Edge[uint64]
		for _, e := range randomTemporalEdges(int64(900+i), 120, 30) {
			batch = append(batch, graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time})
		}
		applyDurable(t, d.e, durableMutation{batch: batch})
		submitWait(t, d.e, engine.Spec{Graph: "g", Analysis: "count"})
	})
	if st := d.cl.MutationStats(); len(st.WorkerApplied) != 1 || st.WorkerApplied[0] != 50 {
		t.Errorf("worker applied %v mutations, want [50]", st.WorkerApplied)
	}
}
