package engine

import (
	"context"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/leaktest"
	"tripoll/internal/ygm"
)

// Leak regression (see internal/leaktest): the handler table and the live
// heap are flat in the number of queries served, on a static graph and on a
// stream whose every query lands on a new epoch.

func TestQueriesDoNotLeak(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	e := newTestEngine(t, buildTemporal(w, testEdges(200, 2400, 1)))
	// Pairwise-distinct δ: every query traverses, and what the cache keeps
	// of each is one counter.
	leaktest.Probe(t, w, 200, 1<<20, func(i int) {
		j, err := e.Submit(context.Background(), Spec{Graph: "g", Analysis: "count", Delta: Uint64(uint64(1000 + i))})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if qr, err := j.Wait(context.Background()); err != nil || qr.Cached {
			t.Fatalf("query %d: cached=%v err=%v", i, qr.Cached, err)
		}
	})
}

func TestStreamCyclesDoNotLeak(t *testing.T) {
	w := ygm.MustWorld(4, ygm.Options{})
	defer w.Close()
	s, err := core.OpenStream(buildTemporal(w, testEdges(60, 300, 42)),
		core.StreamOptions[uint64]{MergeEdgeMeta: minMergeU64}, core.TemporalPlan())
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	defer e.Close()
	if err := e.RegisterStream("s", s); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	// Every cycle lands its query on a new epoch: a fresh snapshot, then a
	// traversal. The 60-vertex edge set saturates within a few batches, so
	// what is live stops growing; a revising duplicate now and then takes the
	// rebuild path (its own survey) as well.
	var rebuilds uint64
	leaktest.Probe(t, w, 50, 1<<20, func(i int) {
		var batch []graph.Edge[uint64]
		for _, te := range testEdges(60, 40, int64(500+i)) {
			batch = append(batch, graph.Edge[uint64]{U: te.U, V: te.V, Meta: te.Time})
		}
		res, err := e.Ingest(context.Background(), "s", batch)
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		if res.Rebuilt {
			rebuilds++
		}
		if got := queryJSON(t, e, "s", []Spec{{Analysis: "count"}}); got[0] == "" {
			t.Fatalf("cycle %d: empty answer", i)
		}
	})
	if rebuilds == 0 {
		t.Error("no cycle took the epoch-rebuild path")
	}
}
