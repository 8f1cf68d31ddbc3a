// Quickstart: build a small graph across simulated ranks and count its
// triangles — the Alg. 2 workflow on the unified analysis API — then ask
// the same question through the query engine's serializable QuerySpec
// surface.
package main

import (
	"context"
	"fmt"

	"tripoll"
)

func main() {
	// Four simulated MPI ranks in one process.
	w := tripoll.NewWorld(4)
	defer w.Close()

	// A bowtie: two triangles sharing vertex 2.
	edges := [][2]uint64{
		{0, 1}, {1, 2}, {0, 2},
		{2, 3}, {3, 4}, {2, 4},
	}
	g := tripoll.BuildSimple(w, edges)

	info := tripoll.Info(g)
	fmt.Printf("|V|=%d  |E|=%d (directed)  |W+|=%d  dmax=%d\n",
		info.Vertices, info.DirectedEdges, info.Wedges, info.MaxDegree)

	// Simple global count: a Run with no attached analyses degenerates to
	// Alg. 2 — and any number of analyses would fuse into this same
	// traversal (see examples/clustering).
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("triangles: %d (mode %s, %v total)\n", res.Triangles, res.Mode, res.Total)

	// The same count as an explicit survey callback — the TriPoll pattern:
	// any analysis is a callback over triangle metadata.
	perRank := make([]int, w.Size())
	s := tripoll.NewSurvey(g, tripoll.SurveyOptions{Mode: tripoll.PushOnly},
		func(r *tripoll.Rank, t *tripoll.Triangle[tripoll.Unit, tripoll.Unit]) {
			perRank[r.ID()]++
			fmt.Printf("  rank %d found triangle (%d, %d, %d)\n", r.ID(), t.P, t.Q, t.R)
		})
	s.Run()
	s.Close() // a prepared survey holds handler slots on the world until closed
	fmt.Printf("callback firings per rank: %v\n", perRank)

	// Services answering many questions hold a query Engine instead:
	// queries arrive as serializable specs, concurrent compatible
	// submissions coalesce into shared traversals, and repeated questions
	// hit the result cache. (Timestamped graphs get the full temporal spec
	// surface; see the README's "serving queries" section and
	// cmd/tripolld.)
	eng := tripoll.NewQueryEngine(countRegistry(), tripoll.QueryEngineOptions[tripoll.Unit]{})
	defer eng.Close()
	if err := eng.Register("bowtie", g); err != nil {
		panic(err)
	}
	job, err := eng.Submit(context.Background(), tripoll.QuerySpec{Analysis: "count"})
	if err != nil {
		panic(err)
	}
	qr, err := job.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Printf("engine answer: %v triangles (epoch %d, cached=%v)\n", qr.Value, qr.Epoch, qr.Cached)
}

// countRegistry shows how an analysis becomes spec-addressable: a registry
// entry binds a stock (or custom) Analysis value and reads its result
// back. Temporal graphs can use the prebuilt TemporalQueryRegistry.
func countRegistry() *tripoll.QueryRegistry[tripoll.Unit, tripoll.Unit] {
	reg := tripoll.NewQueryRegistry[tripoll.Unit, tripoll.Unit]()
	reg.Register("count", func(_ *tripoll.Graph[tripoll.Unit, tripoll.Unit], _ tripoll.QuerySpec) (tripoll.QueryAnalysisInstance[tripoll.Unit, tripoll.Unit], error) {
		out := new(uint64)
		return tripoll.QueryAnalysisInstance[tripoll.Unit, tripoll.Unit]{
			Attached: tripoll.CountAnalysis[tripoll.Unit, tripoll.Unit]().Bind(out),
			Result:   func() any { return *out },
		}, nil
	})
	return reg
}
