// Benchmarks regenerating every table and figure of the paper's evaluation
// (§5) at benchmark scale. Each benchmark wraps the corresponding driver in
// internal/exp; run a single artifact with e.g.
//
//	go test -bench 'BenchmarkTable2$' -benchtime 1x
//
// The rendered tables/figures are printed once per benchmark via b.Log at
// -v, and cmd/tripoll-bench prints them unconditionally.
package tripoll_test

import (
	"testing"

	"tripoll"
	"tripoll/internal/exp"
	"tripoll/internal/ygm"
)

// benchConfig keeps per-iteration cost low enough for -bench . while still
// exercising distributed codepaths on real rank counts.
func benchConfig() exp.Config {
	return exp.Config{Scale: 0.1, MaxRanks: 4}
}

func runExp(b *testing.B, id string) {
	b.Helper()
	r, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := r.Run(cfg)
		if i == 0 {
			b.Log("\n" + rep.Render())
		}
	}
}

// BenchmarkTable1 regenerates the dataset-overview table (Tab. 1).
func BenchmarkTable1(b *testing.B) { runExp(b, "table1") }

// BenchmarkFig4 regenerates the push-pull strong-scaling study (Fig. 4).
func BenchmarkFig4(b *testing.B) { runExp(b, "fig4") }

// BenchmarkFig5 regenerates the R-MAT weak-scaling study (Fig. 5).
func BenchmarkFig5(b *testing.B) { runExp(b, "fig5") }

// BenchmarkTable2 regenerates the related-work comparison (Tab. 2).
func BenchmarkTable2(b *testing.B) { runExp(b, "table2") }

// BenchmarkFig6 regenerates the Reddit closure-time distributions (Fig. 6).
func BenchmarkFig6(b *testing.B) { runExp(b, "fig6") }

// BenchmarkFig7 regenerates closure-survey strong scaling + Tab. 3 pulls.
func BenchmarkFig7(b *testing.B) { runExp(b, "fig7") }

// BenchmarkFig8 regenerates the FQDN survey (Fig. 8).
func BenchmarkFig8(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFig9 regenerates the metadata-impact study (Fig. 9).
func BenchmarkFig9(b *testing.B) { runExp(b, "fig9") }

// BenchmarkTable4 regenerates the push-only vs push-pull table (Tab. 4).
func BenchmarkTable4(b *testing.B) { runExp(b, "table4") }

// BenchmarkAblationPullFactor sweeps the §4.4 pull-decision threshold.
func BenchmarkAblationPullFactor(b *testing.B) { runExp(b, "pullfactor") }

// BenchmarkAblationBuffer sweeps the §4.1.1 message-buffer size.
func BenchmarkAblationBuffer(b *testing.B) { runExp(b, "buffer") }

// BenchmarkAblationTransport compares channel and TCP transports.
func BenchmarkAblationTransport(b *testing.B) { runExp(b, "transport") }

// BenchmarkAblationGrouping measures node-level message aggregation
// (§5.4's proposed remedy).
func BenchmarkAblationGrouping(b *testing.B) { runExp(b, "grouping") }

// BenchmarkAblationPartition compares hash and cyclic vertex partitioning
// (§4.2).
func BenchmarkAblationPartition(b *testing.B) { runExp(b, "partition") }

// --- Micro-benchmarks of the core operations -----------------------------

// BenchmarkSurveyPushOnly measures the raw push-only survey over a fixed
// scale-free graph on 4 ranks.
func BenchmarkSurveyPushOnly(b *testing.B) { benchSurvey(b, true) }

// BenchmarkSurveyPushPull measures the push-pull survey on the same graph.
func BenchmarkSurveyPushPull(b *testing.B) { benchSurvey(b, false) }

func benchSurvey(b *testing.B, pushOnly bool) {
	b.Helper()
	cfg := exp.Config{Scale: 0.1, MaxRanks: 4, Transport: ygm.TransportChannel}
	ds := exp.Datasets(cfg)
	w, g := exp.BuildUnit(cfg, 4, ds[1].Edges)
	defer w.Close()
	mode := tripoll.PushPull
	if pushOnly {
		mode = tripoll.PushOnly
	}
	var triangles uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tripoll.Run(g, tripoll.SurveyOptions{Mode: mode}, nil)
		if err != nil {
			b.Fatal(err)
		}
		triangles = res.Triangles
	}
	b.StopTimer()
	if triangles == 0 {
		b.Fatal("no triangles found")
	}
	b.SetBytes(int64(g.NumWedges()))
}
