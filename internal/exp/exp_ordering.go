package exp

import (
	"fmt"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// AblationOrdering compares the two vertex-ordering strategies on the
// survey hot path: the paper's degree order (§3) against the degeneracy
// order of a distributed k-core peel (the Pashanasangi–Seshadhri
// refinement). The orderings change which endpoint owns each undirected
// edge in G⁺ and therefore |W⁺| = Σ C(d⁺, 2), the number of wedge checks
// the push phase performs — the algorithm's unit of work. Build time is
// reported separately because the peel is extra construction work the
// degree order does not pay.
//
// Every row emits machine-readable metrics, so BENCH_*.json carries a
// degree-vs-degeneracy pair per dataset for the benchmark trajectory.
func AblationOrdering(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "ordering", Title: "Ablation: degree vs degeneracy vertex ordering"}
	n := cfg.MaxRanks
	if n < 2 {
		n = 2
	}
	tb := stats.NewTable(fmt.Sprintf("(%d ranks, push-pull; |W+| is the push phase's work bound)", n),
		"Graph", "ordering", "|W+|", "dmax+", "degeneracy", "build", "survey", "messages", "triangles")

	ds := Datasets(cfg)
	// rmat-social is the acceptance graph: skewed degrees, where the
	// stronger order should prune the most wedges.
	selected := []Dataset{ds[0], ds[1], ds[3]}
	for _, d := range selected {
		type row struct {
			wedges    uint64
			triangles uint64
		}
		byOrd := map[graph.Ordering]row{}
		for _, ord := range []graph.Ordering{graph.OrderDegree, graph.OrderDegeneracy} {
			w := ygm.MustWorld(n, ygm.Options{Transport: cfg.Transport})
			b := graph.NewBuilder(w, serialize.UnitCodec(), serialize.UnitCodec(),
				graph.BuilderOptions[serialize.Unit]{Ordering: ord})
			var g *graph.DODGr[serialize.Unit, serialize.Unit]
			buildStart := time.Now()
			buildSpan := BeginMeasure()
			w.Parallel(func(r *ygm.Rank) {
				for i := r.ID(); i < len(d.Edges); i += r.Size() {
					b.AddEdge(r, d.Edges[i][0], d.Edges[i][1], serialize.Unit{})
				}
				gg := b.Build(r)
				if r.ID() == 0 {
					g = gg
				}
			})
			buildM := buildSpan.End()
			buildTime := time.Since(buildStart)
			surveySpan := BeginMeasure()
			res, err := core.Run(g, core.Options{Mode: core.PushPull}, nil)
			if err != nil {
				panic("AblationOrdering: " + err.Error())
			}
			surveyM := surveySpan.End()
			msgs := res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
			byOrd[ord] = row{wedges: g.NumWedges(), triangles: res.Triangles}
			tb.AddRow(d.Name, ord.String(),
				stats.FormatCount(g.NumWedges()),
				stats.FormatCount(uint64(g.MaxOutDegree())),
				stats.FormatCount(uint64(g.Degeneracy())),
				stats.FormatDuration(buildTime),
				stats.FormatDuration(res.Total),
				stats.FormatCount(uint64(msgs)),
				stats.FormatCount(res.Triangles))

			prefix := fmt.Sprintf("ordering/%s/%s", d.Name, ord.String())
			extra := fmt.Sprintf("dataset=%s ranks=%d ordering=%s", d.Name, n, ord.String())
			rep.metricM(prefix+"/survey_ns", float64(res.Total.Nanoseconds()), "ns/op", extra, surveyM)
			rep.metricM(prefix+"/build_ns", float64(buildTime.Nanoseconds()), "ns/op", extra, buildM)
			rep.metric(prefix+"/wedges", float64(g.NumWedges()), "wedges", extra)
			rep.metric(prefix+"/messages", float64(msgs), "msgs", extra)
			w.Close()
		}
		deg, dgn := byOrd[graph.OrderDegree], byOrd[graph.OrderDegeneracy]
		if deg.triangles != dgn.triangles {
			rep.notef("COUNT MISMATCH on %s: degree found %d, degeneracy %d", d.Name, deg.triangles, dgn.triangles)
		}
		if dgn.wedges > deg.wedges {
			rep.notef("UNEXPECTED: degeneracy order widens |W+| on %s: %d > %d", d.Name, dgn.wedges, deg.wedges)
		} else {
			rep.notef("%s: degeneracy order prunes |W+| %d → %d (%.1f%%)", d.Name,
				deg.wedges, dgn.wedges, 100*(1-float64(dgn.wedges)/float64(max64(deg.wedges, 1))))
		}
	}
	rep.Output = tb.Render()
	rep.notef("degeneracy bounds every out-degree (dmax+ ≤ k), so pushed suffixes — the wedge batches of Alg. 1 — shrink; the peel's build-time cost is the price")
	return rep
}
