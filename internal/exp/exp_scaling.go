package exp

import (
	"fmt"
	"runtime"

	"tripoll/internal/core"
	"tripoll/internal/rmat"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
)

// Table1 regenerates the dataset-overview table: |V|, |E| (directed,
// symmetrized), |T|, dmax and dmax⁺ for every stand-in dataset.
func Table1(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "table1", Title: "Datasets used for experiments (stand-ins for Tab. 1)"}
	tb := stats.NewTable("", "Graph", "stands in for", "|V|", "|E|", "|T|", "dmax", "dmax+")
	for _, ds := range Datasets(cfg) {
		w, g := BuildUnit(cfg, 4, ds.Edges)
		res, err := core.Run(g, core.Options{}, nil)
		if err != nil {
			panic("Table1: " + err.Error())
		}
		tb.AddRow(ds.Name, ds.Analog,
			stats.FormatCount(g.NumVertices()),
			stats.FormatCount(g.NumDirectedEdges()),
			stats.FormatCount(res.Triangles),
			stats.FormatCount(uint64(g.MaxDegree())),
			stats.FormatCount(uint64(g.MaxOutDegree())))
		if g.MaxOutDegree() >= g.MaxDegree() && g.MaxDegree() > 8 {
			rep.notef("%s: dmax+ (%d) not ≪ dmax (%d) — DODGr should shrink hubs", ds.Name, g.MaxOutDegree(), g.MaxDegree())
		}
		w.Close()
	}
	rep.Output = tb.Render()
	rep.notef("paper shape: dmax+ is orders of magnitude below dmax on every graph (Tab. 1)")
	return rep
}

// Fig4 regenerates the strong-scaling study of push-pull triangle counting.
//
// The ranks here are goroutines sharing this host's physical cores, so
// wall-clock speedup is bounded by runtime.NumCPU(), not by the algorithm.
// The scaling claim of Fig. 4 is therefore judged on the critical-path work
// measure: the maximum per-rank wedge-check count, whose inverse is the
// speedup a physical deployment realizes. Wall time and per-phase times
// are reported for reference; communication volume shows the §5.4 cost of
// scaling (lost aggregation opportunities).
func Fig4(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig4", Title: "Strong scaling of each phase of the Push-Pull algorithm (Fig. 4)"}
	tb := stats.NewTable("", "Graph", "ranks", "max rank work", "work speedup", "balance", "comm volume", "dry-run", "push", "pull", "wall", "triangles")
	for _, ds := range Datasets(cfg) {
		var baseWork uint64
		var firstCount uint64
		var volumes []int64
		for _, n := range cfg.rankSweep() {
			w, g := BuildUnit(cfg, n, ds.Edges)
			res, err := core.Run(g, core.Options{Mode: core.PushPull}, nil)
			if err != nil {
				panic("Fig4: " + err.Error())
			}
			if n == 1 {
				baseWork = res.MaxRankWedgeChecks
				firstCount = res.Triangles
			} else if res.Triangles != firstCount {
				rep.notef("COUNT MISMATCH on %s at %d ranks: %d vs %d", ds.Name, n, res.Triangles, firstCount)
			}
			vol := res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
			volumes = append(volumes, vol)
			tb.AddRow(ds.Name, fmt.Sprintf("%d", n),
				stats.FormatCount(res.MaxRankWedgeChecks),
				fmt.Sprintf("%.2fx", float64(baseWork)/float64(max64(res.MaxRankWedgeChecks, 1))),
				fmt.Sprintf("%.2f", res.WorkBalance),
				stats.FormatBytes(vol),
				stats.FormatDuration(res.DryRun.Duration),
				stats.FormatDuration(res.Push.Duration),
				stats.FormatDuration(res.Pull.Duration),
				stats.FormatDuration(res.Total),
				stats.FormatCount(res.Triangles))
			w.Close()
		}
		last := len(volumes) - 1
		if last > 0 && volumes[last] <= volumes[0] {
			rep.notef("UNEXPECTED: %s communication volume did not grow with rank count", ds.Name)
		}
	}
	rep.Output = tb.Render()
	rep.notef("host has %d CPU core(s); ranks are simulated, so wall time cannot parallelize — work speedup is the deployment-relevant curve", runtime.NumCPU())
	rep.notef("paper shape: near-linear work speedup with gradually rising communication volume as per-rank aggregation opportunities shrink (§5.4)")
	return rep
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Fig5 regenerates the R-MAT weak-scaling study: one fixed-scale R-MAT per
// rank. The paper's vertical axis is |W⁺|/(N·t); on a simulated-rank host
// the wall-clock rate is CPU-bound, so the §5.5 mechanism — shrinking
// aggregation opportunities as ranks grow — is additionally quantified as
// bytes moved per wedge check, which rises with rank count independent of
// scheduling.
func Fig5(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig5", Title: "Weak scaling of triangle counting on R-MAT graphs (Fig. 5)"}
	// Paper: scale 24 per node. Stand-in: scale ~12 per rank at Scale=1.
	baseScale := 12
	if cfg.Scale < 0.25 {
		baseScale = 9
	}
	tb := stats.NewTable("", "ranks", "rmat scale", "|E| gen", "|W+|", "wall", "|W+|/(N*t) /s", "bytes/wedge", "balance", "triangles")
	var bytesPerWedge []float64
	for _, n := range cfg.rankSweep() {
		s := baseScale
		for m := n; m > 1; m /= 2 {
			s++
		}
		p := rmat.Params{Scale: s, Seed: 500, Scramble: true}
		w, g := BuildRMATRanged(cfg, n, p)
		res, err := core.Run(g, core.Options{Mode: core.PushPull}, nil)
		if err != nil {
			panic("Fig5: " + err.Error())
		}
		rate := float64(g.NumWedges()) / (float64(n) * res.Total.Seconds())
		vol := res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
		bpw := float64(vol) / float64(max64(g.NumWedges(), 1))
		bytesPerWedge = append(bytesPerWedge, bpw)
		tb.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", s),
			stats.FormatCount(p.NumEdges()),
			stats.FormatCount(g.NumWedges()),
			stats.FormatDuration(res.Total),
			stats.FormatCount(uint64(rate)),
			fmt.Sprintf("%.3f", bpw),
			fmt.Sprintf("%.2f", res.WorkBalance),
			stats.FormatCount(res.Triangles))
		w.Close()
	}
	rep.Output = tb.Render()
	if len(bytesPerWedge) >= 2 && bytesPerWedge[len(bytesPerWedge)-1] > bytesPerWedge[0] {
		rep.notef("bytes moved per wedge rises %.3f → %.3f with rank count — the §5.5 aggregation-loss mechanism behind the paper's decaying work rate", bytesPerWedge[0], bytesPerWedge[len(bytesPerWedge)-1])
	}
	rep.notef("host has %d CPU core(s); the |W+|/(N*t) column is CPU-bound here, shape-comparable only on a real cluster", runtime.NumCPU())
	return rep
}

// Fig9 regenerates the metadata-impact study: weak scaling with dummy
// metadata (plain counting) versus vertex-degree metadata plus the
// log₂-degree-triple counting callback, for both algorithms.
func Fig9(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig9", Title: "Effects of metadata inclusion on weak scaling (Fig. 9)"}
	baseScale := 11
	if cfg.Scale < 0.25 {
		baseScale = 8
	}
	tb := stats.NewTable("", "ranks", "algorithm", "metadata", "time", "|W+|/(N*t) /s", "triangles")
	type cell struct{ dummy, meta float64 }
	rates := map[string]map[int]*cell{"push-only": {}, "push-pull": {}}
	for _, n := range cfg.rankSweep() {
		s := baseScale
		for m := n; m > 1; m /= 2 {
			s++
		}
		p := rmat.Params{Scale: s, Seed: 900, Scramble: true}
		edges := make([][2]uint64, 0, p.NumEdges())
		p.Generate(0, p.NumEdges(), func(u, v uint64) { edges = append(edges, [2]uint64{u, v}) })
		for _, mode := range []core.Mode{core.PushOnly, core.PushPull} {
			// Dummy metadata: plain count.
			wU, gU := BuildUnit(cfg, n, edges)
			resU, err := core.Run(gU, core.Options{Mode: mode}, nil)
			if err != nil {
				panic("Fig9: " + err.Error())
			}
			rateU := float64(gU.NumWedges()) / (float64(n) * resU.Total.Seconds())
			tb.AddRow(fmt.Sprintf("%d", n), mode.String(), "dummy",
				stats.FormatDuration(resU.Total), stats.FormatCount(uint64(rateU)), stats.FormatCount(resU.Triangles))
			wU.Close()

			// Degree metadata + nontrivial callback.
			wD, gD := BuildDegreeMeta(cfg, n, edges)
			resD, err := core.Run(gD, core.Options{Mode: mode}, nil, core.DegreeTripleAnalysis[serialize.Unit]().Bind(new(map[core.DegreeTriple]uint64)))
			if err != nil {
				panic("Fig9: " + err.Error())
			}
			rateD := float64(gD.NumWedges()) / (float64(n) * resD.Total.Seconds())
			tb.AddRow(fmt.Sprintf("%d", n), mode.String(), "degree+callback",
				stats.FormatDuration(resD.Total), stats.FormatCount(uint64(rateD)), stats.FormatCount(resD.Triangles))
			wD.Close()

			c := &cell{dummy: rateU, meta: rateD}
			rates[mode.String()][n] = c
			if resU.Triangles != resD.Triangles {
				rep.notef("COUNT MISMATCH at %d ranks %s: %d vs %d", n, mode, resU.Triangles, resD.Triangles)
			}
		}
	}
	rep.Output = tb.Render()
	for _, m := range []string{"push-only", "push-pull"} {
		var ratio float64
		var cnt int
		for _, c := range rates[m] {
			if c.meta > 0 {
				ratio += c.dummy / c.meta
				cnt++
			}
		}
		if cnt > 0 {
			rep.notef("%s: metadata+callback cuts throughput by %.2fx on average (paper: just under 2x, §5.9)", m, ratio/float64(cnt))
		}
	}
	rep.notef("dummy-vs-metadata rows at the same rank count share one host, so their ratio is scheduling-independent (host: %d core(s))", runtime.NumCPU())
	return rep
}

// Table4 regenerates the push-only vs push-pull strong-scaling table with
// communication volumes.
func Table4(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "table4", Title: "Push-Only vs Push-Pull: runtime and communication volume (Tab. 4)"}
	tb := stats.NewTable("", "Graph", "ranks", "algorithm", "comm volume", "messages", "runtime", "triangles")
	ds := Datasets(cfg)
	// The paper's most communication-bound graph (web-cc12-hostgraph) is
	// our webhost; also include the rmat-social (Friendster analog), where
	// the paper found pull overhead can exceed its benefit.
	selected := []Dataset{ds[1], ds[3]}
	for _, d := range selected {
		type volRow struct{ po, pp int64 }
		vols := map[int]*volRow{}
		for _, n := range cfg.rankSweep() {
			if n < 2 {
				continue // single rank: trivial communication
			}
			w, g := BuildUnit(cfg, n, d.Edges)
			for _, mode := range []core.Mode{core.PushOnly, core.PushPull} {
				res, err := core.Run(g, core.Options{Mode: mode}, nil)
				if err != nil {
					panic("Table4: " + err.Error())
				}
				bytes := res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
				msgs := res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
				tb.AddRow(d.Name, fmt.Sprintf("%d", n), mode.String(),
					stats.FormatBytes(bytes), stats.FormatCount(uint64(msgs)),
					stats.FormatDuration(res.Total), stats.FormatCount(res.Triangles))
				v := vols[n]
				if v == nil {
					v = &volRow{}
					vols[n] = v
				}
				if mode == core.PushOnly {
					v.po = bytes
				} else {
					v.pp = bytes
				}
			}
			w.Close()
		}
		for _, n := range cfg.rankSweep() {
			if v := vols[n]; v != nil && v.pp > 0 {
				rep.notef("%s @%d ranks: push-pull moves %.2fx the bytes of push-only", d.Name, n, float64(v.pp)/float64(v.po))
			}
		}
	}
	rep.Output = tb.Render()
	rep.notef("paper shape: on the hub-heavy host graph push-pull slashes volume (>10x there); on Friendster-like graphs the dry-run overhead can erase the gain (§5.10)")
	return rep
}
