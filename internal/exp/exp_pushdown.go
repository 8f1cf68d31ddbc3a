package exp

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/gen"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// TemporalDataset is a timestamped ablation stand-in. The Reddit-like
// stream carries its generator's bursty event times; the topology-only
// stand-ins get uniform pseudo-random timestamps over a fixed horizon, so
// a δ-window has a predictable selectivity (P[spread ≤ δ] ≈ small) on
// every graph shape.
type TemporalDataset struct {
	Name    string
	Analog  string
	Edges   []graph.TemporalEdge
	Horizon uint64 // max timestamp bound (exclusive for uniform times)
}

// pushdownHorizon is the uniform-timestamp horizon for the topology
// stand-ins; δ is chosen as a fixed fraction of it.
const pushdownHorizon = 1 << 20

// TemporalDatasets builds the timestamped stand-ins the pushdown ablation
// (and any future temporal workload) surveys.
func TemporalDatasets(cfg Config) []TemporalDataset {
	cfg = cfg.withDefaults()
	var out []TemporalDataset
	rp := redditParams(cfg)
	reddit := gen.RedditLike(rp)
	var rhorizon uint64
	for _, e := range reddit {
		if e.Time > rhorizon {
			rhorizon = e.Time
		}
	}
	out = append(out, TemporalDataset{Name: "reddit-like", Analog: "Reddit [5.2]", Edges: reddit, Horizon: rhorizon + 1})
	for _, d := range Datasets(cfg) {
		h := fnv.New64a()
		h.Write([]byte(d.Name))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		edges := make([]graph.TemporalEdge, len(d.Edges))
		for i, e := range d.Edges {
			edges[i] = graph.TemporalEdge{U: e[0], V: e[1], Time: uint64(rng.Int63n(pushdownHorizon))}
		}
		out = append(out, TemporalDataset{Name: d.Name, Analog: d.Analog, Edges: edges, Horizon: pushdownHorizon})
	}
	return out
}

// AblationPushdown measures what survey-plan predicate pushdown saves: a
// δ-windowed triangle count run twice over the same graph — once as the
// post-filter baseline (unplanned survey, Plan.MatchEdges applied in the
// callback) and once with the plan's predicates pushed into the push/pull
// phases — reporting transport messages, bytes, and wedge checks (the
// |W⁺|-work actually performed). Because message accounting sits at the
// transport seam (DESIGN.md §1), the prune claim is mechanical: the same
// count with strictly less communication, on every dataset and in both
// algorithms. The driver self-verifies both halves of that sentence.
func AblationPushdown(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "pushdown", Title: "Ablation: predicate pushdown vs post-filtering, δ-windowed count"}
	n := cfg.MaxRanks
	if n < 2 {
		n = 2
	}
	tb := stats.NewTable(fmt.Sprintf("(%d ranks, δ = horizon/16; baseline filters in the callback)", n),
		"Graph", "mode", "strategy", "matched", "messages", "bytes", "wedge checks", "survey")

	for _, d := range TemporalDatasets(cfg) {
		delta := d.Horizon / 16
		plan := core.TemporalPlan().CloseWithin(delta)
		w, g := BuildTemporal(cfg, n, d.Edges)
		for _, mode := range []core.Mode{core.PushOnly, core.PushPull} {
			type outcome struct {
				matched uint64
				msgs    int64
				bytes   int64
				wedges  uint64
				dur     time.Duration
				m       Measured
			}
			run := func(pushdown bool) outcome {
				sp := BeginMeasure()
				if pushdown {
					res, err := core.Run(g, core.Options{Mode: mode}, plan)
					if err != nil {
						panic("pushdown ablation: " + err.Error())
					}
					return outcome{res.Triangles, msgsOf(res), bytesOf(res), res.WedgeChecks, res.Total, sp.End()}
				}
				matched := make([]uint64, n)
				s := core.NewSurvey(g, core.Options{Mode: mode}, func(r *ygm.Rank, t *core.Triangle[serialize.Unit, uint64]) {
					if plan.MatchEdges(t.MetaPQ, t.MetaPR, t.MetaQR) {
						matched[r.ID()]++
					}
				})
				res := s.Run()
				var m uint64
				for _, c := range matched {
					m += c
				}
				return outcome{m, msgsOf(res), bytesOf(res), res.WedgeChecks, res.Total, sp.End()}
			}
			base := run(false)
			pd := run(true)
			for _, o := range []struct {
				strat string
				oc    outcome
			}{{"post-filter", base}, {"pushdown", pd}} {
				tb.AddRow(d.Name, mode.String(), o.strat,
					stats.FormatCount(o.oc.matched),
					stats.FormatCount(uint64(o.oc.msgs)),
					stats.FormatBytes(o.oc.bytes),
					stats.FormatCount(o.oc.wedges),
					stats.FormatDuration(o.oc.dur))
				prefix := fmt.Sprintf("pushdown/%s/%s/%s", d.Name, mode.String(), o.strat)
				extra := fmt.Sprintf("dataset=%s ranks=%d mode=%s delta=%d", d.Name, n, mode.String(), delta)
				rep.metric(prefix+"/messages", float64(o.oc.msgs), "msgs", extra)
				rep.metric(prefix+"/bytes", float64(o.oc.bytes), "bytes", extra)
				rep.metric(prefix+"/wedge_checks", float64(o.oc.wedges), "wedges", extra)
				rep.metricM(prefix+"/survey_ns", float64(o.oc.dur.Nanoseconds()), "ns/op", extra, o.oc.m)
			}
			switch {
			case pd.matched != base.matched:
				rep.notef("COUNT MISMATCH on %s/%s: pushdown matched %d, post-filter %d",
					d.Name, mode, pd.matched, base.matched)
			case pd.msgs >= base.msgs || pd.bytes >= base.bytes:
				rep.notef("UNEXPECTED: pushdown did not strictly reduce traffic on %s/%s: %d→%d msgs, %d→%d bytes",
					d.Name, mode, base.msgs, pd.msgs, base.bytes, pd.bytes)
			default:
				rep.notef("%s/%s: messages %s→%s (−%.1f%%), bytes %s→%s (−%.1f%%), wedge checks −%.1f%%",
					d.Name, mode,
					stats.FormatCount(uint64(base.msgs)), stats.FormatCount(uint64(pd.msgs)),
					100*(1-float64(pd.msgs)/float64(base.msgs)),
					stats.FormatBytes(base.bytes), stats.FormatBytes(pd.bytes),
					100*(1-float64(pd.bytes)/float64(base.bytes)),
					100*(1-float64(pd.wedges)/float64(max64(base.wedges, 1))))
			}
		}
		w.Close()
	}
	rep.Output = tb.Render()
	rep.notef("δ-windows prune per wedge at the source (two of three timestamps are known before enqueue); identical matched counts are the pushdown ≡ post-filter property, also unit-tested in internal/core")
	return rep
}

func msgsOf(res core.Result) int64 {
	return res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
}

func bytesOf(res core.Result) int64 {
	return res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
}
