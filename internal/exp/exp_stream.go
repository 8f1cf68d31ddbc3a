package exp

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// AblationStream measures what incremental survey maintenance saves: each
// temporal dataset is replayed as a chronological stream of batches over a
// sliding window, and three invertible analyses (count, closure times,
// per-vertex counts) are kept current two ways — incrementally, via the
// stream's delta-scoped traversal (DESIGN.md §9), and by rebuilding the
// window snapshot and re-running a full fused survey after every batch
// (the only option before the Stream subsystem existed). The driver
// reports transport messages, bytes and wall time for both strategies and
// self-verifies that (a) every per-analysis result is identical after
// every batch, (b) the incremental path never fell back to an epoch
// rebuild on this chronological input, and (c) it moved strictly fewer
// messages and bytes in total, on every dataset and in both algorithms.
func AblationStream(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "stream", Title: "Ablation: incremental stream maintenance vs per-batch full recompute"}
	n := cfg.MaxRanks
	if n < 2 {
		n = 2
	}
	const batches = 8
	tb := stats.NewTable(fmt.Sprintf("(%d ranks, %d chronological batches, window = horizon/2; analyses: count, closure, vertexcounts)", n, batches),
		"Graph", "mode", "strategy", "messages", "bytes", "maintenance")

	minMerge := func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}

	for _, d := range TemporalDatasets(cfg) {
		window := d.Horizon / 2
		edges := make([]graph.TemporalEdge, len(d.Edges))
		copy(edges, d.Edges)
		sort.SliceStable(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time })

		for _, mode := range []core.Mode{core.PushOnly, core.PushPull} {
			opts := core.Options{Mode: mode}
			type outcome struct {
				msgs  int64
				bytes int64
				dur   time.Duration
				m     Measured
			}
			type answers struct {
				count uint64
				verts map[uint64]uint64
				joint *stats.Joint2D
			}

			// Incremental: one stream over an empty seed, fed batch by batch.
			wInc, seedG := BuildTemporal(cfg, n, nil)
			var inc outcome
			var incAns answers
			plan := core.TemporalPlan()
			s, err := core.OpenStream(seedG, core.StreamOptions[uint64]{Survey: opts, MergeEdgeMeta: minMerge}, plan,
				core.CountAnalysis[serialize.Unit, uint64]().Bind(&incAns.count),
				core.ClosureTimeAnalysis[serialize.Unit]().Bind(&incAns.joint),
				core.VertexCountAnalysis[serialize.Unit, uint64]().Bind(&incAns.verts))
			if err != nil {
				panic("stream ablation: " + err.Error())
			}

			// Full recompute baseline: the live window tracked explicitly, a
			// fresh build + fused run per batch on its own world.
			wFull := ygm.MustWorld(n, ygm.Options{Transport: cfg.Transport})
			live := map[[2]uint64]uint64{}
			var full outcome

			rebuilt := false
			mismatched := ""
			cutoff := uint64(0)
			for b := 0; b < batches; b++ {
				lo, hi := b*len(edges)/batches, (b+1)*len(edges)/batches
				if lo >= hi {
					continue
				}
				// Slide the window: retire everything more than `window`
				// behind this batch's first event.
				if start := edges[lo].Time; b > 0 && start > window && start-window > cutoff {
					cutoff = start - window
					advSpan := BeginMeasure()
					ares, err := s.Advance(cutoff)
					if err != nil {
						panic("stream ablation: advance: " + err.Error())
					}
					inc.m = inc.m.Add(advSpan.End())
					inc.msgs += streamMsgs(ares)
					inc.bytes += streamBytes(ares)
					inc.dur += ares.Total
					rebuilt = rebuilt || ares.Rebuilt
					for k, t := range live {
						if t < cutoff {
							delete(live, k)
						}
					}
				}
				batch := make([]graph.Edge[uint64], 0, hi-lo)
				for _, e := range edges[lo:hi] {
					batch = append(batch, graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time})
					u, v := e.U, e.V
					if u == v {
						continue
					}
					if u > v {
						u, v = v, u
					}
					k := [2]uint64{u, v}
					if old, ok := live[k]; ok {
						live[k] = minMerge(old, e.Time)
					} else {
						live[k] = e.Time
					}
				}
				ingSpan := BeginMeasure()
				res, err := s.Ingest(batch)
				if err != nil {
					panic("stream ablation: ingest: " + err.Error())
				}
				inc.m = inc.m.Add(ingSpan.End())
				inc.msgs += streamMsgs(res)
				inc.bytes += streamBytes(res)
				inc.dur += res.Total
				rebuilt = rebuilt || res.Rebuilt
				s.Snapshot()

				// Full recompute of the same window state.
				keys := make([][2]uint64, 0, len(live))
				for k := range live {
					keys = append(keys, k)
				}
				sort.Slice(keys, func(i, j int) bool {
					if keys[i][0] != keys[j][0] {
						return keys[i][0] < keys[j][0]
					}
					return keys[i][1] < keys[j][1]
				})
				t0 := time.Now()
				fullSpan := BeginMeasure()
				wFull.ResetStats()
				bld := graph.NewBuilder(wFull, serialize.UnitCodec(), serialize.Uint64Codec(), graph.BuilderOptions[uint64]{MergeEdgeMeta: minMerge})
				var gFull *graph.DODGr[serialize.Unit, uint64]
				wFull.Parallel(func(r *ygm.Rank) {
					for i := r.ID(); i < len(keys); i += r.Size() {
						bld.AddEdge(r, keys[i][0], keys[i][1], live[keys[i]])
					}
					gg := bld.Build(r)
					if r.ID() == 0 {
						gFull = gg
					}
				})
				buildStats := wFull.Stats()
				var fullAns answers
				fres, err := core.Run(gFull, opts, plan,
					core.CountAnalysis[serialize.Unit, uint64]().Bind(&fullAns.count),
					core.ClosureTimeAnalysis[serialize.Unit]().Bind(&fullAns.joint),
					core.VertexCountAnalysis[serialize.Unit, uint64]().Bind(&fullAns.verts))
				if err != nil {
					panic("stream ablation: full run: " + err.Error())
				}
				full.m = full.m.Add(fullSpan.End())
				full.msgs += buildStats.MessagesSent + msgsOf(fres)
				full.bytes += buildStats.BytesSent + bytesOf(fres)
				full.dur += time.Since(t0)

				if mismatched == "" &&
					(incAns.count != fullAns.count ||
						!reflect.DeepEqual(incAns.verts, fullAns.verts) ||
						!reflect.DeepEqual(incAns.joint, fullAns.joint) ||
						s.Triangles() != fres.Triangles) {
					mismatched = fmt.Sprintf("batch %d", b)
				}
			}

			for _, o := range []struct {
				strat string
				oc    *outcome
			}{{"full", &full}, {"incremental", &inc}} {
				tb.AddRow(d.Name, mode.String(), o.strat,
					stats.FormatCount(uint64(o.oc.msgs)),
					stats.FormatBytes(o.oc.bytes),
					stats.FormatDuration(o.oc.dur))
				prefix := fmt.Sprintf("stream/%s/%s/%s", d.Name, mode.String(), o.strat)
				extra := fmt.Sprintf("dataset=%s ranks=%d mode=%s batches=%d window=%d",
					d.Name, n, mode.String(), batches, window)
				rep.metric(prefix+"/messages", float64(o.oc.msgs), "msgs", extra)
				rep.metric(prefix+"/bytes", float64(o.oc.bytes), "bytes", extra)
				rep.metricM(prefix+"/maintenance_ns", float64(o.oc.dur.Nanoseconds()), "ns/op", extra, o.oc.m)
			}
			switch {
			case mismatched != "":
				rep.notef("RESULT MISMATCH on %s/%s (%s): incremental analyses disagree with the full recompute",
					d.Name, mode, mismatched)
			case rebuilt:
				rep.notef("UNEXPECTED: incremental path fell back to an epoch rebuild on chronological input (%s/%s)",
					d.Name, mode)
			case inc.msgs >= full.msgs || inc.bytes >= full.bytes:
				rep.notef("UNEXPECTED: incremental maintenance did not strictly reduce traffic on %s/%s: %d→%d msgs, %d→%d bytes",
					d.Name, mode, full.msgs, inc.msgs, full.bytes, inc.bytes)
			default:
				rep.notef("%s/%s: messages %s→%s (−%.1f%%), bytes %s→%s (−%.1f%%) across %d batches",
					d.Name, mode,
					stats.FormatCount(uint64(full.msgs)), stats.FormatCount(uint64(inc.msgs)),
					100*(1-float64(inc.msgs)/float64(full.msgs)),
					stats.FormatBytes(full.bytes), stats.FormatBytes(inc.bytes),
					100*(1-float64(inc.bytes)/float64(full.bytes)),
					batches)
			}
			wFull.Close()
			wInc.Close()
		}
	}
	rep.Output = tb.Render()
	rep.notef("each batch's delta traversal completes only the wedges its changed edges open or close (|N(u)∩N(v)| work per edge), while the baseline rebuilds and re-surveys the whole window; identical per-batch results are the stream ≡ rebuild property, also property-tested in internal/core")
	return rep
}

// streamMsgs/streamBytes total a stream batch's traffic across the
// structural mutation phase and the delta traversal.
func streamMsgs(res core.Result) int64 {
	return res.Mutate.Messages + msgsOf(res)
}

func streamBytes(res core.Result) int64 {
	return res.Mutate.Bytes + bytesOf(res)
}
