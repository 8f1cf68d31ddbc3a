package exp

import (
	"fmt"
	"sort"
	"strings"

	"tripoll/internal/core"
	"tripoll/internal/gen"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

func redditParams(cfg Config) gen.RedditParams {
	p := gen.DefaultRedditParams()
	p.Users = uint64(cfg.scaled(30_000, 300))
	p.Events = cfg.scaled(250_000, 2_500)
	return p
}

// Fig6 regenerates the Reddit closure-time survey: the marginal closing-
// time distribution and the joint (opening, closing) distribution, both in
// ceil-log₂ buckets. The distributed result is cross-checked against an
// independent serial recomputation.
func Fig6(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig6", Title: "Distribution of triangle closure times, Reddit-like graph (Fig. 6)"}
	edges := gen.RedditLike(redditParams(cfg))
	w, g := BuildTemporal(cfg, 4, edges)
	defer w.Close()
	var joint *stats.Joint2D
	res, err := core.Run(g, core.Options{}, nil, core.ClosureTimeAnalysis[serialize.Unit]().Bind(&joint))
	if err != nil {
		panic("Fig6: " + err.Error())
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "events=%d  reduced |E|=%s  triangles=%s  multi-edges merged=%s\n\n",
		len(edges), stats.FormatCount(g.NumUndirectedEdges()),
		stats.FormatCount(res.Triangles), stats.FormatCount(g.MultiEdgesMerged()))
	sb.WriteString(joint.MarginalY().Render("closing time distribution (log2 seconds buckets)", "log2(dt_close)", 48))
	sb.WriteByte('\n')
	sb.WriteString(joint.Render("joint distribution", "log2(dt_open)", "log2(dt_close)"))
	rep.Output = sb.String()

	// Verification: exact match against the serial reference (this is an
	// end-to-end integration check of generator + builder + survey).
	ref := gen.RedditReference(edges)
	var mismatches int
	var refTotal uint64
	for k, c := range ref {
		refTotal += c
		if joint.Count(k[0], k[1]) != c {
			mismatches++
		}
	}
	if mismatches == 0 && refTotal == joint.Total() {
		rep.notef("distributed joint distribution matches the serial reference exactly (%d pairs)", refTotal)
	} else {
		rep.notef("MISMATCH vs serial reference: %d cells differ", mismatches)
	}
	rep.notef("paper shape: wedges open fast; closure is not systematically rapid — mass spreads to large close buckets (§5.7)")
	return rep
}

// Fig7 regenerates the closure-survey strong-scaling study plus Table 3
// (average vertices pulled per rank, which collapses as ranks grow).
func Fig7(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig7", Title: "Strong scaling of closure-time collection + avg pulls per rank (Fig. 7 / Tab. 3)"}
	edges := gen.RedditLike(redditParams(cfg))
	tb := stats.NewTable("", "ranks", "max rank work", "work speedup", "dry-run", "push", "pull", "wall", "avg pulls/rank")
	var baseWork uint64
	var pulls []float64
	for _, n := range cfg.rankSweep() {
		w, g := BuildTemporal(cfg, n, edges)
		res, err := core.Run(g, core.Options{Mode: core.PushPull}, nil, core.ClosureTimeAnalysis[serialize.Unit]().Bind(new(*stats.Joint2D)))
		if err != nil {
			panic("Fig7: " + err.Error())
		}
		if n == cfg.rankSweep()[0] {
			baseWork = res.MaxRankWedgeChecks
		}
		pulls = append(pulls, res.AvgPullsPerRank)
		tb.AddRow(fmt.Sprintf("%d", n),
			stats.FormatCount(res.MaxRankWedgeChecks),
			fmt.Sprintf("%.2fx", float64(baseWork)/float64(res.MaxRankWedgeChecks)),
			stats.FormatDuration(res.DryRun.Duration),
			stats.FormatDuration(res.Push.Duration),
			stats.FormatDuration(res.Pull.Duration),
			stats.FormatDuration(res.Total),
			fmt.Sprintf("%.1f", res.AvgPullsPerRank))
		w.Close()
	}
	rep.Output = tb.Render()
	if len(pulls) >= 2 && pulls[len(pulls)-1] < pulls[0] {
		rep.notef("avg pulls per rank decreases with rank count (%.1f → %.1f), the Tab. 3 shift toward an almost entirely push-based algorithm", pulls[0], pulls[len(pulls)-1])
	} else if len(pulls) >= 2 {
		rep.notef("UNEXPECTED: pulls per rank did not decrease: %v", pulls)
	}
	return rep
}

// fqdnTriple is a sorted 3-tuple of FQDN strings.
type fqdnTriple = serialize.Triple[string, string, string]

// fqdnTripleAnalysis counts each sorted 3-tuple of pairwise distinct FQDNs
// in rank-local maps, folded by the survey's tree reduction.
func fqdnTripleAnalysis() core.Analysis[string, serialize.Unit, map[fqdnTriple]uint64] {
	return core.Analysis[string, serialize.Unit, map[fqdnTriple]uint64]{
		Name:     "fqdn-triples",
		NewAccum: func() map[fqdnTriple]uint64 { return map[fqdnTriple]uint64{} },
		Observe: func(_ *ygm.Rank, acc map[fqdnTriple]uint64, t *core.Triangle[string, serialize.Unit]) map[fqdnTriple]uint64 {
			a, b, c := t.MetaP, t.MetaQ, t.MetaR
			if a == b || b == c || a == c {
				return acc
			}
			if a > b {
				a, b = b, a
			}
			if b > c {
				b, c = c, b
			}
			if a > b {
				a, b = b, a
			}
			acc[fqdnTriple{First: a, Second: b, Third: c}]++
			return acc
		},
		Merge: func(x, y map[fqdnTriple]uint64) map[fqdnTriple]uint64 {
			for k, v := range y {
				x[k] += v
			}
			return x
		},
	}
}

// Fig8 regenerates the FQDN survey on the web-host stand-in: count
// 3-tuples of distinct FQDNs across all triangles, condition on the hub
// domain ("amazon.example" playing amazon.com), order the co-occurring
// FQDNs by Louvain communities, and render the pair distribution.
func Fig8(cfg Config) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{ID: "fig8", Title: "Distribution of FQDNs involved in triangles with the hub domain (Fig. 8)"}
	whp := gen.DefaultWebHostParams()
	whp.Pages = uint64(cfg.scaled(25_000, 600))
	whp.IntraEdges = cfg.scaled(100_000, 2_000)
	whp.InterEdges = cfg.scaled(160_000, 3_000)
	wh := gen.WebHostLike(whp)
	w, g := BuildFQDN(cfg, 4, wh)
	defer w.Close()

	var triples map[fqdnTriple]uint64
	res, err := core.Run(g, core.Options{}, nil, fqdnTripleAnalysis().Bind(&triples))
	if err != nil {
		panic("Fig8: " + err.Error())
	}

	// Post-processing "on a single machine" (§5.8): select triples
	// containing the hub, build the co-occurrence pair distribution.
	hub := gen.HubFQDNs[0]
	type pair struct{ a, b string }
	pairCount := map[pair]uint64{}
	var distinctTriples, hubTriples uint64
	var surveyed uint64
	for t, c := range triples {
		distinctTriples++
		surveyed += c
		var others []string
		switch hub {
		case t.First:
			others = []string{t.Second, t.Third}
		case t.Second:
			others = []string{t.First, t.Third}
		case t.Third:
			others = []string{t.First, t.Second}
		default:
			continue
		}
		hubTriples += c
		pairCount[pair{others[0], others[1]}] += c
	}

	// Louvain ordering of the co-occurring FQDNs.
	names := map[string]int{}
	var nameList []string
	idOf := func(s string) int {
		if id, ok := names[s]; ok {
			return id
		}
		id := len(nameList)
		names[s] = id
		nameList = append(nameList, s)
		return id
	}
	for p := range pairCount {
		idOf(p.a)
		idOf(p.b)
	}
	cg := newCommGraph(len(nameList))
	for p, c := range pairCount {
		cg.AddEdge(names[p.a], names[p.b], float64(c))
	}
	comm := louvain(cg, 11)
	order := make([]int, len(nameList))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if comm[a] != comm[b] {
			return comm[a] < comm[b]
		}
		return nameList[a] < nameList[b]
	})
	pos := make([]int, len(nameList))
	for p, id := range order {
		pos[id] = p
	}
	joint := stats.NewJoint2D()
	for p, c := range pairCount {
		x, y := pos[names[p.a]], pos[names[p.b]]
		if x > y {
			x, y = y, x
		}
		joint.Add(x, y, c)
	}

	// Rank co-occurring FQDNs by total weight with the hub.
	weightOf := map[string]uint64{}
	for p, c := range pairCount {
		weightOf[p.a] += c
		weightOf[p.b] += c
	}
	type wn struct {
		name string
		w    uint64
	}
	var tops []wn
	for n, c := range weightOf {
		tops = append(tops, wn{n, c})
	}
	sort.Slice(tops, func(i, j int) bool {
		if tops[i].w != tops[j].w {
			return tops[i].w > tops[j].w
		}
		return tops[i].name < tops[j].name
	})

	var sb strings.Builder
	fmt.Fprintf(&sb, "triangles=%s  distinct-FQDN triangles surveyed=%s  unique 3-tuples=%s\n",
		stats.FormatCount(res.Triangles), stats.FormatCount(surveyed), stats.FormatCount(distinctTriples))
	fmt.Fprintf(&sb, "triples involving %q: %s (%d FQDNs co-occur, %d Louvain communities)\n\n",
		hub, stats.FormatCount(hubTriples), len(nameList), 1+maxInt(comm))
	sb.WriteString("top FQDNs co-occurring with the hub:\n")
	for i, t := range tops {
		if i >= 8 {
			break
		}
		fmt.Fprintf(&sb, "  %-24s %s\n", t.name, stats.FormatCount(t.w))
	}
	sb.WriteByte('\n')
	sb.WriteString(joint.Render("hub-conditioned FQDN pair distribution (Louvain-ordered axes)", "fqdn idx", "fqdn idx"))
	rep.Output = sb.String()

	foundSatellite := false
	for i, t := range tops {
		if i >= 5 {
			break
		}
		for _, h := range gen.HubFQDNs[1:] {
			if t.name == h {
				foundSatellite = true
			}
		}
	}
	if foundSatellite {
		rep.notef("satellite/competitor domains dominate the hub's co-occurrence list — the Fig. 8 'abebooks.com' effect")
	} else {
		rep.notef("UNEXPECTED: no satellite domain in the top co-occurrences")
	}
	return rep
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
