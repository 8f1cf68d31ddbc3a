// tripoll is the command-line front end for running triangle surveys on
// edge-list files or generated graphs.
//
// Usage:
//
//	tripoll -input graph.txt -survey count
//	tripoll -gen reddit -survey closure -ranks 8
//	tripoll -gen ba -survey cc -mode push-only
//	tripoll -gen reddit -survey count,closure,labels   # one fused pass
//	tripoll -gen reddit -survey windowed -delta 3600
//	tripoll -gen reddit -survey wclosure -from 1000 -until 500000
//	tripoll -gen reddit -survey count,closure -stream 8 -window 200000
//	tripoll -help   # lists surveys, generators and bench experiments
//
// -survey accepts a comma-separated list: all listed surveys run as one
// fused traversal (one dry run, one push, one pull — see DESIGN.md §8).
// The plan flags -delta/-from/-until restrict every listed survey and push
// their predicates into the communication phases.
//
// -stream N replays the input as N chronological batches through the
// streaming maintenance path (DESIGN.md §9): each batch is ingested
// incrementally, -window W slides the expiry watermark W time units
// behind each batch, and the listed surveys are maintained as invertible
// stream analyses (count, closure, localcounts, labels and their windowed
// variants; cc and edgecounts have no streaming counterpart).
//
// Input files are whitespace edge lists: "u v [timestamp]", '#' comments.
// (The max-edge-label survey of Alg. 3 needs distinct vertex labels, which
// plain edge lists don't carry; -survey labels therefore reports the
// distribution over all triangles.)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"tripoll"
	"tripoll/datagen"
	"tripoll/internal/exp"
	"tripoll/internal/stats"
)

// surveys maps each -survey value to a one-line description; keep the
// listing in Usage in sync by construction.
var surveys = []struct {
	name, desc string
	streamable bool
}{
	{"count", "triangle count (Alg. 2)", true},
	{"closure", "joint wedge-open/triangle-close time distribution (Alg. 4, §5.7)", true},
	{"cc", "average clustering coefficient and global transitivity", false},
	{"localcounts", "per-vertex triangle participation counts (§5.3)", true},
	{"edgecounts", "per-edge triangle participation counts (truss input, §5.3)", false},
	{"labels", "distribution of each triangle's maximum edge label/timestamp (Alg. 3 sans vertex labels)", true},
	{"windowed", "plan-restricted count: -delta δ-window, -from/-until sliding window (predicate pushdown)", true},
	{"wclosure", "closure-time distribution restricted to the same plan flags", true},
	{"trussness", "per-edge trussness via support peeling over the fused traversal (§15)", false},
	{"maxtruss", "maximum trussness and per-k truss sizes", false},
	{"spantruss", "maximal k-truss per time span: -truss-k order, -spans windows", false},
}

var generators = []struct{ name, desc string }{
	{"reddit", "temporal comment stream (bursty timestamps, triadic closure)"},
	{"webhost", "planted host-communities web graph"},
	{"ba", "Barabási–Albert preferential attachment"},
	{"er", "Erdős–Rényi"},
	{"ws", "Watts–Strogatz small world"},
	{"rmat", "R-MAT scale 14"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitCode aborts run through fail; see app.fail.
type exitCode int

// app carries the CLI's output streams so tests can drive run in-process.
type app struct {
	out, errOut io.Writer
}

func (a *app) fail(format string, args ...any) {
	fmt.Fprintf(a.errOut, format+"\n", args...)
	panic(exitCode(2))
}

func (a *app) printf(format string, args ...any) {
	fmt.Fprintf(a.out, format, args...)
}

func usage(fs *flag.FlagSet, out io.Writer) func() {
	return func() {
		fmt.Fprintf(out, "tripoll runs triangle surveys on edge-list files or generated graphs.\n\nusage: tripoll [flags]\n\nflags:\n")
		fs.SetOutput(out)
		fs.PrintDefaults()
		fmt.Fprintf(out, "\nsurveys (-survey; comma-separate to fuse several into one traversal; * = streamable with -stream):\n")
		for _, s := range surveys {
			mark := " "
			if s.streamable {
				mark = "*"
			}
			fmt.Fprintf(out, "  %-12s %s %s\n", s.name, mark, s.desc)
		}
		fmt.Fprintf(out, "\ngenerators (-gen):\n")
		for _, g := range generators {
			fmt.Fprintf(out, "  %-12s %s\n", g.name, g.desc)
		}
		fmt.Fprintf(out, "\nbench experiments (go run ./cmd/tripoll-bench -exp <id>):\n")
		for _, r := range exp.All() {
			fmt.Fprintf(out, "  %-12s %s\n", r.ID, r.Desc)
		}
	}
}

func run(args []string, stdout, stderr io.Writer) (code int) {
	a := &app{out: stdout, errOut: stderr}
	defer func() {
		if p := recover(); p != nil {
			if c, ok := p.(exitCode); ok {
				code = int(c)
				return
			}
			panic(p)
		}
	}()

	fs := flag.NewFlagSet("tripoll", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		input     = fs.String("input", "", "edge list file (u v [timestamp])")
		genModel  = fs.String("gen", "", "generate instead of reading (see generator list below)")
		survey    = fs.String("survey", "count", "comma-separated surveys to fuse into one pass (see survey list below)")
		ranks     = fs.Int("ranks", 4, "simulated rank count")
		mode      = fs.String("mode", "push-pull", "algorithm: push-pull|push-only")
		transport = fs.String("transport", "channel", "transport: channel|tcp")
		seed      = fs.Int64("seed", 42, "generator seed")
		size      = fs.Int("size", 100_000, "generated edge budget / events")
		delta     = fs.Int64("delta", -1, "survey plan: keep triangles whose timestamps span ≤ delta (-1 = off)")
		from      = fs.Int64("from", -1, "survey plan: keep triangles with all timestamps ≥ from (-1 = off)")
		until     = fs.Int64("until", -1, "survey plan: keep triangles with all timestamps ≤ until (-1 = off)")
		stream    = fs.Int("stream", 0, "replay the input as N chronological batches through streaming maintenance (0 = off)")
		window    = fs.Int64("window", -1, "with -stream: retire edges more than W time units behind each batch (-1 = keep everything)")
		trussK    = fs.Int("truss-k", 0, "spantruss: truss order k (0 = default 3)")
		spansArg  = fs.String("spans", "", "spantruss: comma-separated from:until windows, e.g. 0:1000,500:1500 (default: the -from/-until window)")
	)
	fs.Usage = usage(fs, stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -help prints usage and succeeds, as ExitOnError did
		}
		return 2
	}

	// Plan flags use -1 as the "off" sentinel; anything else negative is a
	// contradiction the survey would silently turn into an empty or
	// undefined plan, so reject it loudly.
	for _, f := range []struct {
		name string
		v    int64
	}{{"-delta", *delta}, {"-from", *from}, {"-until", *until}, {"-window", *window}} {
		if f.v < -1 {
			a.fail("%s %d is negative: timestamps are unsigned (use -1 to disable)", f.name, f.v)
		}
	}
	if *from >= 0 && *until >= 0 && *from > *until {
		a.fail("contradictory window: -from %d > -until %d matches nothing", *from, *until)
	}
	// An explicit -stream 0 (or below) is a contradiction, not "off": the
	// user asked for streaming replay with no batches, which would silently
	// run the one-shot path. Only the untouched default means off.
	streamSet := false
	fs.Visit(func(f *flag.Flag) { streamSet = streamSet || f.Name == "stream" })
	if streamSet && *stream <= 0 {
		a.fail("-stream %d: streaming replay needs a positive batch count (omit -stream for a one-shot survey)", *stream)
	}
	if *window >= 0 && *stream == 0 {
		a.fail("-window needs -stream: there is no expiry watermark without batches")
	}

	opts := tripoll.SurveyOptions{}
	switch *mode {
	case "push-pull":
		opts.Mode = tripoll.PushPull
	case "push-only":
		opts.Mode = tripoll.PushOnly
	default:
		a.fail("unknown mode %q", *mode)
	}
	wopts := tripoll.WorldOptions{}
	switch *transport {
	case "channel":
		wopts.Transport = tripoll.TransportChannel
	case "tcp":
		wopts.Transport = tripoll.TransportTCP
	default:
		a.fail("unknown transport %q", *transport)
	}

	edges := a.loadEdges(*input, *genModel, *seed, *size)
	w, err := tripoll.NewWorldWith(*ranks, wopts)
	if err != nil {
		a.fail("world: %v", err)
	}
	defer w.Close()

	plan := tripoll.NewTemporalPlan()
	if *delta >= 0 {
		plan.CloseWithin(uint64(*delta))
	}
	if *from >= 0 {
		plan.From(uint64(*from))
	}
	if *until >= 0 {
		plan.Until(uint64(*until))
	}
	names := strings.Split(*survey, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	for _, name := range names {
		if name == "windowed" || name == "wclosure" {
			if plan.IsEmpty() {
				a.fail("-survey %s needs at least one of -delta, -from, -until", name)
			}
		}
	}

	if *stream > 0 {
		a.runStream(w, edges, opts, plan, names, *stream, *window)
		return 0
	}
	tmpl := tripoll.QuerySpec{Mode: *mode}
	if *delta >= 0 {
		tmpl.Delta = tripoll.OptUint64(uint64(*delta))
	}
	if *from >= 0 {
		tmpl.From = tripoll.OptUint64(uint64(*from))
	}
	if *until >= 0 {
		tmpl.Until = tripoll.OptUint64(uint64(*until))
	}
	a.runFused(w, edges, tmpl, names, *trussK, *spansArg)
	return 0
}

// parseSpans parses the -spans flag: comma-separated from:until pairs.
func (a *app) parseSpans(s string) []tripoll.TrussWindow {
	if s == "" {
		return nil
	}
	var out []tripoll.TrussWindow
	for _, part := range strings.Split(s, ",") {
		var wn tripoll.TrussWindow
		if n, err := fmt.Sscanf(strings.TrimSpace(part), "%d:%d", &wn.From, &wn.Until); n != 2 || err != nil {
			a.fail("bad -spans entry %q: want from:until", part)
		}
		out = append(out, wn)
	}
	return out
}

// runFused is the one-shot path, routed through the query engine: build
// the graph, register it, submit every requested survey as one QuerySpec
// batch — the engine coalesces the whole batch into a single fused
// traversal (and dedupes identical specs) — then print each answer.
func (a *app) runFused(w *tripoll.World, edges []tripoll.TemporalEdge, tmpl tripoll.QuerySpec, names []string, trussK int, spansArg string) {
	g := tripoll.BuildTemporal(w, edges)
	info := tripoll.Info(g)
	a.printf("graph: |V|=%s |E|=%s (directed, symmetrized) |W+|=%s dmax=%d dmax+=%d\n",
		stats.FormatCount(info.Vertices), stats.FormatCount(info.DirectedEdges),
		stats.FormatCount(info.Wedges), info.MaxDegree, info.MaxOutDegree)

	eng := tripoll.NewTemporalQueryEngine()
	defer eng.Close()
	if err := eng.Register("cli", g); err != nil {
		a.fail("engine: %v", err)
	}

	// Each requested survey becomes one spec and one printer over its
	// job's answer; nil printers (count) are covered by printResult's
	// "triangles:" line.
	var specs []tripoll.QuerySpec
	var printers []func(v any)
	for _, name := range names {
		spec := tmpl
		switch name {
		case "count", "windowed":
			spec.Analysis = "count"
			printers = append(printers, nil)
		case "closure", "wclosure":
			spec.Analysis = "closure"
			printers = append(printers, a.closurePrinter())
		case "cc":
			spec.Analysis = "cc"
			restricted := ""
			if tmpl.HasPlan() {
				// Under plan flags only matching triangles count toward t(v)
				// and |T|; say so instead of mislabeling the output as the
				// unrestricted coefficients.
				restricted = " (plan-restricted triangles)"
			}
			printers = append(printers, func(v any) {
				acc := v.(tripoll.ClusteringAccum)
				a.printf("average clustering coefficient%s: %.5f\nglobal transitivity%s: %.5f\n",
					restricted, acc.Stats.Average, restricted, acc.Stats.Global)
			})
		case "localcounts":
			spec.Analysis = "localcounts"
			printers = append(printers, a.vertexCountPrinter())
		case "edgecounts":
			spec.Analysis = "edgecounts"
			printers = append(printers, func(v any) {
				a.printf("top triangle-participating edges:\n")
				printTop(a, v.(map[tripoll.EdgeKey]uint64), func(x, y tripoll.EdgeKey) bool {
					if x.First != y.First {
						return x.First < y.First
					}
					return x.Second < y.Second
				}, func(e tripoll.EdgeKey) string {
					return fmt.Sprintf("{%d,%d}", e.First, e.Second)
				})
			})
		case "labels":
			spec.Analysis = "labels"
			printers = append(printers, a.labelPrinter())
		case "trussness":
			spec.Analysis = "trussness"
			printers = append(printers, func(v any) {
				d := v.(tripoll.TrussnessResult)
				a.printf("trussness: %s edges in triangles, max k=%d\n",
					stats.FormatCount(uint64(len(d.Edges))), d.Max)
				a.printf("highest-trussness edges:\n")
				top := make(map[tripoll.EdgeKey]uint64, len(d.Edges))
				for _, e := range d.Edges {
					top[tripoll.EdgeKey{First: e.U, Second: e.V}] = uint64(e.K)
				}
				printTop(a, top, func(x, y tripoll.EdgeKey) bool {
					if x.First != y.First {
						return x.First < y.First
					}
					return x.Second < y.Second
				}, func(e tripoll.EdgeKey) string {
					return fmt.Sprintf("{%d,%d} k", e.First, e.Second)
				})
			})
		case "maxtruss":
			spec.Analysis = "maxtruss"
			printers = append(printers, func(v any) {
				m := v.(tripoll.MaxTrussResult)
				a.printf("max trussness: %d\n", m.Max)
				for _, sz := range m.Sizes {
					a.printf("  %d-truss: %s edges\n", sz.K, stats.FormatCount(uint64(sz.Edges)))
				}
			})
		case "spantruss":
			spec.Analysis = "spantruss"
			args, err := json.Marshal(tripoll.SpanTrussQueryArgs{K: trussK, Spans: a.parseSpans(spansArg)})
			if err != nil {
				a.fail("spantruss args: %v", err)
			}
			spec.Args = args
			printers = append(printers, func(v any) {
				r := v.(tripoll.SpanTrussResult)
				a.printf("span %d-trusses:\n", r.K)
				for _, sp := range r.Spans {
					a.printf("  [%d, %d]: %s edges\n", sp.From, sp.Until, stats.FormatCount(uint64(sp.Size)))
				}
			})
		default:
			a.fail("unknown survey %q (run with -help for the list)", name)
		}
		specs = append(specs, spec)
	}
	jobs, err := eng.SubmitAll(context.Background(), specs...)
	if err != nil {
		a.fail("submit: %v", err)
	}
	values := make([]any, len(jobs))
	var res tripoll.Result
	for i, j := range jobs {
		qr, err := j.Wait(context.Background())
		if err != nil {
			a.fail("survey: %v", err)
		}
		values[i] = qr.Value
		if i == 0 {
			res = qr.Survey
		}
	}
	a.printResult(res, names)
	for i, print := range printers {
		if print != nil {
			print(values[i])
		}
	}
}

// runStream is the streaming path: time-sorted batches through OpenStream,
// a per-batch maintenance line, then the final snapshot of every analysis.
func (a *app) runStream(w *tripoll.World, edges []tripoll.TemporalEdge, opts tripoll.SurveyOptions, plan *tripoll.SurveyPlan[uint64], names []string, batches int, window int64) {
	var attached []tripoll.AttachedAnalysis[tripoll.Unit, uint64]
	var printers []func()
	for _, name := range names {
		switch name {
		case "count", "windowed":
			// The stream maintains the net count itself.
		case "closure", "wclosure":
			joint := new(*tripoll.Joint2D)
			attached = append(attached, tripoll.ClosureTimeAnalysis[tripoll.Unit]().Bind(joint))
			print := a.closurePrinter()
			printers = append(printers, func() { print(*joint) })
		case "localcounts":
			counts := new(map[uint64]uint64)
			attached = append(attached, tripoll.VertexCountAnalysis[tripoll.Unit, uint64]().Bind(counts))
			print := a.vertexCountPrinter()
			printers = append(printers, func() { print(*counts) })
		case "labels":
			dist := new(map[uint64]uint64)
			attached = append(attached, tripoll.MaxEdgeLabelAnalysis[tripoll.Unit](false).Bind(dist))
			print := a.labelPrinter()
			printers = append(printers, func() { print(*dist) })
		case "cc", "edgecounts", "trussness", "maxtruss", "spantruss":
			a.fail("-survey %s has no streaming counterpart (see the survey list: streamable surveys are marked *)", name)
		default:
			a.fail("unknown survey %q (run with -help for the list)", name)
		}
	}

	// Chronological replay: sort by timestamp and cut into equal batches.
	sorted := make([]tripoll.TemporalEdge, len(edges))
	copy(sorted, edges)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	keepFirst := func(x, y uint64) uint64 {
		if x < y {
			return x
		}
		return y
	}
	seedG := tripoll.BuildTemporal(w, nil) // empty seed: everything arrives as batches
	// The plan is passed even when empty: Advance expires by its
	// Timestamps accessor.
	s, err := tripoll.OpenStream(seedG, tripoll.StreamOptions[uint64]{Survey: opts, MergeEdgeMeta: keepFirst}, plan, attached...)
	if err != nil {
		a.fail("stream: %v", err)
	}
	a.printf("streaming %s edges in %d chronological batches (%s)\n",
		stats.FormatCount(uint64(len(sorted))), batches, opts.Mode)
	cutoff := uint64(0)
	for b := 0; b < batches; b++ {
		lo, hi := b*len(sorted)/batches, (b+1)*len(sorted)/batches
		if lo >= hi {
			continue
		}
		if window >= 0 && b > 0 {
			start := sorted[lo].Time
			if c := start - uint64(window); start > uint64(window) && c > cutoff {
				cutoff = c
				ares, err := s.Advance(cutoff)
				if err != nil {
					a.fail("advance: %v", err)
				}
				a.printf("  advance to t>=%d: retired %s edges, -%s triangles%s\n",
					cutoff, stats.FormatCount(ares.DeltaEdges), stats.FormatCount(ares.Triangles),
					rebuiltTag(ares))
			}
		}
		batch := make([]tripoll.StreamEdge[uint64], 0, hi-lo)
		for _, e := range sorted[lo:hi] {
			batch = append(batch, tripoll.StreamEdge[uint64]{U: e.U, V: e.V, Meta: e.Time})
		}
		res, err := s.Ingest(batch)
		if err != nil {
			a.fail("ingest: %v", err)
		}
		msgs := res.Mutate.Messages + res.DryRun.Messages + res.Push.Messages + res.Pull.Messages
		bytes := res.Mutate.Bytes + res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
		a.printf("  batch %d: %s edges (%s new), +%s triangles, %s in %s msgs, %s%s\n",
			b, stats.FormatCount(uint64(len(batch))), stats.FormatCount(res.DeltaEdges),
			stats.FormatCount(res.Triangles), stats.FormatBytes(bytes),
			stats.FormatCount(uint64(msgs)), stats.FormatDuration(res.Total), rebuiltTag(res))
	}
	st := s.Snapshot()
	a.printf("stream: %s live triangles after %d batches (%s inserted, %s merged, %s retired, %d rebuilds)\n",
		stats.FormatCount(st.Triangles), st.Batches,
		stats.FormatCount(st.Inserted), stats.FormatCount(st.Merged),
		stats.FormatCount(st.Retired), st.Rebuilds)
	for _, print := range printers {
		print()
	}
}

func rebuiltTag(res tripoll.Result) string {
	if res.Rebuilt {
		return " [epoch rebuild]"
	}
	return ""
}

func (a *app) closurePrinter() func(v any) {
	return func(v any) {
		joint := v.(*tripoll.Joint2D)
		a.printf("%s\n", joint.MarginalY().Render("closing time distribution", "log2(dt_close)", 48))
		a.printf("%s\n", joint.Render("joint open/close distribution", "log2(dt_open)", "log2(dt_close)"))
	}
}

func (a *app) vertexCountPrinter() func(v any) {
	return func(v any) {
		a.printf("top triangle-participating vertices:\n")
		printTop(a, v.(map[uint64]uint64), lessUint64, func(v uint64) string { return fmt.Sprintf("v%d", v) })
	}
}

func (a *app) labelPrinter() func(v any) {
	return func(v any) {
		a.printf("max edge label/timestamp distribution (most frequent):\n")
		printTop(a, v.(map[uint64]uint64), lessUint64, func(l uint64) string { return fmt.Sprintf("label %d", l) })
	}
}

// printTop renders the ten largest entries of a counter map; less orders
// keys naturally (numerically, not by rendered string) to break count ties
// deterministically.
func printTop[K comparable](a *app, counts map[K]uint64, less func(x, y K) bool, keyName func(K) string) {
	type kc struct {
		k K
		c uint64
	}
	var top []kc
	for k, c := range counts {
		top = append(top, kc{k, c})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].c != top[j].c {
			return top[i].c > top[j].c
		}
		return less(top[i].k, top[j].k)
	})
	for i, t := range top {
		if i >= 10 {
			break
		}
		a.printf("  %-16s %s\n", keyName(t.k), stats.FormatCount(t.c))
	}
}

func lessUint64(a, b uint64) bool { return a < b }

func (a *app) printResult(res tripoll.Result, requested []string) {
	a.printf("triangles: %s\n", stats.FormatCount(res.Triangles))
	if len(requested) > 1 {
		a.printf("fused surveys (one traversal): %s\n", strings.Join(requested, ", "))
	}
	a.printf("mode %s  total %s (dry-run %s, push %s, pull %s)\n",
		res.Mode, stats.FormatDuration(res.Total),
		stats.FormatDuration(res.DryRun.Duration),
		stats.FormatDuration(res.Push.Duration),
		stats.FormatDuration(res.Pull.Duration))
	bytes := res.DryRun.Bytes + res.Push.Bytes + res.Pull.Bytes
	a.printf("communication: %s in %s messages; pulls granted %s (%.1f/rank)\n",
		stats.FormatBytes(bytes),
		stats.FormatCount(uint64(res.DryRun.Messages+res.Push.Messages+res.Pull.Messages)),
		stats.FormatCount(res.PullsGranted), res.AvgPullsPerRank)
	if res.Planned {
		a.printf("pushdown: %s wedge batches, %s candidates and %s pull entries pruned before enqueue\n",
			stats.FormatCount(res.PrunedBatches),
			stats.FormatCount(res.PrunedCandidates),
			stats.FormatCount(res.PrunedPullEntries))
	}
}

func (a *app) loadEdges(input, model string, seed int64, size int) []tripoll.TemporalEdge {
	if input != "" {
		edges, err := tripoll.ReadEdgeListFile(input)
		if err != nil {
			a.fail("read %s: %v", input, err)
		}
		return edges
	}
	switch model {
	case "reddit":
		p := datagen.DefaultRedditParams()
		p.Seed = seed
		p.Events = size
		p.Users = uint64(size / 8)
		return datagen.RedditLike(p)
	case "webhost":
		p := datagen.DefaultWebHostParams()
		p.Seed = seed
		p.IntraEdges = size * 2 / 5
		p.InterEdges = size * 3 / 5
		return datagen.ToTemporal(datagen.WebHostLike(p).Edges)
	case "ba":
		return datagen.ToTemporal(datagen.BarabasiAlbert(uint64(size/8), 8, seed))
	case "er":
		return datagen.ToTemporal(datagen.ErdosRenyi(uint64(size/16), size, seed))
	case "ws":
		return datagen.ToTemporal(datagen.WattsStrogatz(uint64(size/6), 3, 0.1, seed))
	case "rmat":
		p := datagen.RMATParams{Scale: 14, Seed: seed, Scramble: true}
		edges := make([]tripoll.TemporalEdge, 0, p.NumEdges())
		p.Generate(0, p.NumEdges(), func(u, v uint64) {
			edges = append(edges, tripoll.TemporalEdge{U: u, V: v})
		})
		return edges
	case "":
		a.fail("need -input or -gen (run with -help for the generator list)")
	default:
		a.fail("unknown generator %q (run with -help for the list)", model)
	}
	return nil
}
