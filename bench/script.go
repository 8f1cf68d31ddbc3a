package main

// Input generation: every byte tripolld is handed — the edge-list file and
// the request scripts — is a pure function of (workload, seed, scale,
// seconds). Nothing here reads the clock or the environment.
//
// A script is a sequence of rounds; inside a round each of the two clients
// replays its own list, closed loop, and the round ends when both are done.
// A client's list is made of blocks: runs of consecutive requests that all
// have the same composition (class mix, share of windowed and push-only
// specs, batch sizes), with the parameters a seed draws stratified inside
// every block and across them. Two seeds so give different inputs whose mix
// is identical, early and late in the script alike: percentiles are set by
// the workload's structure, not by which heavy class a seed drew more of.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"tripoll/datagen"
	"tripoll/internal/engine"
	"tripoll/internal/graph"
)

const (
	surveyCold = "survey-cold"
	serveHot   = "serve-hot"
	streamDist = "stream-dist"
	trussIndex = "truss-index"
)

var workloadNames = []string{surveyCold, serveHot, streamDist, trussIndex}

// sizing holds the counts the builder tuned so that one timed phase lasts
// about -seconds on the seed commit on a 2-core host (README "Sizing").
// Graph sizes are at -scale 1; unit counts are per second of -seconds.
type sizing struct {
	events     int     // datagen.RedditLike events behind the base graph
	wedges     float64 // nominal |W+| of that graph; see drawEvents
	units      float64 // script units per second of run length (what a unit is: see generate)
	batchEdges int     // events per ingest
	advEvery   int     // ingests per write block; the block ends in one advance
}

var sizes = map[string]sizing{
	// unit = one 20-query block on each client, plus 1.4 write blocks of the tail
	surveyCold: {events: 1_000_000, wedges: 1_360_000, units: 1.7, batchEdges: 64, advEvery: 32},
	// unit = one 250-request block on each client, plus a quarter of a write block of the tail
	serveHot: {events: 1_000_000, wedges: 1_360_000, units: 9.5, batchEdges: 64, advEvery: 32},
	// unit = one write block on the writer and one 8-query block on the reader
	streamDist: {events: 250_000, wedges: 218_000, units: 2.2, batchEdges: 256, advEvery: 8},
	// unit = one cycle: a query round of 3 blocks a client, then a write round of 3 blocks
	trussIndex: {events: 30_000, wedges: 14_000, units: 1.5, batchEdges: 16, advEvery: 10},
}

type opKind uint8

const (
	opQuery opKind = iota
	opIngest
	opAdvance
)

// op is one scripted request. class is the request class layer tables group
// by: the analysis name, "ingest" or "advance".
type op struct {
	kind   opKind
	class  string
	spec   engine.Spec          // opQuery
	batch  []graph.Edge[uint64] // opIngest
	cutoff uint64               // opAdvance
	body   []byte               // HTTP request body
	want   []byte               // compact JSON of the expected value; nil = not oracle-checked
}

func (o *op) path() string {
	switch o.kind {
	case opIngest:
		return "/v1/ingest"
	case opAdvance:
		return "/v1/advance"
	default:
		return "/v1/query?wait=1"
	}
}

// round is one barrier-delimited part of the timed phase: the two clients
// replay their lists concurrently (a client with an empty list sits out).
type round [2][]op

// workload is one generated benchmark input.
type workload struct {
	name string
	base []graph.TemporalEdge // the edge-list file, in time order
	// warm is issued once, untimed, by one client before the timed phase.
	warm   []op
	rounds []round
	// final is the quiesced verification query.
	final op
	// catalogue is serve-hot's spec set (nil elsewhere); kept for the
	// determinism test.
	catalogue []op
}

// ops returns the round's requests in the order a one-client replay sends
// them: the two clients' lists interleaved.
func (r *round) ops() []*op {
	out := make([]*op, 0, len(r[0])+len(r[1]))
	for i := 0; i < len(r[0]) || i < len(r[1]); i++ {
		if i < len(r[0]) {
			out = append(out, &r[0][i])
		}
		if i < len(r[1]) {
			out = append(out, &r[1][i])
		}
	}
	return out
}

// timed returns every request of the timed phase, round after round, in
// one-client replay order.
func (w *workload) timed() []*op {
	var out []*op
	for r := range w.rounds {
		out = append(out, w.rounds[r].ops()...)
	}
	return out
}

func workloadSeed(name string, seed int64) int64 {
	for i, n := range workloadNames {
		if n == name {
			return seed*1_000_003 + int64(i)
		}
	}
	return seed
}

// generate builds the named workload. scale multiplies the graph size,
// seconds the script length.
func generate(name string, seed int64, scale, seconds float64) (*workload, error) {
	sz, ok := sizes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	rng := rand.New(rand.NewSource(workloadSeed(name, seed)))
	units := max(int(math.Round(sz.units*seconds)), 1)
	writeBlocks := map[string]int{
		surveyCold: max(units*14/10, 1),
		serveHot:   max(units/4, 1),
		streamDist: units + 1, // one more for the warm-up
		trussIndex: units * trussWriteBlocks,
	}[name]
	baseEvents := max(int(math.Round(float64(sz.events)*scale)), 2000)

	// The ingest stream continues the base's own event stream, so new edges
	// attach to (and close wedges of) the vertices the base already has, and
	// about four events in five repeat a pair the graph holds, as in the base.
	total := baseEvents + writeBlocks*sz.advEvery*sz.batchEdges
	nominal := sz.wedges
	if scale != 1 {
		nominal = 0 // the nominal is known at full size only
	}
	events := drawEvents(rng, total, baseEvents, nominal)

	w := &workload{name: name, base: events[:baseEvents]}
	ax := axisOf(w.base)
	writes := writeScript(events[baseEvents:], sz.batchEdges, sz.advEvery, ax)
	narrow := queryOp(engine.Spec{Analysis: "count", Delta: engine.Uint64(ax.span() / 500_000)})
	w.final = queryOp(engine.Spec{Analysis: "count"})

	switch name {
	case surveyCold:
		w.warm = []op{narrow}
		seen := make(map[string]bool)
		w.rounds = []round{
			{surveyScript(rng, units, 0, ax, seen), surveyScript(rng, units, 1, ax, seen)},
			{writes},
		}
	case serveHot:
		w.catalogue = catalogueSpecs(ax)
		w.warm = w.catalogue
		w.rounds = []round{
			{zipfScript(rng, units, w.catalogue), zipfScript(rng, units, w.catalogue)},
			{writes},
		}
	case streamDist:
		// The warm-up takes the deployment through one write and one
		// re-materialising read before anything is timed.
		block := sz.advEvery + 1
		w.warm = append(append([]op{narrow}, writes[:block]...), narrow)
		w.rounds = []round{{writes[block:], deltaScript(rng, units, ax)}}
	case trussIndex:
		w.warm = []op{queryOp(engine.Spec{Analysis: "maxtruss", From: engine.Uint64(ax.at(0.9))})}
		perRound := trussWriteBlocks * (sz.advEvery + 1)
		for c := 0; c < units; c++ {
			w.rounds = append(w.rounds,
				round{trussScript(rng, c, 0, ax), trussScript(rng, c, 1, ax)},
				round{writes[c*perRound : (c+1)*perRound]})
		}
		w.final = queryOp(engine.Spec{Analysis: "maxtruss"})
	}
	return w, nil
}

// drawEvents generates the event stream: total RedditLike events in time
// order, of which the first base form the base graph. The generator's early
// preferential-attachment steps decide which vertices become hubs, and with
// them the graph's oriented wedge count |W+| — the traversal's unit of
// work — which swings by ±20 % between generator seeds at a fixed event
// count. A benchmark input that much heavier or lighter than the next seed's
// would bury every other difference, so generator seeds are drawn (from rng,
// hence still a function of the benchmark seed) until the base graph's |W+|
// is within 5 % of the workload's nominal. nominal 0 takes the first draw.
func drawEvents(rng *rand.Rand, total, base int, nominal float64) []graph.TemporalEdge {
	const maxDraws = 12
	var best []graph.TemporalEdge
	bestOff := math.Inf(1)
	for draw := 0; draw < maxDraws; draw++ {
		p := datagen.DefaultRedditParams()
		p.Seed = rng.Int63()
		p.Events = total
		p.Users = uint64(base / 8)
		events := datagen.RedditLike(p) // already in time order
		if nominal == 0 {
			return events
		}
		off := math.Abs(orientedWedges(events[:base])/nominal - 1)
		if off < bestOff {
			best, bestOff = events, off
		}
		if off <= 0.05 {
			break
		}
	}
	return best
}

// orientedWedges counts |W+| = Σ C(out-degree, 2) over the degree-ordered
// orientation of the simple graph under events — what BuildTemporal's graph
// reports as Wedges.
func orientedWedges(events []graph.TemporalEdge) float64 {
	pairs := make(map[[2]uint64]struct{}, len(events)/4)
	for _, e := range events {
		if e.U != e.V {
			pairs[pairOf(e.U, e.V)] = struct{}{}
		}
	}
	deg := make(map[uint64]uint32, len(pairs)/2)
	for p := range pairs {
		deg[p[0]]++
		deg[p[1]]++
	}
	out := make(map[uint64]float64, len(deg))
	for p := range pairs {
		if graph.Less(deg[p[0]], p[0], deg[p[1]], p[1]) {
			out[p[0]]++
		} else {
			out[p[1]]++
		}
	}
	var w float64
	for _, d := range out {
		w += d * (d - 1) / 2
	}
	return w
}

// axis is the base graph's time axis.
type axis struct{ lo, hi uint64 }

func axisOf(edges []graph.TemporalEdge) axis {
	return axis{lo: edges[0].Time, hi: edges[len(edges)-1].Time}
}

func (a axis) span() uint64 { return a.hi - a.lo }

// at maps a fraction of the axis to a timestamp.
func (a axis) at(f float64) uint64 { return a.lo + uint64(f*float64(a.span())) }

func queryOp(spec engine.Spec) op {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a Spec of plain fields always marshals
	}
	return op{kind: opQuery, class: spec.Analysis, spec: spec, body: body}
}

// deltaOf maps a fraction to a log-uniform δ between 1/500 000 and 1/6 of
// the axis (60 s to 58 days on the default graph's 347-day axis).
func deltaOf(ax axis, f float64) uint64 {
	lo, hi := float64(ax.span())/500_000, float64(ax.span())/6
	if lo < 1 {
		lo = 1
	}
	return uint64(lo * math.Pow(hi/lo, f))
}

// surveySpec builds one spec of the survey mix: class with its δ at
// fraction delta of the log range; windowed over [from, from+width] of the
// axis when width > 0.
func surveySpec(ax axis, class string, delta, width, from float64, pushOnly bool) engine.Spec {
	spec := engine.Spec{Analysis: class, Delta: engine.Uint64(deltaOf(ax, delta))}
	if class == "sweep" {
		d := *spec.Delta
		args, _ := json.Marshal(map[string][]uint64{"deltas": {d / 16, d / 4, d}})
		spec.Args = args
	}
	if width > 0 {
		spec.From = engine.Uint64(ax.at(from))
		spec.Until = engine.Uint64(ax.at(from + width))
	}
	if pushOnly {
		spec.Mode = "push-only"
	}
	return spec
}

// surveyBlock is the class of each of a survey block's 20 requests: count
// 40 %, closure 25 %, cc 10 %, sweep 10 %, localcounts 10 %, edgecounts 5 %.
var surveyBlock = [20]string{
	"count", "closure", "count", "cc", "count", "closure", "sweep", "count", "localcounts", "closure",
	"count", "edgecounts", "count", "closure", "cc", "count", "sweep", "closure", "localcounts", "count",
}

// stratum returns a value in [0,1) for slot j of k in block b of n: the
// slots split [0,1) evenly inside every block, and inside a slot's share
// the n blocks take n distinct sub-slices (in the order perm gives) — so
// each block covers the range evenly and so does the script as a whole.
func stratum(rng *rand.Rand, j, k int, perm []int, b int) float64 {
	return (float64(j) + (float64(perm[b])+rng.Float64())/float64(len(perm))) / float64(k)
}

// surveyScript draws one client's script of the survey mix: blocks of 20
// pairwise-distinct specs. Position p of a block is windowed (over 25–100 %
// of the axis) when p mod 10 is 1, 4 or 7 — 30 % — and push-only when p mod
// 5 is 2 — 20 %; the class list is rotated by three positions from one
// block to the next, so that over a script every class meets every
// combination while every block keeps the exact mix. Each class's δ is
// stratified per block and across blocks (see stratum).
func surveyScript(rng *rand.Rand, blocks, client int, ax axis, seen map[string]bool) []op {
	// One permutation of the blocks per stratified quantity: each (class,
	// slot)'s δ, each windowed position's width and place.
	perms := make(map[string][]int)
	perm := func(what string, i int) []int {
		key := what + "/" + strconv.Itoa(i)
		if perms[key] == nil {
			perms[key] = rng.Perm(blocks)
		}
		return perms[key]
	}
	classSize := make(map[string]int)
	for _, c := range surveyBlock {
		classSize[c]++
	}
	out := make([]op, 0, blocks*len(surveyBlock))
	for b := 0; b < blocks; b++ {
		slot := make(map[string]int)
		for p := range surveyBlock {
			class := surveyBlock[(p+3*b+7*client)%len(surveyBlock)]
			j := slot[class]
			slot[class]++
			delta := stratum(rng, j, classSize[class], perm(class, j), b)
			var width, from float64
			if m := p % 10; m == 1 || m == 4 || m == 7 {
				width = 0.25 + 0.75*stratum(rng, 0, 1, perm("width", p), b)
				from = stratum(rng, 0, 1, perm("from", p), b) * (1 - width)
			}
			spec := surveySpec(ax, class, delta, width, from, p%5 == 2)
			o := queryOp(spec)
			for seen[string(o.body)] { // a jittered grid practically never collides
				*spec.Delta++
				o = queryOp(spec)
			}
			seen[string(o.body)] = true
			out = append(out, o)
		}
	}
	return out
}

// catalogueSize is the number of specs serve-hot draws from.
const catalogueSize = 64

// catalogueSpecs builds serve-hot's catalogue: the survey mix once more,
// but with nothing drawn — class, δ (as a share of the axis), window width
// and place of rank i are the same for every seed. The Zipf weights make the
// ranks very unequal, so the reply size at the hottest ranks must not depend
// on the seed; only the graph under the specs does.
func catalogueSpecs(ax axis) []op {
	out := make([]op, catalogueSize)
	for i := range out {
		// Steps coprime to 64 scatter δ, width and place over the ranks.
		mid := func(step int) float64 { return (float64(i*step%catalogueSize) + 0.5) / catalogueSize }
		var width, from float64
		if m := i % 10; m == 1 || m == 4 || m == 7 {
			width = 0.25 + 0.75*mid(23)
			from = mid(29) * (1 - width)
		}
		out[i] = queryOp(surveySpec(ax, surveyBlock[i%len(surveyBlock)], mid(37), width, from, i%5 == 2))
	}
	return out
}

// zipfBlock is serve-hot's block length.
const zipfBlock = 250

// zipfScript lays out one client's draws from the catalogue: rank k's share
// of the requests is the Zipf(s = 1.1) weight (1+k)^-1.1, met exactly over
// the script and as evenly as possible inside every stretch of it (each
// next request is the rank furthest behind its share), started at a seeded
// point of that sequence. An exact mix in every block keeps the bytes a
// block moves — the large replies are the work here — the same from block
// to block and seed to seed, which independent draws would not.
func zipfScript(rng *rand.Rand, blocks int, catalogue []op) []op {
	n := blocks * zipfBlock
	weights := make([]float64, len(catalogue))
	var sum float64
	for k := range weights {
		weights[k] = math.Pow(float64(1+k), -1.1)
		sum += weights[k]
	}
	used := make([]float64, len(catalogue))
	seq := make([]int, n)
	for i := range seq {
		best, bestLag := 0, math.Inf(-1)
		for k, w := range weights {
			if lag := w/sum*float64(i+1) - used[k]; lag > bestLag {
				best, bestLag = k, lag
			}
		}
		used[best]++
		seq[i] = best
	}
	start := rng.Intn(n)
	out := make([]op, n)
	for i := range out {
		out[i] = catalogue[seq[(start+i)%n]]
	}
	return out
}

// deltaBlock is the reader's block length on stream-dist.
const deltaBlock = 8

// deltaScript draws stream-dist's reader script: blocks of 8 distinct
// δ-queries, count and closure alternating, δ stratified as in surveyScript.
func deltaScript(rng *rand.Rand, blocks int, ax axis) []op {
	perms := make([][]int, deltaBlock)
	for j := range perms {
		perms[j] = rng.Perm(blocks)
	}
	out := make([]op, 0, blocks*deltaBlock)
	for b := 0; b < blocks; b++ {
		for j := 0; j < deltaBlock; j++ {
			class := []string{"count", "closure"}[(j+b)%2]
			// +len(out) keeps specs distinct even where two δ round together.
			delta := deltaOf(ax, stratum(rng, j, deltaBlock, perms[j], b)) + uint64(len(out))
			o := queryOp(engine.Spec{Analysis: class, Delta: engine.Uint64(delta)})
			out = append(out, o)
		}
	}
	return out
}

type wireEdge struct {
	U uint64 `json:"u"`
	V uint64 `json:"v"`
	T uint64 `json:"t"`
}

// writeScript cuts the continuation of the event stream into write blocks:
// perBlock ingests of size events each, in time order, then one advance.
// The window slides at the base axis's own length: each advance retires what
// fell more than one base-span behind the newest ingested event. All of a
// workload's mutations ride on one client, so they are applied in script
// order and the final edge set is a function of the script alone.
func writeScript(events []graph.TemporalEdge, size, perBlock int, ax axis) []op {
	var out []op
	for i := 0; i+size <= len(events); i += size {
		batch := make([]graph.Edge[uint64], size)
		wire := make([]wireEdge, size)
		for j, e := range events[i : i+size] {
			batch[j] = graph.Edge[uint64]{U: e.U, V: e.V, Meta: e.Time}
			wire[j] = wireEdge{U: e.U, V: e.V, T: e.Time}
		}
		body, _ := json.Marshal(map[string]any{"edges": wire})
		out = append(out, op{kind: opIngest, class: "ingest", batch: batch, body: body})
		if (i/size+1)%perBlock == 0 {
			cutoff := batch[size-1].Meta - ax.span()
			body, _ := json.Marshal(map[string]uint64{"cutoff": cutoff})
			out = append(out, op{kind: opAdvance, class: "advance", cutoff: cutoff, body: body})
		}
	}
	return out
}

const (
	// trussQueryBlocks and trussWriteBlocks are the blocks a client has in
	// one query round and the writer has in one write round of truss-index.
	trussQueryBlocks = 3
	trussWriteBlocks = 3
)

// trussBlock is one truss-index query block: eight fresh windows — maxtruss
// 50 %, trussness 25 %, spantruss 25 % — and four repeats (-1-i repeats
// entry i of the block), one query in three. A repeat follows its original
// inside a round, and rounds with writes never overlap rounds with queries,
// so it asks a key already answered in the current epoch: a memo hit.
var trussBlock = [12]int{0, 1, -1, 2, 3, 4, -4, 5, 6, -7, 7, -6}
var trussClass = [8]string{"maxtruss", "trussness", "maxtruss", "spantruss", "maxtruss", "trussness", "maxtruss", "spantruss"}

// trussScript draws one client's list for query round `cycle` of
// truss-index: trussQueryBlocks blocks, each fresh query with its own window
// over 25–100 % of the axis (width stratified inside the block: a peel costs
// what its window holds), spantruss with k ∈ {3,4,5} over the window's two
// halves.
func trussScript(rng *rand.Rand, cycle, client int, ax axis) []op {
	var out []op
	for b := 0; b < trussQueryBlocks; b++ {
		block := cycle*trussQueryBlocks + b
		fresh := make([]op, len(trussClass))
		widths := rng.Perm(len(trussClass))
		for i := range fresh {
			class := trussClass[(i+block+client)%len(trussClass)]
			width := 0.25 + 0.75*(float64(widths[i])+rng.Float64())/float64(len(widths))
			from := ax.at(rng.Float64() * (1 - width))
			until := from + uint64(width*float64(ax.span()))
			spec := engine.Spec{Analysis: class, From: engine.Uint64(from), Until: engine.Uint64(until)}
			if class == "spantruss" {
				mid := from + (until-from)/2
				args, _ := json.Marshal(map[string]any{"k": 3 + (i+block)%3, "spans": []map[string]uint64{
					{"from": from, "until": mid}, {"from": mid + 1, "until": until}}})
				spec.Args = args
			}
			fresh[i] = queryOp(spec)
		}
		for _, t := range trussBlock {
			o := fresh[max(t, -1-t)]
			out = append(out, o)
		}
	}
	return out
}
