package gen

import (
	"math"
	"math/rand"

	"tripoll/internal/baseline"
	"tripoll/internal/graph"
)

// RedditParams shapes the Reddit stand-in (§5.2 of the paper): a temporal
// interaction multigraph between comment authors. The real dataset is 835M
// authors / 9.4B edges scraped from pushshift.io; this generator reproduces
// the mechanisms that give that graph its closure-time structure —
// preferential attachment (heavy-tailed degrees), triadic closure (replies
// inside an existing thread neighborhood close wedges), bursty heavy-tailed
// inter-event times, and repeated interaction (multi-edges, reduced to the
// chronologically first by the builder).
type RedditParams struct {
	// Users is the maximum author population.
	Users uint64
	// Events is the number of comment events (edge insertions).
	Events int
	// PJoin is the probability an event introduces a new author.
	PJoin float64
	// PClosure is the probability a comment goes to a
	// neighbor-of-a-neighbor (closing a wedge) rather than a
	// degree-preferential stranger.
	PClosure float64
	// MeanGap is the mean inter-event time in seconds; gaps are drawn from
	// a Pareto-like heavy tail so some wedges take much longer to close.
	MeanGap float64
	// Seed makes the stream reproducible.
	Seed int64
}

// DefaultRedditParams returns a configuration that produces a connected,
// triangle-rich temporal graph quickly.
func DefaultRedditParams() RedditParams {
	return RedditParams{
		Users:    50_000,
		Events:   400_000,
		PJoin:    0.05,
		PClosure: 0.35,
		MeanGap:  30,
		Seed:     42,
	}
}

// RedditLike simulates the comment stream and returns the temporal
// multigraph (one edge per event; duplicates intended — the DODGr builder's
// min-timestamp merge performs the §5.2 reduction).
func RedditLike(p RedditParams) []graph.TemporalEdge {
	if p.Users < 2 || p.Events < 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(p.Seed))
	edges := make([]graph.TemporalEdge, 0, p.Events)

	// Adjacency is tracked to sample wedge closures; endpoint list powers
	// degree-preferential sampling.
	adj := make(map[uint64][]uint64)
	var endpoints []uint64
	now := uint64(1)

	addEdge := func(a, b uint64) {
		edges = append(edges, graph.TemporalEdge{U: a, V: b, Time: now})
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
		endpoints = append(endpoints, a, b)
	}

	nextUser := uint64(2)
	addEdge(0, 1)

	for len(edges) < p.Events {
		// Heavy-tailed gap: Pareto with xm chosen to match MeanGap at
		// alpha = 1.5 (mean = alpha·xm/(alpha−1) = 3·xm).
		alpha := 1.5
		xm := p.MeanGap / 3
		gap := xm / math.Pow(rng.Float64(), 1/alpha)
		if gap > 1e7 {
			gap = 1e7 // clamp pathological tail draws
		}
		now += uint64(gap) + 1

		if nextUser < p.Users && rng.Float64() < p.PJoin {
			// A new author replies to a degree-preferential target.
			target := endpoints[rng.Intn(len(endpoints))]
			addEdge(nextUser, target)
			nextUser++
			continue
		}
		// An existing author acts; pick them degree-preferentially.
		a := endpoints[rng.Intn(len(endpoints))]
		if rng.Float64() < p.PClosure {
			// Triadic closure: reply to a neighbor's neighbor.
			na := adj[a]
			b := na[rng.Intn(len(na))]
			nb := adj[b]
			c := nb[rng.Intn(len(nb))]
			if c != a {
				addEdge(a, c)
				continue
			}
		}
		// Preferential stranger.
		c := endpoints[rng.Intn(len(endpoints))]
		if c != a {
			addEdge(a, c)
		}
	}
	return edges
}

// RedditReference computes, serially, the exact joint closure-time bucket
// distribution the distributed ClosureTimeAnalysis survey must reproduce. It
// mirrors the paper's Alg. 4 over the reduced (min-timestamp) simple graph.
// Returned map keys are (⌈log₂ Δt_open⌉, ⌈log₂ Δt_close⌉) pairs.
func RedditReference(edges []graph.TemporalEdge) map[[2]int]uint64 {
	// Reduce the multigraph: chronologically-first edge per pair.
	type pair = [2]uint64
	first := make(map[pair]uint64)
	for _, e := range edges {
		if e.U == e.V {
			continue
		}
		k := pair{e.U, e.V}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		if t, ok := first[k]; !ok || e.Time < t {
			first[k] = e.Time
		}
	}
	flat := make([][2]uint64, 0, len(first))
	times := make(map[pair]uint64, len(first))
	for k, t := range first {
		flat = append(flat, k)
		times[k] = t
	}
	out := make(map[[2]int]uint64)
	for _, tri := range baseline.SerialTriangles(flat) {
		t1 := times[normPair(tri[0], tri[1])]
		t2 := times[normPair(tri[0], tri[2])]
		t3 := times[normPair(tri[1], tri[2])]
		a, b, c := sort3(t1, t2, t3)
		out[[2]int{ceilLog2(b - a), ceilLog2(c - a)}]++
	}
	return out
}

func normPair(a, b uint64) [2]uint64 {
	if a > b {
		a, b = b, a
	}
	return [2]uint64{a, b}
}

func sort3(a, b, c uint64) (uint64, uint64, uint64) {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return a, b, c
}

func ceilLog2(x uint64) int {
	if x == 0 {
		return -1
	}
	n := 0
	for v := x - 1; v > 0; v >>= 1 {
		n++
	}
	return n
}
