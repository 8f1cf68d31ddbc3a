package exp

import (
	"math/rand"
)

// Single-machine community detection for the post-processing step of the
// Fig. 8 FQDN analysis: the paper orders the hub-conditioned FQDN×FQDN
// distribution "based on communities identified by the Louvain method".
// Louvain (modularity optimization with graph aggregation) is provided
// along with label propagation as a cheaper alternative.

// wEdge is a weighted half-edge.
type wEdge struct {
	To     int
	Weight float64
}

// commGraph is a small weighted undirected multigraph on nodes 0..N-1.
type commGraph struct {
	n    int
	adj  [][]wEdge
	self []float64 // self-loop weight (appears once)
	m2   float64   // 2m: total incident weight, self-loops counted twice
}

// newCommGraph creates a graph with n nodes and no edges.
func newCommGraph(n int) *commGraph {
	return &commGraph{n: n, adj: make([][]wEdge, n), self: make([]float64, n)}
}

// N returns the node count.
func (g *commGraph) N() int { return g.n }

// AddEdge adds an undirected edge of the given weight; u == v adds a
// self-loop.
func (g *commGraph) AddEdge(u, v int, w float64) {
	if u == v {
		g.self[u] += w
		g.m2 += 2 * w
		return
	}
	g.adj[u] = append(g.adj[u], wEdge{To: v, Weight: w})
	g.adj[v] = append(g.adj[v], wEdge{To: u, Weight: w})
	g.m2 += 2 * w
}

// strength returns the total weight incident to node u (self-loops twice).
func (g *commGraph) strength(u int) float64 {
	s := 2 * g.self[u]
	for _, e := range g.adj[u] {
		s += e.Weight
	}
	return s
}

// modularity computes Newman modularity Q of a node→community assignment.
func modularity(g *commGraph, comm []int) float64 {
	if g.m2 == 0 {
		return 0
	}
	in := map[int]float64{}  // intra-community edge weight ×2
	tot := map[int]float64{} // community total strength
	for u := 0; u < g.n; u++ {
		tot[comm[u]] += g.strength(u)
		in[comm[u]] += 2 * g.self[u]
		for _, e := range g.adj[u] {
			if comm[e.To] == comm[u] {
				in[comm[u]] += e.Weight
			}
		}
	}
	var q float64
	for c, w := range tot {
		q += in[c]/g.m2 - (w/g.m2)*(w/g.m2)
	}
	return q
}

// louvain runs the two-phase Louvain method: greedy local moving to a local
// modularity optimum, then aggregation into a community graph, repeated
// until no level improves. Returns the community id of every original node
// (ids are dense but arbitrary). Deterministic in seed.
func louvain(g *commGraph, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	// node→community through all levels so far.
	assign := make([]int, g.n)
	for i := range assign {
		assign[i] = i
	}
	cur := g
	for level := 0; level < 32; level++ {
		comm, moved := localMove(cur, rng)
		if !moved && level > 0 {
			break
		}
		comm = renumber(comm)
		// Fold this level's assignment into the global one.
		for i := range assign {
			assign[i] = comm[assign[i]]
		}
		next := aggregate(cur, comm)
		if next.n == cur.n {
			break // no merge happened; fixed point
		}
		cur = next
		if !moved {
			break
		}
	}
	return renumber(assign)
}

// localMove is Louvain phase 1: repeatedly move nodes to the neighboring
// community with the highest positive modularity gain.
func localMove(g *commGraph, rng *rand.Rand) (comm []int, movedAny bool) {
	comm = make([]int, g.n)
	tot := make([]float64, g.n)
	for i := range comm {
		comm[i] = i
		tot[i] = g.strength(i)
	}
	order := rng.Perm(g.n)
	if g.m2 == 0 {
		return comm, false
	}
	for pass := 0; pass < 64; pass++ {
		moved := false
		for _, u := range order {
			cu := comm[u]
			ku := g.strength(u)
			// Weight from u to each neighboring community.
			wTo := map[int]float64{}
			for _, e := range g.adj[u] {
				wTo[comm[e.To]] += e.Weight
			}
			// Remove u from its community.
			tot[cu] -= ku
			best, bestGain := cu, wTo[cu]-tot[cu]*ku/g.m2
			for c, w := range wTo {
				gain := w - tot[c]*ku/g.m2
				if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
					best, bestGain = c, gain
				}
			}
			tot[best] += ku
			if best != cu {
				comm[u] = best
				moved = true
			}
		}
		if !moved {
			break
		}
		movedAny = true
	}
	return comm, movedAny
}

// aggregate is Louvain phase 2: collapse each community into a super-node.
func aggregate(g *commGraph, comm []int) *commGraph {
	nc := 0
	for _, c := range comm {
		if c+1 > nc {
			nc = c + 1
		}
	}
	out := newCommGraph(nc)
	type pair struct{ a, b int }
	acc := map[pair]float64{}
	for u := 0; u < g.n; u++ {
		cu := comm[u]
		if g.self[u] > 0 {
			acc[pair{cu, cu}] += g.self[u]
		}
		for _, e := range g.adj[u] {
			cv := comm[e.To]
			if cu < cv {
				acc[pair{cu, cv}] += e.Weight
			} else if cu == cv {
				acc[pair{cu, cu}] += e.Weight / 2
			}
		}
	}
	for p, w := range acc {
		out.AddEdge(p.a, p.b, w)
	}
	return out
}

// renumber maps community ids onto 0..k-1 preserving first-appearance
// order.
func renumber(comm []int) []int {
	next := 0
	m := map[int]int{}
	out := make([]int, len(comm))
	for i, c := range comm {
		id, ok := m[c]
		if !ok {
			id = next
			m[c] = id
			next++
		}
		out[i] = id
	}
	return out
}

// labelPropagation assigns communities by iterative majority vote of
// neighbor labels — the cheap alternative ordering. Deterministic in seed.
func labelPropagation(g *commGraph, seed int64, maxIters int) []int {
	rng := rand.New(rand.NewSource(seed))
	label := make([]int, g.n)
	for i := range label {
		label[i] = i
	}
	if maxIters <= 0 {
		maxIters = 64
	}
	for it := 0; it < maxIters; it++ {
		changed := false
		for _, u := range rng.Perm(g.n) {
			if len(g.adj[u]) == 0 {
				continue
			}
			votes := map[int]float64{}
			for _, e := range g.adj[u] {
				votes[label[e.To]] += e.Weight
			}
			best, bestW := label[u], votes[label[u]]
			for l, w := range votes {
				if w > bestW+1e-12 || (w > bestW-1e-12 && l < best) {
					best, bestW = l, w
				}
			}
			if best != label[u] {
				label[u] = best
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return renumber(label)
}
