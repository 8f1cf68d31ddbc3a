// Package baseline implements the comparison systems of Table 2 and the
// reference implementations used to validate TriPoll:
//
//   - Serial: the exact single-node counter (ground truth);
//   - WedgeQuery: the Pearce et al. [42] communication pattern — per-wedge
//     existence queries against the closing edge's owner;
//   - Replicated: the Tom et al. [58] stand-in — full replication,
//     throughput-oriented, memory-unscalable;
//   - EdgeCentric: the TriC [20] stand-in — edge-balanced partitions that
//     fetch adjacency lists on demand with caching.
//
// All distributed baselines run on the same ygm runtime as TriPoll so
// Table 2 compares communication patterns, not toolchains.
package baseline

import (
	"sort"

	"tripoll/internal/graph"
)

// adjGraph is a compact in-memory DODGr used by the serial baselines.
type adjGraph struct {
	ids []uint64            // sorted vertex ids
	deg map[uint64]uint32   // full degree
	out map[uint64][]uint64 // Adj⁺, sorted by <+ order key of target
}

// buildAdj constructs the degree-ordered out-adjacency from an undirected
// edge list (duplicates and self-loops tolerated).
func buildAdj(edges [][2]uint64) *adjGraph {
	und := make(map[[2]uint64]struct{}, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		und[[2]uint64{u, v}] = struct{}{}
	}
	g := &adjGraph{deg: make(map[uint64]uint32), out: make(map[uint64][]uint64)}
	for e := range und {
		g.deg[e[0]]++
		g.deg[e[1]]++
	}
	for e := range und {
		u, v := e[0], e[1]
		if graph.Less(g.deg[u], u, g.deg[v], v) {
			g.out[u] = append(g.out[u], v)
		} else {
			g.out[v] = append(g.out[v], u)
		}
	}
	for u := range g.deg {
		g.ids = append(g.ids, u)
		adj := g.out[u]
		sort.Slice(adj, func(i, j int) bool {
			return graph.KeyOf(g.deg[adj[i]], adj[i]).Less(graph.KeyOf(g.deg[adj[j]], adj[j]))
		})
	}
	sort.Slice(g.ids, func(i, j int) bool { return g.ids[i] < g.ids[j] })
	return g
}

// SerialCount counts triangles exactly with the single-threaded
// node-iterator algorithm over the degree-ordered graph. It is the ground
// truth every distributed implementation is validated against.
func SerialCount(edges [][2]uint64) uint64 {
	g := buildAdj(edges)
	var count uint64
	for _, p := range g.ids {
		adj := g.out[p]
		for i := 0; i+1 < len(adj); i++ {
			count += intersectCount(g, adj[i], adj[i+1:])
		}
	}
	return count
}

func intersectCount(g *adjGraph, q uint64, candidates []uint64) uint64 {
	qa := g.out[q]
	var n uint64
	k := 0
	for _, c := range candidates {
		ck := graph.KeyOf(g.deg[c], c)
		for k < len(qa) && graph.KeyOf(g.deg[qa[k]], qa[k]).Less(ck) {
			k++
		}
		if k < len(qa) && qa[k] == c {
			n++
			k++
		}
	}
	return n
}

// SerialTriangles enumerates every triangle as (p, q, r) with p <+ q <+ r,
// sorted lexicographically — exact multiset comparison material for tests.
func SerialTriangles(edges [][2]uint64) [][3]uint64 {
	g := buildAdj(edges)
	var out [][3]uint64
	for _, p := range g.ids {
		adj := g.out[p]
		for i := 0; i+1 < len(adj); i++ {
			q := adj[i]
			qa := g.out[q]
			k := 0
			for _, c := range adj[i+1:] {
				ck := graph.KeyOf(g.deg[c], c)
				for k < len(qa) && graph.KeyOf(g.deg[qa[k]], qa[k]).Less(ck) {
					k++
				}
				if k < len(qa) && qa[k] == c {
					out = append(out, [3]uint64{p, q, c})
					k++
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return out
}

// SerialLocalCounts returns per-vertex triangle participation counts.
func SerialLocalCounts(edges [][2]uint64) map[uint64]uint64 {
	counts := make(map[uint64]uint64)
	for _, t := range SerialTriangles(edges) {
		counts[t[0]]++
		counts[t[1]]++
		counts[t[2]]++
	}
	return counts
}
