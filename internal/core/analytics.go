package core

import (
	"maps"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/ygm"
)

// Stock analyses: the paper's surveys packaged as Analysis values, all
// fusable into one traversal via Run. Count, VertexCount, MaxEdgeLabel and
// ClosureTime are invertible as well, so a Stream maintains them through
// expiry.

// CountAnalysis counts observed triangles. The engine maintains
// Result.Triangles anyway; attach this when a fused run wants the count
// published alongside other analysis outputs (or attributed by name).
func CountAnalysis[VM, EM any]() Analysis[VM, EM, uint64] {
	return Analysis[VM, EM, uint64]{
		Name:    "count",
		Observe: func(_ *ygm.Rank, acc uint64, _ *Triangle[VM, EM]) uint64 { return acc + 1 },
		// Wrapping: a rank's count may dip "negative" (the group contract).
		Unobserve: func(_ *ygm.Rank, acc uint64, _ *Triangle[VM, EM]) uint64 { return acc - 1 },
		Merge:     func(a, b uint64) uint64 { return a + b },
	}
}

// VertexCountAnalysis accumulates per-vertex triangle participation counts
// (the local counting of §5.3 that truss decomposition and clustering
// coefficients consume). Accumulators are rank-local maps merged at
// reduction — no per-triangle communication at all.
func VertexCountAnalysis[VM, EM any]() Analysis[VM, EM, map[uint64]uint64] {
	return Analysis[VM, EM, map[uint64]uint64]{
		Name:     "vertexcounts",
		NewAccum: func() map[uint64]uint64 { return make(map[uint64]uint64) },
		Observe: func(_ *ygm.Rank, acc map[uint64]uint64, t *Triangle[VM, EM]) map[uint64]uint64 {
			acc[t.P]++
			acc[t.Q]++
			acc[t.R]++
			return acc
		},
		Unobserve: func(_ *ygm.Rank, acc map[uint64]uint64, t *Triangle[VM, EM]) map[uint64]uint64 {
			decCount(acc, t.P)
			decCount(acc, t.Q)
			decCount(acc, t.R)
			return acc
		},
		Merge:    mergeCounts[uint64],
		Finalize: pruneZeroCounts[uint64],
		Clone:    maps.Clone[map[uint64]uint64],
	}
}

// ClusteringStats holds the output of ClusteringAnalysis. Under a plan,
// t(v) and |T| count only plan-matching triangles while degrees and
// wedges remain the full graph's, so Average and Global become
// plan-restricted variants of the standard definitions.
type ClusteringStats struct {
	// Average is the mean of per-vertex clustering coefficients
	// cc(v) = 2·t(v) / (d(v)·(d(v)−1)) over vertices with d(v) ≥ 2.
	Average float64
	// Global is the transitivity 3·|T| / |wedges of G|.
	Global float64
	// Triangles is |T(G)| (plan-matching triangles under a plan).
	Triangles uint64
	// Wedges counts unordered neighbor pairs Σ_v C(d(v), 2) in G (not G⁺).
	Wedges uint64
}

// ClusteringAccum is ClusteringAnalysis's accumulator and result: the
// per-vertex counts it accumulates during the traversal and the statistics
// its Finalize derives from them.
type ClusteringAccum struct {
	Counts map[uint64]uint64
	Stats  ClusteringStats
}

// ClusteringAnalysis derives clustering statistics from fused per-vertex
// triangle counts — one of the standard downstream consumers of local
// counts the paper cites ([7]). The constructor captures g because Finalize
// runs a degree pass over the built graph (outside the traversal; it moves
// no triangle data).
func ClusteringAnalysis[VM, EM any](g *graph.DODGr[VM, EM]) Analysis[VM, EM, ClusteringAccum] {
	return Analysis[VM, EM, ClusteringAccum]{
		Name:     "clustering",
		NewAccum: func() ClusteringAccum { return ClusteringAccum{Counts: make(map[uint64]uint64)} },
		Observe: func(_ *ygm.Rank, acc ClusteringAccum, t *Triangle[VM, EM]) ClusteringAccum {
			acc.Counts[t.P]++
			acc.Counts[t.Q]++
			acc.Counts[t.R]++
			return acc
		},
		Merge: func(a, b ClusteringAccum) ClusteringAccum {
			a.Counts = mergeCounts(a.Counts, b.Counts)
			return a
		},
		Finalize: func(acc ClusteringAccum) ClusteringAccum {
			w := g.World()
			var sum float64
			var verts uint64
			// The degree pass runs rank-local and reduces with collectives,
			// so it is correct on a multi-process world (where only the
			// local span's vertices are in this address space). The
			// reduction order matches the historical slot-order loop, so
			// single-process results are bit-identical.
			w.Parallel(func(r *ygm.Rank) {
				var pSum float64
				var pVerts, pWedges uint64
				for _, v := range g.LocalVertices(r) {
					d := uint64(v.Deg)
					if d < 2 {
						continue
					}
					pairs := d * (d - 1) / 2
					pWedges += pairs
					pVerts++
					pSum += float64(acc.Counts[v.ID]) / float64(pairs)
				}
				gSum := ygm.AllReduce(r, pSum, func(a, b float64) float64 { return a + b })
				gVerts := ygm.AllReduceSum(r, pVerts)
				gWedges := ygm.AllReduceSum(r, pWedges)
				if r.ID() == w.LeaderID() {
					sum, verts = gSum, gVerts
					acc.Stats.Wedges = gWedges
				}
			})
			for _, c := range acc.Counts {
				acc.Stats.Triangles += c
			}
			acc.Stats.Triangles /= 3
			if verts > 0 {
				acc.Stats.Average = sum / float64(verts)
			}
			if acc.Stats.Wedges > 0 {
				acc.Stats.Global = 3 * float64(acc.Stats.Triangles) / float64(acc.Stats.Wedges)
			}
			return acc
		},
	}
}

// MaxEdgeLabelAnalysis is Alg. 3: the distribution of the maximum edge
// label across triangles. distinctLabels applies the algorithm's guard that
// the three vertex labels be pairwise distinct; pass false on graphs whose
// vertices carry no labels (the guard would then reject every triangle).
func MaxEdgeLabelAnalysis[VM comparable](distinctLabels bool) Analysis[VM, uint64, map[uint64]uint64] {
	label := func(t *Triangle[VM, uint64]) (uint64, bool) {
		if distinctLabels && (t.MetaP == t.MetaQ || t.MetaQ == t.MetaR || t.MetaP == t.MetaR) {
			return 0, false
		}
		return max(t.MetaPQ, t.MetaPR, t.MetaQR), true
	}
	return Analysis[VM, uint64, map[uint64]uint64]{
		Name:     "maxlabel",
		NewAccum: func() map[uint64]uint64 { return make(map[uint64]uint64) },
		Observe: func(_ *ygm.Rank, acc map[uint64]uint64, t *Triangle[VM, uint64]) map[uint64]uint64 {
			if l, ok := label(t); ok {
				acc[l]++
			}
			return acc
		},
		Unobserve: func(_ *ygm.Rank, acc map[uint64]uint64, t *Triangle[VM, uint64]) map[uint64]uint64 {
			if l, ok := label(t); ok {
				decCount(acc, l)
			}
			return acc
		},
		Merge:    mergeCounts[uint64],
		Finalize: pruneZeroCounts[uint64],
		Clone:    maps.Clone[map[uint64]uint64],
	}
}

// TimePair is a (⌈log₂ Δt_open⌉, ⌈log₂ Δt_close⌉) bucket pair.
type TimePair = serialize.Pair[int64, int64]

// ClosureTimeAnalysis is Alg. 4 — the Reddit experiment of §5.7. Edge
// metadata must be timestamps. For each triangle with edge times
// t1 ≤ t2 ≤ t3 it buckets the wedge opening time Δt_open = t2 − t1 and
// triangle closing time Δt_close = t3 − t1 into ceil-log₂ bins and counts
// the joint pair.
//
// (Alg. 4 line 7 repeats Alg. 3's distinct-vertex-label guard, but §5.7
// states the Reddit survey uses no vertex metadata; the guard is a
// pseudocode artifact and is omitted here.)
func ClosureTimeAnalysis[VM any]() Analysis[VM, uint64, *stats.Joint2D] {
	return Analysis[VM, uint64, *stats.Joint2D]{
		Name:     "closure",
		NewAccum: stats.NewJoint2D,
		Observe: func(_ *ygm.Rank, acc *stats.Joint2D, t *Triangle[VM, uint64]) *stats.Joint2D {
			x, y := closureBuckets(t)
			acc.Add(x, y, 1)
			return acc
		},
		Unobserve: func(_ *ygm.Rank, acc *stats.Joint2D, t *Triangle[VM, uint64]) *stats.Joint2D {
			x, y := closureBuckets(t)
			acc.Sub(x, y, 1)
			return acc
		},
		Merge:    (*stats.Joint2D).Merge,
		Finalize: (*stats.Joint2D).Prune,
		Clone:    (*stats.Joint2D).Clone,
	}
}

// closureBuckets returns t's (⌈log₂ Δt_open⌉, ⌈log₂ Δt_close⌉) cell.
func closureBuckets[VM any](t *Triangle[VM, uint64]) (int, int) {
	t1, t2, t3 := sort3(t.MetaPQ, t.MetaPR, t.MetaQR)
	return int(stats.CeilLog2(t2 - t1)), int(stats.CeilLog2(t3 - t1))
}

// sort3 returns a, b, c in ascending order.
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

// DegreeTriple is a (⌈log₂ d(p)⌉, ⌈log₂ d(q)⌉, ⌈log₂ d(r)⌉) bucket triple.
type DegreeTriple = serialize.Triple[int64, int64, int64]

// DegreeTripleAnalysis is the §5.9 metadata-impact survey: vertex metadata
// is the vertex's degree, and the analysis counts log₂-bucketed degree
// triples across all triangles. VM must therefore be uint64 holding d(v).
func DegreeTripleAnalysis[EM any]() Analysis[uint64, EM, map[DegreeTriple]uint64] {
	return Analysis[uint64, EM, map[DegreeTriple]uint64]{
		Name:     "degtriples",
		NewAccum: func() map[DegreeTriple]uint64 { return make(map[DegreeTriple]uint64) },
		Observe: func(_ *ygm.Rank, acc map[DegreeTriple]uint64, t *Triangle[uint64, EM]) map[DegreeTriple]uint64 {
			acc[DegreeTriple{
				First:  int64(stats.CeilLog2(t.MetaP)),
				Second: int64(stats.CeilLog2(t.MetaQ)),
				Third:  int64(stats.CeilLog2(t.MetaR)),
			}]++
			return acc
		},
		Merge: mergeCounts[DegreeTriple],
	}
}
