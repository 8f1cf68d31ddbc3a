// Truss decomposition: per-edge triangle counts from a distributed survey
// feed the k-truss peeling post-process — the truss application of local
// triangle counting the paper cites ([15], §5.3).
package main

import (
	"fmt"
	"sort"

	"tripoll"
	"tripoll/datagen"
)

func main() {
	w := tripoll.NewWorld(4)
	defer w.Close()

	// A community-structured graph: dense groups produce deep trusses.
	p := datagen.DefaultWebHostParams()
	p.Pages = 4_000
	p.IntraEdges = 30_000
	p.InterEdges = 20_000
	wh := datagen.WebHostLike(p)

	g := tripoll.BuildSimple(w, wh.Edges)
	info := tripoll.Info(g)
	fmt.Printf("graph: |V|=%d undirected |E|=%d\n", info.Vertices, info.PlusEdges)

	// Distributed survey → per-edge triangle counts.
	var counts map[tripoll.EdgeKey]uint64
	res, err := tripoll.Run(g, tripoll.SurveyOptions{}, nil, tripoll.EdgeCountAnalysis[tripoll.Unit, tripoll.Unit]().Bind(&counts))
	if err != nil {
		panic(err)
	}
	fmt.Printf("triangles: %d; edges with triangle support: %d\n", res.Triangles, len(counts))

	// Single-machine peeling, seeded and verified by the survey's counts.
	var edges []tripoll.TrussEdge
	seen := map[tripoll.TrussEdge]bool{}
	for _, e := range wh.Edges {
		if e[0] == e[1] {
			continue
		}
		c := tripoll.TrussEdge{U: min64(e[0], e[1]), V: max64(e[0], e[1])}
		if !seen[c] {
			seen[c] = true
			edges = append(edges, c)
		}
	}
	countsByEdge := map[tripoll.TrussEdge]uint64{}
	for k, c := range counts {
		countsByEdge[tripoll.TrussEdge{U: k.First, V: k.Second}] = c
	}
	tr, disagreements := tripoll.TrussFromEdgeCounts(edges, countsByEdge)
	fmt.Printf("survey counts vs topology disagreements: %d (must be 0)\n\n", disagreements)

	sizes := tripoll.TrussSizes(tr)
	var ks []int
	for k := range sizes {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	fmt.Println("k-truss sizes (edges in each k-truss):")
	for _, k := range ks {
		fmt.Printf("  %2d-truss: %d edges\n", k, sizes[k])
	}
	fmt.Printf("max trussness: %d\n", tripoll.MaxTruss(tr))
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
