package exp

import (
	"math/rand"
	"testing"
)

// twoCliques builds two k-cliques joined by a single bridge edge.
func twoCliques(k int) *commGraph {
	g := newCommGraph(2 * k)
	for off := 0; off < 2; off++ {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(off*k+i, off*k+j, 1)
			}
		}
	}
	g.AddEdge(0, k, 1)
	return g
}

// ringOfCliques builds r cliques of size k arranged in a ring.
func ringOfCliques(r, k int) *commGraph {
	g := newCommGraph(r * k)
	for c := 0; c < r; c++ {
		base := c * k
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(base+i, base+j, 1)
			}
		}
		next := ((c + 1) % r) * k
		g.AddEdge(base, next, 1)
	}
	return g
}

func sameCommunity(comm []int, a, b int) bool { return comm[a] == comm[b] }

func TestLouvainSeparatesTwoCliques(t *testing.T) {
	g := twoCliques(6)
	comm := louvain(g, 1)
	for i := 1; i < 6; i++ {
		if !sameCommunity(comm, 0, i) {
			t.Errorf("clique A split: node %d", i)
		}
		if !sameCommunity(comm, 6, 6+i) {
			t.Errorf("clique B split: node %d", 6+i)
		}
	}
	if sameCommunity(comm, 0, 6) {
		t.Error("cliques merged")
	}
}

func TestLouvainRingOfCliques(t *testing.T) {
	g := ringOfCliques(8, 5)
	comm := louvain(g, 3)
	// Every clique must be internally cohesive.
	for c := 0; c < 8; c++ {
		base := c * 5
		for i := 1; i < 5; i++ {
			if comm[base] != comm[base+i] {
				t.Fatalf("clique %d split", c)
			}
		}
	}
	// Modularity should be high (the planted partition scores ~0.8).
	if q := modularity(g, comm); q < 0.6 {
		t.Errorf("modularity = %v, want > 0.6", q)
	}
}

func TestLouvainImprovesModularityOverSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := newCommGraph(60)
	// Planted partition: 3 groups of 20, dense inside, sparse across.
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			sameGroup := i/20 == j/20
			if sameGroup && rng.Float64() < 0.4 {
				g.AddEdge(i, j, 1)
			} else if !sameGroup && rng.Float64() < 0.02 {
				g.AddEdge(i, j, 1)
			}
		}
	}
	singletons := make([]int, 60)
	for i := range singletons {
		singletons[i] = i
	}
	comm := louvain(g, 7)
	if modularity(g, comm) <= modularity(g, singletons) {
		t.Errorf("Louvain Q=%v did not beat singleton Q=%v",
			modularity(g, comm), modularity(g, singletons))
	}
}

func TestLouvainDeterministicInSeed(t *testing.T) {
	g := ringOfCliques(5, 4)
	a := louvain(g, 42)
	b := louvain(g, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Louvain not deterministic for fixed seed")
		}
	}
}

func TestLouvainEmptyAndTiny(t *testing.T) {
	g := newCommGraph(3) // no edges
	comm := louvain(g, 1)
	if len(comm) != 3 {
		t.Fatal("assignment length")
	}
	g2 := newCommGraph(2)
	g2.AddEdge(0, 1, 1)
	comm2 := louvain(g2, 1)
	if comm2[0] != comm2[1] {
		t.Error("single edge should merge both nodes")
	}
}

func TestModularityBounds(t *testing.T) {
	g := twoCliques(5)
	comm := louvain(g, 1)
	q := modularity(g, comm)
	if q < -0.5 || q > 1 {
		t.Errorf("modularity out of range: %v", q)
	}
	if modularity(newCommGraph(4), []int{0, 1, 2, 3}) != 0 {
		t.Error("empty graph modularity should be 0")
	}
}

func TestSelfLoopsHandled(t *testing.T) {
	g := newCommGraph(2)
	g.AddEdge(0, 0, 5)
	g.AddEdge(0, 1, 1)
	comm := louvain(g, 1)
	if len(comm) != 2 {
		t.Fatal("assignment length")
	}
	_ = modularity(g, comm) // must not panic or NaN
}

func TestLabelPropagationTwoCliques(t *testing.T) {
	g := twoCliques(8)
	comm := labelPropagation(g, 2, 0)
	for i := 1; i < 8; i++ {
		if comm[0] != comm[i] {
			t.Errorf("clique A split at %d", i)
		}
		if comm[8] != comm[8+i] {
			t.Errorf("clique B split at %d", 8+i)
		}
	}
}

func TestLabelPropagationDeterministic(t *testing.T) {
	g := ringOfCliques(4, 5)
	a := labelPropagation(g, 9, 0)
	b := labelPropagation(g, 9, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("label propagation not deterministic")
		}
	}
}

func TestRenumberDense(t *testing.T) {
	out := renumber([]int{7, 7, 3, 7, 9})
	want := []int{0, 0, 1, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("renumber = %v", out)
		}
	}
}
