package core

import (
	"tripoll/internal/graph"
	"tripoll/internal/ygm"
)

// DirectedCensus classifies the triangles of a directed input graph using
// the two-bit original-directionality metadata of §4: a triangle whose
// three arcs are single-direction is either cyclic (each vertex has
// exactly one outgoing arc within the triangle) or transitive; triangles
// containing a bidirectional or undirected edge are counted separately.
// This is the directed-motif census of temporal-motif work the paper
// situates itself against ([40]).
type DirectedCensus struct {
	Cyclic     uint64 // 3-cycles: p→q→r→p (up to rotation)
	Transitive uint64 // one source, one sink
	Reciprocal uint64 // at least one bidirectional edge
	Undirected uint64 // at least one edge with no direction info
}

// Total returns the number of classified triangles.
func (c DirectedCensus) Total() uint64 {
	return c.Cyclic + c.Transitive + c.Reciprocal + c.Undirected
}

// add folds o into c.
func (c DirectedCensus) add(o DirectedCensus) DirectedCensus {
	c.Cyclic += o.Cyclic
	c.Transitive += o.Transitive
	c.Reciprocal += o.Reciprocal
	c.Undirected += o.Undirected
	return c
}

// DirectedCensusAnalysis classifies triangles of a graph built with
// graph.AddArc / graph.MergeDirected edge metadata.
func DirectedCensusAnalysis[VM, EM any]() Analysis[VM, graph.Directed[EM], DirectedCensus] {
	return Analysis[VM, graph.Directed[EM], DirectedCensus]{
		Name: "census",
		Observe: func(_ *ygm.Rank, c DirectedCensus, t *Triangle[VM, graph.Directed[EM]]) DirectedCensus {
			dirs := [3]graph.Direction{t.MetaPQ.Dir, t.MetaPR.Dir, t.MetaQR.Dir}
			for _, d := range dirs {
				switch d {
				case graph.DirNone:
					c.Undirected++
					return c
				case graph.DirBoth:
					c.Reciprocal++
					return c
				}
			}
			// All single-direction: count outgoing arcs per vertex inside the
			// triangle; a directed 3-cycle gives every vertex exactly one.
			outP, outQ, outR := 0, 0, 0
			if graph.HasArc(t.MetaPQ, t.P, t.Q) {
				outP++
			} else {
				outQ++
			}
			if graph.HasArc(t.MetaPR, t.P, t.R) {
				outP++
			} else {
				outR++
			}
			if graph.HasArc(t.MetaQR, t.Q, t.R) {
				outQ++
			} else {
				outR++
			}
			if outP == 1 && outQ == 1 && outR == 1 {
				c.Cyclic++
			} else {
				c.Transitive++
			}
			return c
		},
		Merge: DirectedCensus.add,
	}
}
