package analysis

import "math/bits"

// The dense truss kernel. Edges are int32 ids in canonical (U, V) order,
// adjacency is CSR with a parallel edge-id array, supports are a flat
// slice, and the peel is the Batagelj–Zaveršnik / Wang–Cheng bucket array:
// edges counting-sorted by support, peeled front to back, each decrement an
// O(1) swap to the front of its bucket. Work is the intersections — one per
// edge, O(min(deg u, deg v)·log) by galloping the shorter row through the
// longer — and the allocation count is a constant independent of the
// graph: no Go map, per-vertex slice or per-level queue anywhere.

// maxKernelEdges keeps 2m CSR slots and the 4m-slot vertex table
// addressable by int32.
const maxKernelEdges = 1 << 28

// csr is the kernel's adjacency over dense vertex ids (assigned in
// first-seen order; only row bounds use them). Row x lists x's neighbours'
// original vertex ids, ascending, with the id of the edge to each. The peel
// consumes it: a peeled edge's two slots are flagged, so later
// intersections skip it in a sequential scan.
type csr struct {
	eu, ev []int32  // per edge: dense ids of U and V
	su, sv []int32  // per edge: its slot in U's row and in V's
	off    []int32  // per dense vertex: row start; len n+1
	nbr    []uint64 // neighbour vertex ids, each row ascending
	eid    []int32  // edge ids, parallel to nbr; ^id once peeled
	maxDeg int
}

// vertexTable assigns dense ids to vertex ids with a flat open-addressed
// table (Fibonacci hashing, linear probing), sized for load ≤ 1/2.
type vertexTable struct {
	keys  []uint64
	ids   []int32 // dense id + 1; 0 marks an empty slot
	shift uint
	n     int32
}

func (t *vertexTable) id(x uint64) int32 {
	mask := uint64(len(t.ids) - 1)
	for h := (x * 0x9E3779B97F4A7C15) >> t.shift; ; h = (h + 1) & mask {
		switch id := t.ids[h]; {
		case id == 0:
			t.n++
			t.ids[h], t.keys[h] = t.n, x
			return t.n - 1
		case t.keys[h] == x:
			return id - 1
		}
	}
}

// buildCSR builds the adjacency of a normalized edge list (see isNormal).
// Rows come out sorted without sorting: every edge (w, x) with w < x
// precedes every edge (x, y) in the input, and each group is itself
// ascending, so filling in edge order appends to row x first its lower
// neighbours ascending, then its higher ones.
func buildCSR(edges []Edge) *csr {
	m := len(edges)
	if m > maxKernelEdges {
		panic("analysis: truss kernel edge limit exceeded")
	}
	logSize := bits.Len(uint(4 * m)) // 2^logSize > 4m ≥ 2n
	tab := vertexTable{
		keys:  make([]uint64, 1<<logSize),
		ids:   make([]int32, 1<<logSize),
		shift: uint(64 - logSize),
	}
	perEdge := make([]int32, 4*m)
	c := &csr{eu: perEdge[:m:m], ev: perEdge[m : 2*m : 2*m], su: perEdge[2*m : 3*m : 3*m], sv: perEdge[3*m:]}
	for i, e := range edges {
		if i > 0 && e.U == edges[i-1].U {
			c.eu[i] = c.eu[i-1]
		} else {
			c.eu[i] = tab.id(e.U)
		}
		c.ev[i] = tab.id(e.V)
	}

	n := int(tab.n)
	ints := make([]int32, (n+1)+n+2*m)
	c.off, ints = ints[:n+1:n+1], ints[n+1:]
	cur, ints := ints[:n:n], ints[n:]
	c.eid = ints
	c.nbr = make([]uint64, 2*m)
	for i := range edges {
		c.off[c.eu[i]+1]++
		c.off[c.ev[i]+1]++
	}
	for x := 0; x < n; x++ {
		c.maxDeg = max(c.maxDeg, int(c.off[x+1]))
		c.off[x+1] += c.off[x]
	}
	copy(cur, c.off)
	for i, e := range edges {
		u, v := c.eu[i], c.ev[i]
		c.su[i], c.sv[i] = cur[u], cur[v]
		c.nbr[cur[u]], c.eid[cur[u]] = e.V, int32(i)
		c.nbr[cur[v]], c.eid[cur[v]] = e.U, int32(i)
		cur[u]++
		cur[v]++
	}
	return c
}

// common intersects the row slices [a, aEnd) and [b, bEnd) and appends to
// buf, per common neighbour, the ids of the two edges reaching it — unless
// either has been peeled.
func (c *csr) common(a, aEnd, b, bEnd int32, buf []int32) []int32 {
	if aEnd-a > bEnd-b {
		a, aEnd, b, bEnd = b, bEnd, a, aEnd
	}
	nbr, eid := c.nbr, c.eid
	for ; a < aEnd && b < bEnd; a++ {
		f := eid[a]
		if f < 0 {
			continue
		}
		x := nbr[a]
		if nbr[b] < x {
			// Gallop: double the stride until it overshoots, then
			// bisect (lo, hi] for the first neighbour ≥ x.
			lo, step := b, int32(1)
			for lo+step < bEnd && nbr[lo+step] < x {
				lo += step
				step <<= 1
			}
			hi := min(lo+step, bEnd)
			for lo+1 < hi {
				if mid := lo + (hi-lo)/2; nbr[mid] < x {
					lo = mid
				} else {
					hi = mid
				}
			}
			b = hi
			if b == bEnd {
				break
			}
		}
		if nbr[b] == x {
			if g := eid[b]; g >= 0 {
				buf = append(buf, f, g)
			}
			b++
		}
	}
	return buf
}

// supports counts every edge's triangles from the topology. Each triangle
// u < v < w is found once, from its lowest edge {u, v}: the slots after v
// in u's row and after u in v's hold every candidate w > v.
func (c *csr) supports() []int32 {
	sup := make([]int32, len(c.eu))
	buf := make([]int32, 0, 2*c.maxDeg)
	for e := range sup {
		buf = c.common(c.su[e]+1, c.off[c.eu[e]+1], c.sv[e]+1, c.off[c.ev[e]+1], buf[:0])
		sup[e] += int32(len(buf) / 2)
		for _, f := range buf {
			sup[f]++
		}
	}
	return sup
}

// peel overwrites sup (initial supports, clamped to [0, m]) with each
// edge's trussness. Edges sit in order sorted by current support; bin[s] is
// the first position holding support ≥ s. Position i is peeled at level
// s = sup[order[i]]: everything after it has support ≥ s, and each
// surviving triangle through the peeled edge lowers its other two edges by
// one — never below s — by swapping the edge with the first of its bucket
// and advancing that bucket's start.
func (c *csr) peel(sup []int32) {
	m := int32(len(sup))
	maxSup := int32(0)
	for e, s := range sup {
		s = max(0, min(s, m))
		sup[e] = s
		maxSup = max(maxSup, s)
	}
	ints := make([]int32, 2*int(m)+int(maxSup)+2)
	pos, ints := ints[:m:m], ints[m:]
	order, bin := ints[:m:m], ints[m:]
	for _, s := range sup {
		bin[s+1]++
	}
	for s := int32(0); s <= maxSup; s++ {
		bin[s+1] += bin[s]
	}
	for e, s := range sup {
		pos[e] = bin[s]
		order[bin[s]] = int32(e)
		bin[s]++
	}
	copy(bin[1:], bin[:maxSup+1])
	bin[0] = 0

	buf := make([]int32, 0, 2*c.maxDeg)
	for i := int32(0); i < m; i++ {
		e := order[i]
		s := sup[e]
		c.eid[c.su[e]], c.eid[c.sv[e]] = ^e, ^e
		u, v := c.eu[e], c.ev[e]
		buf = c.common(c.off[u], c.off[u+1], c.off[v], c.off[v+1], buf[:0])
		for _, f := range buf {
			sf := sup[f]
			if sf <= s {
				continue
			}
			first := bin[sf]
			h := order[first]
			order[pos[f]], pos[h] = h, pos[f]
			order[first], pos[f] = f, first
			bin[sf]++
			sup[f] = sf - 1
		}
	}
	for e := range sup {
		sup[e] += 2
	}
}
