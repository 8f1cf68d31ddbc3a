package graph

import "math/bits"

// Ordering selects the total vertex order <+ that orients G into G⁺. The
// order is realized as a per-vertex uint32 weight (Vertex.Ord): degree for
// OrderDegree (the paper's choice, §3), its bit length for OrderDegreeClass,
// k-core peeling epoch for OrderDegeneracy. Ties are broken by hash then id,
// so every strategy yields a total order through the same OrderKey
// machinery.
type Ordering uint8

const (
	// OrderDegree is the paper's degree-based <+ order: lower-degree
	// vertices come first, shrinking hub adjacency in G⁺ (§3).
	OrderDegree Ordering = iota
	// OrderDegeneracy orders vertices by removal epoch of a distributed
	// k-core peel (Matula–Beck smallest-last order, round-synchronous
	// variant). Every vertex then has at most degeneracy(G) out-neighbors
	// in G⁺, a strictly stronger bound than the degree order gives —
	// the Pashanasangi–Seshadhri refinement of TriPoll's idea.
	OrderDegeneracy
	// OrderDegreeClass orders vertices by degree class, bits.Len32(degree):
	// every out-neighbour of v has at least half of v's degree, so the
	// degree order's out-degree bound holds within a factor of 2. A
	// vertex's class changes only when its degree crosses a power of two,
	// which is what lets a stream snapshot re-orient only what a mutation
	// reached (Orienter.Snapshot).
	OrderDegreeClass
)

// String names the ordering for experiment output and snapshots.
func (o Ordering) String() string {
	switch o {
	case OrderDegree:
		return "degree"
	case OrderDegeneracy:
		return "degeneracy"
	case OrderDegreeClass:
		return "degree-class"
	default:
		return "unknown"
	}
}

// OrderingByName is String's inverse, used by snapshot loading and CLIs.
func OrderingByName(name string) (Ordering, bool) {
	switch name {
	case "degree":
		return OrderDegree, true
	case "degeneracy":
		return OrderDegeneracy, true
	case "degree-class":
		return OrderDegreeClass, true
	default:
		return OrderDegree, false
	}
}

// weight is a vertex's ordering weight computed from its own degree: the
// degree, or its class. OrderDegeneracy starts from the degree too; the peel
// replaces it.
func (o Ordering) weight(deg uint32) uint32 {
	if o == OrderDegreeClass {
		return uint32(bits.Len32(deg))
	}
	return deg
}

// Mix64 is the splitmix64 finalizer, the deterministic hash used to break
// weight ties in the <+ vertex ordering (§3).
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Less reports u <+ v for vertices u, v with ordering weights du, dv
// (degrees under OrderDegree, peel epochs under OrderDegeneracy): weight
// first, then hash, then raw id as a final tiebreak so <+ is a total order
// even under (astronomically unlikely) hash collisions.
func Less(du uint32, u uint64, dv uint32, v uint64) bool {
	if du != dv {
		return du < dv
	}
	hu, hv := Mix64(u), Mix64(v)
	if hu != hv {
		return hu < hv
	}
	return u < v
}

// OrderKey is the sortable form of a vertex's position in <+; adjacency
// lists are kept sorted by the order key of their targets so merge-path
// intersection works on any suffix (§4.3). Deg holds the ordering weight
// of the active strategy, not necessarily a degree.
type OrderKey struct {
	Deg  uint32
	Hash uint64
	ID   uint64
}

// KeyOf builds the order key for a vertex with ordering weight deg.
func KeyOf(deg uint32, id uint64) OrderKey {
	return OrderKey{Deg: deg, Hash: Mix64(id), ID: id}
}

// Less reports whether k sorts before o in <+.
func (k OrderKey) Less(o OrderKey) bool {
	if k.Deg != o.Deg {
		return k.Deg < o.Deg
	}
	if k.Hash != o.Hash {
		return k.Hash < o.Hash
	}
	return k.ID < o.ID
}

// CompareOrder is OrderKey.Compare on (weight, id) pairs, hashing only to
// break a weight tie — the comparator adjacency sorts run per element.
func CompareOrder(du uint32, u uint64, dv uint32, v uint64) int {
	switch {
	case du < dv:
		return -1
	case du > dv:
		return 1
	case u == v:
		return 0
	case Less(du, u, dv, v):
		return -1
	}
	return 1
}

// Compare returns -1, 0, or +1 ordering k against o.
func (k OrderKey) Compare(o OrderKey) int {
	switch {
	case k.Less(o):
		return -1
	case o.Less(k):
		return 1
	default:
		return 0
	}
}
