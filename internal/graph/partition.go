package graph

// Partitioner assigns each vertex id to the rank that stores its adjacency
// list, metadata, and computation (the Rank(u) of §3). The paper uses
// "random or cyclic partitionings of vertices across MPI ranks" (§4.2); both
// are provided.
type Partitioner interface {
	// Owner returns the rank in [0, n) responsible for vertex v.
	Owner(v uint64, n int) int
	// Name identifies the partitioner in experiment output.
	Name() string
}

// HashPartition places v on rank mix64(v) mod n — the "random" partitioning.
type HashPartition struct{}

// Owner implements Partitioner.
func (HashPartition) Owner(v uint64, n int) int { return int(Mix64(v) % uint64(n)) }

// Name implements Partitioner.
func (HashPartition) Name() string { return "hash" }

// CyclicPartition places v on rank v mod n.
type CyclicPartition struct{}

// Owner implements Partitioner.
func (CyclicPartition) Owner(v uint64, n int) int { return int(v % uint64(n)) }

// Name implements Partitioner.
func (CyclicPartition) Name() string { return "cyclic" }

// PartitionerByName is Name's inverse, used by snapshot loading and CLIs.
func PartitionerByName(name string) (Partitioner, bool) {
	switch name {
	case HashPartition{}.Name():
		return HashPartition{}, true
	case CyclicPartition{}.Name():
		return CyclicPartition{}, true
	default:
		return nil, false
	}
}
