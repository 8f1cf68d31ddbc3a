package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// snapshotSeedCorpus saves a small real graph and returns its meta and
// shard-0 bytes, so the fuzzer starts from well-formed inputs.
func snapshotSeedCorpus(f *testing.F) (meta, shard []byte) {
	f.Helper()
	w := ygm.MustWorld(1, ygm.Options{})
	defer w.Close()
	b := NewBuilder(w, serialize.Uint64Codec(), serialize.Uint64Codec(), BuilderOptions[uint64]{})
	var g *DODGr[uint64, uint64]
	w.Parallel(func(r *ygm.Rank) {
		for _, e := range [][2]uint64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
			b.AddEdge(r, e[0], e[1], e[0]*100+e[1])
		}
		g = b.Build(r)
	})
	dir := f.TempDir()
	if err := g.Save(dir); err != nil {
		f.Fatal(err)
	}
	meta, err := os.ReadFile(filepath.Join(dir, "meta.tpg"))
	if err != nil {
		f.Fatal(err)
	}
	shard, err = os.ReadFile(shardPath(dir, 0))
	if err != nil {
		f.Fatal(err)
	}
	return meta, shard
}

// FuzzSnapshot feeds arbitrary bytes through both TPDG2 snapshot decoders
// (meta header and shard), mirroring internal/serialize's
// FuzzDecoderRobustness: corrupt input must produce a clean error — never
// a panic, a runaway loop, or an allocation sized by an attacker-chosen
// count — and input that does decode must re-encode and decode back to an
// identical shard. Runs the seed corpus under plain `go test`; fuzz with
// `go test -fuzz FuzzSnapshot ./internal/graph`.
func FuzzSnapshot(f *testing.F) {
	meta, shard := snapshotSeedCorpus(f)
	f.Add(meta)
	f.Add(shard)
	f.Add([]byte{})
	// A huge claimed vertex count in a tiny buffer.
	var e serialize.Encoder
	e.PutUvarint(1 << 60)
	f.Add(e.Bytes())
	// One vertex claiming a huge adjacency list.
	e.Reset()
	e.PutUvarint(1)
	e.PutUvarint(7) // ID
	e.PutUvarint(3) // Deg
	e.PutUvarint(3) // Ord
	e.PutUvarint(9) // Meta (uint64 codec)
	e.PutUvarint(1 << 40)
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		// Meta path: decode must only ever return (value, nil) or an error.
		_, _ = decodeSnapshotMeta(data)

		// Shard path, against a world-free single-rank graph shell.
		g := &DODGr[uint64, uint64]{
			vm:    serialize.Uint64Codec(),
			em:    serialize.Uint64Codec(),
			local: make([]rankLocal[uint64, uint64], 1),
		}
		if err := g.decodeShard(0, data); err != nil {
			return
		}
		// The bytes decoded: they must round-trip to an equal shard.
		var buf bytes.Buffer
		if err := g.encodeShard(0, &buf); err != nil {
			t.Fatalf("re-encode of decoded shard: %v", err)
		}
		g2 := &DODGr[uint64, uint64]{
			vm:    serialize.Uint64Codec(),
			em:    serialize.Uint64Codec(),
			local: make([]rankLocal[uint64, uint64], 1),
		}
		if err := g2.decodeShard(0, buf.Bytes()); err != nil {
			t.Fatalf("decode of re-encoded shard: %v", err)
		}
		if !reflect.DeepEqual(g.local[0].verts, g2.local[0].verts) {
			t.Fatalf("shard round trip diverged:\n%+v\nvs\n%+v", g.local[0].verts, g2.local[0].verts)
		}
		if !reflect.DeepEqual(g.local[0].index, g2.local[0].index) {
			t.Fatalf("shard index round trip diverged")
		}
	})
}

// FuzzSnapshotMetaRoundTrip: a well-formed meta header always decodes to
// the figures that produced it, for arbitrary figures.
func FuzzSnapshotMetaRoundTrip(f *testing.F) {
	f.Add(uint64(10), uint64(20), uint64(15), uint64(30), uint64(5), uint64(4), uint64(3))
	f.Fuzz(func(t *testing.T, nv, nde, npe, nw, maxDeg, maxOut, degen uint64) {
		var e serialize.Encoder
		e.PutString(snapshotMagic)
		e.PutUvarint(3)
		e.PutString(HashPartition{}.Name())
		e.PutString(OrderDegree.String())
		e.PutUvarint(nv)
		e.PutUvarint(nde)
		e.PutUvarint(npe)
		e.PutUvarint(nw)
		e.PutUvarint(maxDeg)
		e.PutUvarint(maxOut)
		e.PutUvarint(degen)
		e.PutUvarint(1)
		e.PutUvarint(2)
		m, err := decodeSnapshotMeta(e.Bytes())
		if err != nil {
			t.Fatalf("well-formed meta rejected: %v", err)
		}
		if m.nranks != 3 || m.numVertices != nv || m.numDirectedEdges != nde ||
			m.numPlusEdges != npe || m.numWedges != nw ||
			m.maxDeg != uint32(maxDeg) || m.maxOutDeg != uint32(maxOut) ||
			m.degeneracy != uint32(degen) ||
			m.selfLoopsDropped != 1 || m.multiEdgesMerged != 2 {
			t.Fatalf("meta round trip diverged: %+v", m)
		}
	})
}
