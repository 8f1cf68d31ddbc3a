package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// Snapshots persist a built DODGr to disk so expensive construction
// (ingest, symmetrize, degree exchange, sort) runs once and many surveys
// can reload the result — the workflow the paper's FQDN study implies
// (§5.8 runs a 1694s survey over a graph that took long to build).
//
// Layout: <dir>/meta.tpg holds global figures and the partitioner name;
// <dir>/shard-<rank>.tpg holds one rank's vertices. World size and
// metadata codecs must match between Save and Load.

// snapshotMagic identifies the on-disk format. TPDG2 added the ordering
// strategy, the degeneracy bound, and per-vertex ordering weights; TPDG1
// snapshots (which always used the degree order) are not readable anymore —
// rebuild and re-save.
const snapshotMagic = "TPDG2"

// Save writes the graph to dir (created if needed). Collective over the
// graph's world; returns the first error from any rank.
func (g *DODGr[VM, EM]) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	errs := make([]error, g.w.Size())
	g.w.Parallel(func(r *ygm.Rank) {
		errs[r.ID()] = g.saveShard(r, dir)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return g.saveMeta(dir)
}

func (g *DODGr[VM, EM]) saveMeta(dir string) error {
	var e serialize.Encoder
	e.PutString(snapshotMagic)
	e.PutUvarint(uint64(g.w.Size()))
	e.PutString(g.part.Name())
	e.PutString(g.ordering.String())
	e.PutUvarint(g.numVertices)
	e.PutUvarint(g.numDirectedEdges)
	e.PutUvarint(g.numPlusEdges)
	e.PutUvarint(g.numWedges)
	e.PutUvarint(uint64(g.maxDeg))
	e.PutUvarint(uint64(g.maxOutDeg))
	e.PutUvarint(uint64(g.degeneracy))
	e.PutUvarint(g.selfLoopsDropped)
	e.PutUvarint(g.multiEdgesMerged)
	return os.WriteFile(filepath.Join(dir, "meta.tpg"), e.Bytes(), 0o644)
}

func (g *DODGr[VM, EM]) saveShard(r *ygm.Rank, dir string) error {
	f, err := os.Create(shardPath(dir, r.ID()))
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := g.encodeShard(r.ID(), bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeShard streams one rank's vertices to w; the inverse of
// decodeShard.
func (g *DODGr[VM, EM]) encodeShard(rank int, w io.Writer) error {
	var e serialize.Encoder
	rl := &g.local[rank]
	e.PutUvarint(uint64(len(rl.verts)))
	for i := range rl.verts {
		v := &rl.verts[i]
		e.PutUvarint(v.ID)
		e.PutUvarint(uint64(v.Deg))
		e.PutUvarint(uint64(v.Ord))
		g.vm.Encode(&e, v.Meta)
		e.PutUvarint(uint64(len(v.Adj)))
		for k := range v.Adj {
			o := &v.Adj[k]
			e.PutUvarint(o.Target)
			e.PutUvarint(uint64(o.TOrd))
			g.em.Encode(&e, o.EMeta)
			g.vm.Encode(&e, o.TMeta)
		}
		// Flush per vertex to keep the encoder small on huge shards.
		if e.Len() > 1<<20 {
			if _, err := w.Write(e.Bytes()); err != nil {
				return err
			}
			e.Reset()
		}
	}
	_, err := w.Write(e.Bytes())
	return err
}

func shardPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.tpg", rank))
}

// snapshotMeta is the decoded form of meta.tpg. The decoder is a pure
// function of the bytes (no world, no filesystem) so FuzzSnapshot can
// drive it directly.
type snapshotMeta struct {
	nranks           int
	part             Partitioner
	ordering         Ordering
	numVertices      uint64
	numDirectedEdges uint64
	numPlusEdges     uint64
	numWedges        uint64
	maxDeg           uint32
	maxOutDeg        uint32
	degeneracy       uint32
	selfLoopsDropped uint64
	multiEdgesMerged uint64
}

func decodeSnapshotMeta(raw []byte) (snapshotMeta, error) {
	var m snapshotMeta
	d := serialize.NewDecoder(raw)
	if magic := d.String(); magic != snapshotMagic {
		return m, fmt.Errorf("graph: not a DODGr snapshot (magic %q)", magic)
	}
	m.nranks = int(d.Uvarint())
	partName := d.String()
	ordName := d.String()
	m.numVertices = d.Uvarint()
	m.numDirectedEdges = d.Uvarint()
	m.numPlusEdges = d.Uvarint()
	m.numWedges = d.Uvarint()
	m.maxDeg = uint32(d.Uvarint())
	m.maxOutDeg = uint32(d.Uvarint())
	m.degeneracy = uint32(d.Uvarint())
	m.selfLoopsDropped = d.Uvarint()
	m.multiEdgesMerged = d.Uvarint()
	if d.Err() != nil {
		return m, fmt.Errorf("graph: corrupt snapshot meta: %w", d.Err())
	}
	// Name lookups only after the whole header decoded cleanly, so a
	// truncated buffer reports corruption rather than a garbage name.
	var ok bool
	if m.part, ok = PartitionerByName(partName); !ok {
		return m, fmt.Errorf("graph: unknown partitioner %q in snapshot", partName)
	}
	if m.ordering, ok = OrderingByName(ordName); !ok {
		return m, fmt.Errorf("graph: unknown ordering %q in snapshot", ordName)
	}
	if m.nranks < 1 {
		return m, fmt.Errorf("graph: snapshot claims %d ranks", m.nranks)
	}
	return m, nil
}

// Load reads a snapshot written by Save into a graph over w. The world
// size must match the snapshot's; codecs must be the ones used to save.
func Load[VM, EM any](w *ygm.World, dir string, vm serialize.Codec[VM], em serialize.Codec[EM]) (*DODGr[VM, EM], error) {
	metaRaw, err := os.ReadFile(filepath.Join(dir, "meta.tpg"))
	if err != nil {
		return nil, err
	}
	m, err := decodeSnapshotMeta(metaRaw)
	if err != nil {
		return nil, fmt.Errorf("%w (%s)", err, dir)
	}
	if m.nranks != w.Size() {
		return nil, fmt.Errorf("graph: snapshot has %d ranks, world has %d", m.nranks, w.Size())
	}
	g := &DODGr[VM, EM]{w: w, part: m.part, vm: vm, em: em, ordering: m.ordering}
	g.local = make([]rankLocal[VM, EM], w.Size())
	g.numVertices = m.numVertices
	g.numDirectedEdges = m.numDirectedEdges
	g.numPlusEdges = m.numPlusEdges
	g.numWedges = m.numWedges
	g.maxDeg = m.maxDeg
	g.maxOutDeg = m.maxOutDeg
	g.degeneracy = m.degeneracy
	g.selfLoopsDropped = m.selfLoopsDropped
	g.multiEdgesMerged = m.multiEdgesMerged

	errs := make([]error, w.Size())
	w.Parallel(func(r *ygm.Rank) {
		errs[r.ID()] = g.loadShard(r, dir)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

func (g *DODGr[VM, EM]) loadShard(r *ygm.Rank, dir string) error {
	raw, err := os.ReadFile(shardPath(dir, r.ID()))
	if err != nil {
		return err
	}
	return g.decodeShard(r.ID(), raw)
}

// decodeShard rebuilds one rank's vertices from shard bytes. Pure with
// respect to the world — only g.local[rank] and the codecs are touched —
// so FuzzSnapshot can drive it on arbitrary bytes. Every count decoded
// from the input is checked against the bytes actually remaining before
// any allocation it sizes: a vertex or adjacency entry costs at least one
// encoded byte each, so a count exceeding Remaining() is corruption, not
// a licence for a gigantic make.
func (g *DODGr[VM, EM]) decodeShard(rank int, raw []byte) error {
	d := serialize.NewDecoder(raw)
	n := int(d.Uvarint())
	if d.Err() != nil {
		return fmt.Errorf("graph: corrupt shard %d: %w", rank, d.Err())
	}
	if n < 0 || n > d.Remaining() {
		return fmt.Errorf("graph: corrupt shard %d: %d vertices in %d bytes", rank, n, d.Remaining())
	}
	rl := &g.local[rank]
	rl.index = make(map[uint64]int32, n)
	rl.verts = make([]Vertex[VM, EM], n)
	rl.indexed = int32(n)
	var arena []OutEdge[VM, EM]
	// Adjacency entries accumulate in one arena; per-vertex subslices are
	// re-pointed afterwards (appends may move the arena), reproducing the
	// CSR layout Build produces.
	adjLens := make([]int, n)
	for i := 0; i < n; i++ {
		v := &rl.verts[i]
		v.ID = d.Uvarint()
		v.Deg = uint32(d.Uvarint())
		v.Ord = uint32(d.Uvarint())
		v.Meta = g.vm.Decode(d)
		adjLen := int(d.Uvarint())
		if d.Err() != nil {
			return fmt.Errorf("graph: corrupt shard %d at vertex %d: %w", rank, i, d.Err())
		}
		if adjLen < 0 || adjLen > d.Remaining() {
			return fmt.Errorf("graph: corrupt shard %d at vertex %d: %d adjacencies in %d bytes", rank, i, adjLen, d.Remaining())
		}
		adjLens[i] = adjLen
		for k := 0; k < adjLen && d.Err() == nil; k++ {
			var o OutEdge[VM, EM]
			o.Target = d.Uvarint()
			o.TOrd = uint32(d.Uvarint())
			o.EMeta = g.em.Decode(d)
			o.TMeta = g.vm.Decode(d)
			arena = append(arena, o)
		}
		if d.Err() != nil {
			return fmt.Errorf("graph: corrupt shard %d at vertex %d: %w", rank, i, d.Err())
		}
		rl.index[v.ID] = int32(i)
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("graph: shard %d has %d trailing bytes", rank, d.Remaining())
	}
	off := 0
	for i := 0; i < n; i++ {
		end := off + adjLens[i]
		rl.verts[i].Adj = arena[off:end:end]
		off = end
	}
	return nil
}
