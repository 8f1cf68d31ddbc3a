package main

// Leaf measurements (source K in the README's layer table): direct calls
// into one layer's public functions on inputs captured from the workload —
// the script's own batches, its message counts and sizes, its query
// windows. Each lands in the trace as a span of its layer; the ones a
// scripted mutation causes (the WAL append) hang under that request's
// engine span, the rest are free-standing (req −1).

import (
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tripoll/internal/analysis"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/wal"
	"tripoll/internal/ygm"
)

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// replayLeaves runs the leaf measurements that need no built graph.
func replayLeaves(script []*op, tr *tracer, parents []int, dir string, lm *layerInputs) error {
	if err := walLeaf(script, tr, parents, dir, lm); err != nil {
		return err
	}
	shardLeaf(script, tr, lm)
	serializeLeaf(tr, lm)
	return ygmLeaf(tr, lm)
}

// walLeaf appends the script's mutations to scratch logs: once under
// SyncAlways (one span per mutation, under the request's engine span),
// once under SyncNever (what remains is encode + write), then reopens the
// first log to time its replay.
func walLeaf(script []*op, tr *tracer, parents []int, dir string, lm *layerInputs) error {
	codec := serialize.Uint64Codec()
	appendAll := func(sub string, sync wal.SyncPolicy, each func(i int, start time.Time, d time.Duration)) (wal.Stats, error) {
		log, _, err := wal.Open(filepath.Join(dir, sub), codec, wal.Options{Sync: sync})
		if err != nil {
			return wal.Stats{}, err
		}
		defer log.Close()
		for i, o := range script {
			if o.kind == opQuery {
				continue
			}
			start := time.Now()
			if o.kind == opIngest {
				_, err = log.AppendIngest(o.batch)
			} else {
				_, err = log.AppendAdvance(o.cutoff)
			}
			if err != nil {
				return wal.Stats{}, err
			}
			each(i, start, time.Since(start))
		}
		return log.Stats(), nil
	}
	edges := 0
	for i := range script {
		edges += len(script[i].batch)
	}
	var syncMs, nosyncUs []float64
	st, err := appendAll("wal-k", wal.SyncAlways, func(i int, start time.Time, d time.Duration) {
		tr.add(layerWal, "append", i, parents[i], start, d)
		syncMs = append(syncMs, float64(d.Nanoseconds())/1e6)
	})
	if err != nil {
		return err
	}
	if _, err := appendAll("wal-k0", wal.SyncNever, func(_ int, _ time.Time, d time.Duration) {
		nosyncUs = append(nosyncUs, float64(d.Nanoseconds())/1e3)
	}); err != nil {
		return err
	}
	start := time.Now()
	log, recs, err := wal.Open(filepath.Join(dir, "wal-k"), codec, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	tr.add(layerWal, "replay", -1, -1, start, time.Since(start))
	lm.leaf["wal.replay_ms"] = metric{msSince(start), "ms", len(recs)}
	log.Close()
	lm.leaf["wal.append_sync_ms"] = metric{median(syncMs), "ms", len(syncMs)}
	lm.leaf["wal.append_nosync_us"] = metric{median(nosyncUs), "us", len(nosyncUs)}
	lm.leaf["wal.bytes_per_edge"] = metric{float64(st.Bytes) / float64(max(edges, 1)), "bytes", edges}
	return nil
}

// shardLeaf inserts the script's batches, both half-edges each, into an
// empty stream shard.
func shardLeaf(script []*op, tr *tracer, lm *layerInputs) {
	sh := graph.NewStreamShard[serialize.Unit, uint64]()
	eq := func(a, b uint64) bool { return a == b }
	edges := 0
	start := time.Now()
	for i := range script {
		for _, e := range script[i].batch {
			sh.Insert(sh.Ensure(e.U), e.V, e.Meta, serialize.Unit{}, 1, minTimestamp, eq)
			sh.Insert(sh.Ensure(e.V), e.U, e.Meta, serialize.Unit{}, 1, minTimestamp, eq)
			edges++
		}
	}
	d := time.Since(start)
	tr.add(layerGraph, "shard.insert", -1, -1, start, d)
	lm.leaf["graph.shard_insert_ns"] = metric{float64(d.Nanoseconds()) / float64(max(edges, 1)), "ns", edges}
}

// snapshotLeaf saves g as a TPDG2 snapshot and loads it back — the I/O of a
// WAL checkpoint and of the recovery that follows one.
func snapshotLeaf(g *graph.DODGr[serialize.Unit, uint64], dir string, tr *tracer, lm *layerInputs) error {
	snap := filepath.Join(dir, "snap-k")
	start := time.Now()
	if err := g.Save(snap); err != nil {
		return err
	}
	tr.add(layerGraph, "snapshot.save", -1, -1, start, time.Since(start))
	lm.leaf["graph.snapshot_save_ms"] = metric{msSince(start), "ms", 1}
	start = time.Now()
	if _, err := graph.Load(g.World(), snap, g.VertexCodec(), g.EdgeCodec()); err != nil {
		return err
	}
	tr.add(layerGraph, "snapshot.load", -1, -1, start, time.Since(start))
	lm.leaf["graph.snapshot_load_ms"] = metric{msSince(start), "ms", 1}
	var size int64
	ents, err := os.ReadDir(snap)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if info, err := ent.Info(); err == nil {
			size += info.Size()
		}
	}
	lm.leaf["graph.snapshot_mb"] = metric{float64(size) / (1 << 20), "MB", 1}
	return nil
}

// pushFrame encodes a push-frame-shaped message: pivot p, target q with its
// edge timestamp, then k candidates of (id, order-key gap, timestamp) — the
// layout Survey.pushPhase writes for a BuildTemporal graph.
func pushFrame(e *serialize.Encoder, em serialize.Codec[uint64], seq uint64, k int) {
	e.PutUvarint(seq)
	e.PutUvarint(seq + 17)
	em.Encode(e, 1_600_000_000+seq)
	e.PutUvarint(uint64(k))
	for j := 0; j < k; j++ {
		e.PutUvarint(seq + uint64(j)*131)
		e.PutUvarint(uint64(j & 3))
		em.Encode(e, 1_600_000_000+seq+uint64(j))
	}
}

// serializeLeaf round-trips push frames through Encoder and Decoder.
func serializeLeaf(tr *tracer, lm *layerInputs) {
	const n, k = 200_000, 16
	em := serialize.Uint64Codec()
	enc := serialize.NewEncoder(1024)
	pushFrame(enc, em, 0, k) // grow the buffer before counting allocations
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		enc.Reset()
		pushFrame(enc, em, i, k)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	tr.add(layerSerialize, "encode", -1, -1, start, d)
	lm.leaf["serialize.encode_ns_per_msg"] = metric{float64(d.Nanoseconds()) / n, "ns", n}
	lm.leaf["serialize.encode_allocs_per_msg"] = metric{float64(after.Mallocs-before.Mallocs) / n, "count", n}

	frame := enc.Bytes()
	dec := serialize.NewDecoder(frame)
	var sink uint64 // summed into a trace count, so the loop cannot be optimised away
	start = time.Now()
	for i := 0; i < n; i++ {
		dec.Reset(frame)
		sink += dec.Uvarint() + dec.Uvarint() + em.Decode(dec)
		for j := dec.Uvarint(); j > 0; j-- {
			sink += dec.Uvarint() + dec.Uvarint() + em.Decode(dec)
		}
	}
	d = time.Since(start)
	tr.add(layerSerialize, "decode", -1, -1, start, d)
	tr.counts["serialize.decode_checksum"] = float64(sink % 1000)
	lm.leaf["serialize.decode_ns_per_msg"] = metric{float64(d.Nanoseconds()) / n, "ns", n}
}

// ygmLeaf exchanges, on a fresh 4-rank world per transport, as many
// messages as one traversal of this workload sends (capped), at its mean
// message size, all-to-all, and times empty barriers.
func ygmLeaf(tr *tracer, lm *layerInputs) error {
	msgs, size := 100_000, 48
	if n := len(lm.runs); n > 0 {
		var m, b int64
		for _, r := range lm.runs {
			m += r.DryRun.Messages + r.Push.Messages + r.Pull.Messages
			b += r.DryRun.Bytes + r.Push.Bytes + r.Pull.Bytes
		}
		if m > 0 {
			msgs, size = int(min(m/int64(n), 400_000)), int(b/m)
		}
	}
	msgs = max(msgs, 1000)
	payload := make([]byte, max(size, 1))
	for _, tp := range []struct {
		name string
		kind ygm.TransportKind
	}{{"chan", ygm.TransportChannel}, {"tcp", ygm.TransportTCP}} {
		w, err := ygm.NewWorld(4, ygm.Options{Transport: tp.kind})
		if err != nil {
			return err
		}
		h := w.RegisterHandler(func(_ *ygm.Rank, d *serialize.Decoder) { d.Raw(d.Remaining()) })
		// Whole exchanges of one traversal's size, repeated until enough
		// messages have moved for the rate to be steady.
		per := msgs / 4
		rounds := max(1, 400_000/(per*4))
		start := time.Now()
		w.Parallel(func(r *ygm.Rank) {
			for round := 0; round < rounds; round++ {
				for k := 0; k < per; k++ {
					r.AsyncBytes((r.ID()+1+k%3)%4, h, payload)
				}
				r.Barrier()
			}
		})
		d := time.Since(start)
		tr.add(layerYgm, tp.name+".alltoall", -1, -1, start, d)
		lm.leaf["ygm."+tp.name+"_msgs_per_s"] = metric{float64(rounds*per*4) / d.Seconds(), "1/s", rounds * per * 4}

		const barriers = 200
		us := make([]float64, 0, barriers)
		start = time.Now()
		w.Parallel(func(r *ygm.Rank) {
			for k := 0; k < barriers; k++ {
				t0 := time.Now()
				r.Barrier()
				if r.ID() == 0 {
					us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
				}
			}
		})
		tr.add(layerYgm, tp.name+".barriers", -1, -1, start, time.Since(start))
		lm.leaf["ygm."+tp.name+"_barrier_us"] = metric{median(us), "us", barriers}
		if err := w.Close(); err != nil {
			return err
		}
	}
	return nil
}

// trussPeelLeaf peels, with analysis.TrussFromSupports, the windows the
// script's truss queries ask, on edge sets and supports read from the
// maintained index's store.
func trussPeelLeaf(store *graph.TriSpanStore, script []*op, tr *tracer, lm *layerInputs) {
	const maxWindows = 40
	var ms []float64
	edgesPeeled, busy := 0, 0.0
	seen := make(map[[2]uint64]bool)
	for _, o := range script {
		if o.kind != opQuery || o.spec.From == nil || len(seen) == maxWindows {
			continue
		}
		win := [2]uint64{*o.spec.From, *o.spec.Until}
		if seen[win] {
			continue
		}
		seen[win] = true
		pairs := store.EdgesIn(win[0], win[1])
		edges := make([]analysis.Edge, len(pairs))
		counts := make(map[analysis.Edge]uint64, len(pairs))
		for j, p := range pairs {
			edges[j] = analysis.Edge{U: p.First, V: p.Second}
			if c := store.SupportIn(p.First, p.Second, win[0], win[1], false, 0); c > 0 {
				counts[edges[j]] = c
			}
		}
		start := time.Now()
		analysis.TrussFromSupports(edges, counts)
		d := time.Since(start)
		tr.add(layerTruss, "peel", -1, -1, start, d)
		ms = append(ms, float64(d.Nanoseconds())/1e6)
		edgesPeeled += len(edges)
		busy += d.Seconds()
	}
	lm.leaf["truss.peel_ms"] = metric{median(ms), "ms", len(ms)}
	if busy > 0 {
		lm.leaf["truss.peel_edges_per_s"] = metric{float64(edgesPeeled) / busy, "edges/s", edgesPeeled}
	}
}
