// Durable streams: the engine side of the write-ahead log (internal/wal).
//
// OpenDurableStream wraps a stream-backed graph in a durability directory:
//
//	<dir>/wal/wal-*.tpw   the write-ahead log segments
//	<dir>/MANIFEST        checkpoint pointer (CRC-framed, replaced atomically)
//	<dir>/snap-<seq hex>  TPDG2 graph snapshot of the checkpointed state
//
// Every Ingest/Advance through the engine is validated, appended to the
// log (fsynced under SyncAlways), and only then applied; the mutation's
// WAL sequence number becomes the graph's epoch, so epochs are stable
// across restarts. Every CheckpointEvery mutations the scheduler
// materializes the stream, saves a TPDG2 snapshot, atomically repoints the
// manifest and truncates the log — recovery cost and log size stay
// bounded. Recovery is OpenDurableStream again: load the manifest's
// snapshot (or the seed graph), re-open the stream over it, restore the
// expiry watermark, and re-apply every logged record past the checkpoint.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/wal"
)

// DurableOptions configures OpenDurableStream.
type DurableOptions struct {
	// Dir is the durability directory (created if needed). One directory
	// belongs to one stream; sharing it is undefined.
	Dir string
	// Sync is the WAL fsync policy; the zero value is wal.SyncAlways.
	Sync wal.SyncPolicy
	// SegmentBytes is the WAL segment rotation size; 0 = wal's default.
	SegmentBytes int64
	// CheckpointEvery snapshots the stream and truncates the log every
	// this many mutations; 0 means 64. Checkpoint failures are recorded in
	// DurableStatus and retried after the next mutation — the log keeps
	// everything until one succeeds, so durability never regresses. In a
	// multi-process world (EngineOptions.Mutator) checkpointing is
	// disabled: TPDG2 snapshots capture only the driver's shards.
	CheckpointEvery uint64
	// Policy names the stream configuration for the worker processes of a
	// multi-process world (Mutator.OpenStream); the worker binary maps it
	// back to the same StreamOptions/plan/analyses this open uses.
	// Ignored without a Mutator.
	Policy string
}

const defaultCheckpointEvery = 64

// ErrSnapshotNotPortable reports a durability directory whose checkpoint
// snapshot was written by a single-process run and cannot seed a
// multi-process world.
var ErrSnapshotNotPortable = errors.New("engine: checkpoint snapshot is not portable to a multi-process world")

// DurableStatus reports a durable stream's WAL and checkpoint state.
type DurableStatus struct {
	WAL             wal.Stats `json:"wal"`
	CheckpointEvery uint64    `json:"checkpoint_every"`
	SinceCheckpoint uint64    `json:"since_checkpoint"`
	// ReplayRebroadcasts counts WAL records that recovery re-broadcast to
	// the worker processes of a multi-process world (always 0 in a
	// single-process engine).
	ReplayRebroadcasts uint64 `json:"replay_rebroadcasts"`
	// CheckpointError is the most recent checkpoint failure, empty once a
	// checkpoint has succeeded again.
	CheckpointError string `json:"checkpoint_error,omitempty"`
}

// durable is the per-entry durability state. The scheduler goroutine is
// the only writer; mu exists so DurableStatus can read concurrently.
type durable[VM, EM any] struct {
	dir  string
	opts DurableOptions

	mu           sync.Mutex
	log          *wal.Log[EM]
	since        uint64 // mutations since the last successful checkpoint
	rebroadcasts uint64 // WAL records re-broadcast to workers at recovery
	lastErr      error  // last checkpoint failure, nil after a success
}

func (d *durable[VM, EM]) append(f func(l *wal.Log[EM]) (uint64, error)) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return f(d.log)
}

func (d *durable[VM, EM]) status() DurableStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DurableStatus{
		WAL:                d.log.Stats(),
		CheckpointEvery:    d.opts.CheckpointEvery,
		SinceCheckpoint:    d.since,
		ReplayRebroadcasts: d.rebroadcasts,
	}
	if d.lastErr != nil {
		st.CheckpointError = d.lastErr.Error()
	}
	return st
}

func (d *durable[VM, EM]) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Close()
}

// OpenDurableStream opens (or recovers) a WAL-backed stream and registers
// it under name. On a fresh directory it behaves like core.OpenStream +
// RegisterStream with durability attached; on a directory left by a crash
// it reloads the last checkpoint snapshot, replays the log's surviving
// records, and registers the stream at the epoch the crashed process had
// acknowledged. The seed graph supplies the world, codecs and (on first
// open) the initial edge set; it must be the same graph on every open of
// one directory, or replay diverges. Returns the stream and its epoch.
// Like OpenStream, collective: call outside parallel regions.
func (e *Engine[VM, EM]) OpenDurableStream(name string, seed *graph.DODGr[VM, EM], sopts core.StreamOptions[EM], plan *core.Plan[EM], dopts DurableOptions, analyses ...core.Attached[VM, EM]) (*core.Stream[VM, EM], uint64, error) {
	return e.OpenDurableStreamSinks(name, seed, sopts, plan, dopts, nil, analyses...)
}

// OpenDurableStreamSinks is OpenDurableStream with maintained sinks
// (core.StreamSink) attached at open. Because sinks attach before the seed
// traversal and before WAL replay, recovery re-seeds an index from the
// checkpoint snapshot and then replays the surviving mutations through it
// — the recovered index is identical to one maintained through the
// original run.
func (e *Engine[VM, EM]) OpenDurableStreamSinks(name string, seed *graph.DODGr[VM, EM], sopts core.StreamOptions[EM], plan *core.Plan[EM], dopts DurableOptions, sinks []core.StreamSink[VM, EM], analyses ...core.Attached[VM, EM]) (*core.Stream[VM, EM], uint64, error) {
	if seed == nil {
		return nil, 0, fmt.Errorf("engine: OpenDurableStream(%q): nil seed graph", name)
	}
	if dopts.Dir == "" {
		return nil, 0, fmt.Errorf("engine: OpenDurableStream(%q): empty Dir", name)
	}
	if dopts.CheckpointEvery == 0 {
		dopts.CheckpointEvery = defaultCheckpointEvery
	}
	if err := os.MkdirAll(dopts.Dir, 0o755); err != nil {
		return nil, 0, err
	}
	man, err := readManifest(dopts.Dir)
	if err != nil {
		return nil, 0, err
	}
	if e.opts.Mutator != nil && man.Snapshot != "" {
		// A TPDG2 checkpoint snapshot captures only the shards of the
		// process that wrote it, so a multi-process world cannot reload it
		// (and never writes one — checkpointing is disabled under a
		// Mutator). Refusing beats replaying a partial graph.
		return nil, 0, fmt.Errorf("engine: OpenDurableStream(%q): %s holds checkpoint snapshot %s from a single-process run; recover it single-process first, then serve the fresh directory multi-process: %w",
			name, dopts.Dir, man.Snapshot, ErrSnapshotNotPortable)
	}
	base := seed
	if man.Snapshot != "" {
		g, err := graph.Load(seed.World(), filepath.Join(dopts.Dir, man.Snapshot), seed.VertexCodec(), seed.EdgeCodec())
		if err != nil {
			return nil, 0, fmt.Errorf("engine: load checkpoint snapshot %s: %w", man.Snapshot, err)
		}
		base = g
	}

	walDir := filepath.Join(dopts.Dir, "wal")
	wopts := wal.Options{Sync: dopts.Sync, SegmentBytes: dopts.SegmentBytes, BaseSeq: man.Seq + 1}
	log, recs, err := wal.Open(walDir, seed.EdgeCodec(), wopts)
	if err != nil {
		return nil, 0, err
	}
	if log.LastSeq() < man.Seq {
		// Under SyncNever a crash can lose log records the checkpoint had
		// already captured. Every surviving record is ≤ man.Seq and thus in
		// the snapshot, so the log is pure redundancy — restart it empty at
		// the checkpoint sequence rather than letting new appends reuse
		// sequence numbers the next recovery would skip.
		log.Close()
		if err := os.RemoveAll(walDir); err != nil {
			return nil, 0, err
		}
		if log, recs, err = wal.Open(walDir, seed.EdgeCodec(), wopts); err != nil {
			return nil, 0, err
		}
	}

	if e.opts.Mutator != nil {
		// The workers open their side of the stream before the driver's
		// core.OpenStream below enters the construction collective.
		if err := e.opts.Mutator.OpenStream(name, dopts.Policy); err != nil {
			log.Close()
			return nil, 0, fmt.Errorf("engine: stream-open broadcast for %q: %w", name, err)
		}
	}
	s, err := core.OpenStreamSinks(base, sopts, plan, sinks, analyses...)
	if err != nil {
		log.Close()
		return nil, 0, err
	}
	if man.HasCutoff {
		// Reinstate the expiry watermark without an expiry pass: live
		// edges below it are late arrivals the snapshot legitimately
		// holds (see Stream.RestoreCutoff). Never taken in a multi-process
		// world: a cutoff is only manifested by a checkpoint, and those
		// directories are rejected above.
		s.RestoreCutoff(man.Cutoff)
	}
	dur := &durable[VM, EM]{dir: dopts.Dir, opts: dopts, log: log}
	for _, rec := range recs {
		if rec.Seq <= man.Seq {
			continue // captured by the checkpoint snapshot
		}
		if e.opts.Mutator != nil {
			// Replay is a re-broadcast: the fresh workers never saw the
			// lost run's mutations, so every surviving record ships and
			// two-phase-commits exactly as its original apply did.
			switch rec.Kind {
			case wal.KindIngest:
				err = e.opts.Mutator.Ingest(name, rec.Seq, wal.EncodeBatch(seed.EdgeCodec(), rec.Batch))
			case wal.KindAdvance:
				err = e.opts.Mutator.Advance(name, rec.Seq, rec.Cutoff)
			}
			if err != nil {
				log.Close()
				return nil, 0, fmt.Errorf("engine: re-broadcast WAL record %d: %w", rec.Seq, err)
			}
			dur.rebroadcasts++
		}
		switch rec.Kind {
		case wal.KindIngest:
			_, err = s.Ingest(rec.Batch)
		case wal.KindAdvance:
			_, err = s.Advance(rec.Cutoff)
		default:
			err = fmt.Errorf("unknown record kind %d", rec.Kind)
		}
		if err != nil {
			log.Close()
			return nil, 0, fmt.Errorf("engine: replay WAL record %d: %w", rec.Seq, err)
		}
		if e.opts.Mutator != nil {
			if err := e.opts.Mutator.Commit(name, rec.Seq); err != nil {
				log.Close()
				return nil, 0, fmt.Errorf("engine: re-broadcast commit for record %d: %w", rec.Seq, err)
			}
		}
	}

	epoch := log.LastSeq()
	entry := &graphEntry[VM, EM]{
		name:   name,
		stream: s,
		stale:  true,
		epoch:  epoch,
		codec:  seed.EdgeCodec(),
		dur:    dur,
	}
	if err := e.register(entry); err != nil {
		log.Close()
		return nil, 0, err
	}
	return s, epoch, nil
}

// DurableStatus reports the WAL and checkpoint state of a durable stream;
// ok is false for unknown or non-durable graphs.
func (e *Engine[VM, EM]) DurableStatus(name string) (DurableStatus, bool) {
	e.mu.Lock()
	entry, ok := e.graphs[name]
	e.mu.Unlock()
	if !ok || entry.dur == nil {
		return DurableStatus{}, false
	}
	return entry.dur.status(), true
}

// maybeCheckpoint runs on the scheduler goroutine after a durable
// mutation: every CheckpointEvery mutations it snapshots the stream,
// repoints the manifest and truncates the log. A failure is recorded and
// the counter left due, so the next mutation retries; the WAL still holds
// everything since the last successful checkpoint, so a failed one costs
// recovery time, not durability.
func (e *Engine[VM, EM]) maybeCheckpoint(entry *graphEntry[VM, EM]) {
	if e.opts.Mutator != nil {
		// TPDG2 snapshots hold only the driver's shards; a multi-process
		// world keeps the whole log instead (recovery re-broadcasts it).
		return
	}
	d := entry.dur
	d.mu.Lock()
	d.since++
	due := d.since >= d.opts.CheckpointEvery
	d.mu.Unlock()
	if !due {
		return
	}
	if err := e.checkpoint(entry); err != nil {
		d.mu.Lock()
		d.lastErr = err
		d.mu.Unlock()
		return
	}
	d.mu.Lock()
	d.since = 0
	d.lastErr = nil
	d.mu.Unlock()
}

// checkpoint snapshots entry's stream at its current epoch and truncates
// the WAL behind it. Collective (Materialize and Save run traversals);
// scheduler goroutine only.
func (e *Engine[VM, EM]) checkpoint(entry *graphEntry[VM, EM]) error {
	d := entry.dur
	e.mu.Lock()
	epoch := entry.epoch
	e.mu.Unlock()

	g := entry.stream.Materialize()
	// The checkpoint snapshot doubles as the query snapshot: the stream
	// has not mutated since the epoch bump that triggered this call.
	e.mu.Lock()
	entry.g = g
	entry.stale = false
	e.mu.Unlock()

	snapName := fmt.Sprintf("snap-%016x", epoch)
	snapDir := filepath.Join(d.dir, snapName)
	if err := os.RemoveAll(snapDir); err != nil {
		return err
	}
	if err := g.Save(snapDir); err != nil {
		return err
	}
	cutoff, hasCutoff := entry.stream.Cutoff()
	if err := writeManifest(d.dir, manifest{Seq: epoch, HasCutoff: hasCutoff, Cutoff: cutoff, Snapshot: snapName}); err != nil {
		return err
	}
	// Old snapshots (and orphans from checkpoints that crashed before the
	// manifest repoint) are garbage once the manifest moved.
	ents, err := os.ReadDir(d.dir)
	if err == nil {
		for _, ent := range ents {
			if ent.IsDir() && strings.HasPrefix(ent.Name(), "snap-") && ent.Name() != snapName {
				_ = os.RemoveAll(filepath.Join(d.dir, ent.Name()))
			}
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.Truncate(epoch)
}

// --- Manifest ------------------------------------------------------------

// manifest is the checkpoint pointer: the newest WAL sequence whose
// effects the Snapshot directory captures, plus the stream's expiry
// watermark at that point. Replaced atomically (write temp + rename) so a
// crash mid-checkpoint leaves the previous manifest intact.
type manifest struct {
	Seq       uint64
	HasCutoff bool
	Cutoff    uint64
	Snapshot  string // snapshot directory name, "" = none (fresh log)
}

const (
	manifestName  = "MANIFEST"
	manifestMagic = "TPWM1"
)

var manCRC = crc32.MakeTable(crc32.Castagnoli)

func writeManifest(dir string, m manifest) error {
	var enc serialize.Encoder
	enc.PutUvarint(m.Seq)
	enc.PutBool(m.HasCutoff)
	enc.PutUvarint(m.Cutoff)
	enc.PutString(m.Snapshot)
	payload := enc.Bytes()

	buf := make([]byte, 0, len(manifestMagic)+8+len(payload))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, manCRC))
	buf = append(buf, payload...)

	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	if df, err := os.Open(dir); err == nil {
		_ = df.Sync()
		df.Close()
	}
	return nil
}

// readManifest returns the zero manifest when none exists yet. A manifest
// that exists but cannot be parsed is damage — recovery cannot know which
// snapshot is current — and is a typed error, never a silent fresh start.
func readManifest(dir string) (manifest, error) {
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, nil
	}
	if err != nil {
		return manifest{}, err
	}
	corrupt := func(reason string) error {
		return fmt.Errorf("engine: corrupt checkpoint manifest %s: %s: %w", path, reason, wal.ErrCorrupt)
	}
	hdr := len(manifestMagic) + 8
	if len(data) < hdr || string(data[:len(manifestMagic)]) != manifestMagic {
		return manifest{}, corrupt("bad header")
	}
	n := int(binary.LittleEndian.Uint32(data[len(manifestMagic):]))
	sum := binary.LittleEndian.Uint32(data[len(manifestMagic)+4:])
	if n < 0 || hdr+n != len(data) {
		return manifest{}, corrupt("bad payload length")
	}
	payload := data[hdr:]
	if crc32.Checksum(payload, manCRC) != sum {
		return manifest{}, corrupt("CRC mismatch")
	}
	d := serialize.NewDecoder(payload)
	var m manifest
	m.Seq = d.Uvarint()
	m.HasCutoff = d.Bool()
	m.Cutoff = d.Uvarint()
	m.Snapshot = d.String()
	if d.Err() != nil {
		return manifest{}, corrupt(d.Err().Error())
	}
	if d.Remaining() != 0 {
		return manifest{}, corrupt("trailing bytes")
	}
	if m.Snapshot != "" && (strings.ContainsAny(m.Snapshot, "/\\") || !strings.HasPrefix(m.Snapshot, "snap-")) {
		return manifest{}, corrupt(fmt.Sprintf("implausible snapshot name %q", m.Snapshot))
	}
	return m, nil
}
