package engine

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/serialize"
	"tripoll/internal/wal"
	"tripoll/internal/ygm"
)

// durableMutation is one scripted Ingest or Advance, shared between the
// reference run and the durable run.
type durableMutation struct {
	batch  []graph.Edge[uint64] // nil = advance
	cutoff uint64
}

// durableScript builds a deterministic mutation sequence: ingest batches
// of fresh timestamped edges with two watermark advances mixed in.
func durableScript(n int, seed int64) []durableMutation {
	rng := rand.New(rand.NewSource(seed))
	muts := make([]durableMutation, 0, n)
	cutoff := uint64(0)
	for i := 0; i < n; i++ {
		if i > 0 && i%4 == 3 {
			cutoff += uint64(rng.Intn(1<<12) + 1)
			muts = append(muts, durableMutation{cutoff: cutoff})
			continue
		}
		var batch []graph.Edge[uint64]
		for _, te := range testEdges(60, 40, seed+int64(i)+100) {
			batch = append(batch, graph.Edge[uint64]{U: te.U, V: te.V, Meta: te.Time})
		}
		muts = append(muts, durableMutation{batch: batch})
	}
	return muts
}

func minMergeU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// applyMutation routes one scripted mutation through an engine.
func applyMutation(t *testing.T, e *Engine[serialize.Unit, uint64], name string, m durableMutation) {
	t.Helper()
	var err error
	if m.batch != nil {
		_, err = e.Ingest(context.Background(), name, m.batch)
	} else {
		_, err = e.Advance(context.Background(), name, m.cutoff)
	}
	if err != nil {
		t.Fatalf("apply mutation: %v", err)
	}
}

// queryJSON answers the given specs through the engine and returns their
// values as canonical JSON, one string per spec.
func queryJSON(t *testing.T, e *Engine[serialize.Unit, uint64], name string, specs []Spec) []string {
	t.Helper()
	out := make([]string, len(specs))
	for i, spec := range specs {
		spec.Graph = name
		j, err := e.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("Submit %v: %v", spec, err)
		}
		qr, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("Wait %v: %v", spec, err)
		}
		out[i] = asJSON(t, qr.Value)
	}
	return out
}

// openDurable stands up a world, a seed graph and an engine with one
// durable stream over dir, all from the same deterministic inputs — the
// restart primitive of the crash-recovery tests.
func openDurable(t *testing.T, nranks int, dir string, dopts DurableOptions) (*ygm.World, *Engine[serialize.Unit, uint64], uint64) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	seed := buildTemporal(w, testEdges(60, 300, 42))
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	_, epoch, err := e.OpenDurableStream("s", seed, core.StreamOptions[uint64]{MergeEdgeMeta: minMergeU64}, core.TemporalPlan(), dopts)
	if err != nil {
		e.Close()
		w.Close()
		t.Fatalf("OpenDurableStream: %v", err)
	}
	return w, e, epoch
}

// lastWALSegment returns the path of the newest segment in dir's WAL.
func lastWALSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "wal", "wal-*.tpw"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no WAL segments in %s (err %v)", dir, err)
	}
	sort.Strings(names)
	return names[len(names)-1]
}

// TestDurableCrashRecoveryProperty is the kill-at-a-boundary /
// kill-mid-record property test: a reference engine applies the whole
// mutation script uninterrupted while the durable engine is crashed twice
// along the way — once cleanly at a record boundary, once with a torn
// partial record appended to the WAL tail (a crash mid-append of the next
// record). After every mutation, on both sides of every recovery, every
// fused analysis must be byte-identical to the reference at that epoch.
func TestDurableCrashRecoveryProperty(t *testing.T) {
	const nranks = 2
	specs := []Spec{
		{Analysis: "count"},
		{Analysis: "closure"},
		{Analysis: "localcounts", Args: json.RawMessage(`{"top":8}`)},
	}
	muts := durableScript(10, 7)
	rng := rand.New(rand.NewSource(99))

	// Reference: same seed, same script, no durability, no interruptions.
	refW := ygm.MustWorld(nranks, ygm.Options{})
	defer refW.Close()
	refSeed := buildTemporal(refW, testEdges(60, 300, 42))
	refStream, err := core.OpenStream(refSeed, core.StreamOptions[uint64]{MergeEdgeMeta: minMergeU64}, core.TemporalPlan())
	if err != nil {
		t.Fatalf("reference OpenStream: %v", err)
	}
	refEng := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	defer refEng.Close()
	if err := refEng.RegisterStream("s", refStream); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	want := make([][]string, len(muts))
	for i, m := range muts {
		applyMutation(t, refEng, "s", m)
		want[i] = queryJSON(t, refEng, "s", specs)
	}

	dir := t.TempDir()
	// CheckpointEvery 3 forces several snapshot+truncate cycles inside a
	// 10-mutation script, so recovery exercises snapshot loading too.
	dopts := DurableOptions{Dir: dir, CheckpointEvery: 3}
	crashAfter := map[int]bool{2: true, 6: true} // mutation indices to crash behind
	tornTail := map[int]bool{6: true}            // crash #2 tears a partial record

	w, e, epoch := openDurable(t, nranks, dir, dopts)
	if epoch != 0 {
		t.Fatalf("fresh durable stream at epoch %d, want 0", epoch)
	}
	for i, m := range muts {
		applyMutation(t, e, "s", m)
		if ep, _ := e.Epoch("s"); ep != uint64(i+1) {
			t.Fatalf("after mutation %d: epoch %d, want %d", i, ep, i+1)
		}
		if got := queryJSON(t, e, "s", specs); !equalStrings(got, want[i]) {
			t.Fatalf("pre-crash epoch %d: durable != reference\n got %v\nwant %v", i+1, got, want[i])
		}
		if !crashAfter[i] {
			continue
		}
		// "Crash": drop the engine and world. Every acknowledged mutation
		// is fsynced (SyncAlways default), so a clean Close of the file
		// handles loses nothing a real kill would have kept.
		e.Close()
		w.Close()
		if tornTail[i] {
			// A crash mid-append of the next record: a frame header
			// claiming more payload than follows.
			f, err := os.OpenFile(lastWALSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatalf("open tail: %v", err)
			}
			junk := make([]byte, 1+rng.Intn(12))
			junk[0] = 0xFF
			if _, err := f.Write(junk); err != nil {
				t.Fatalf("tear tail: %v", err)
			}
			f.Close()
		}
		w, e, epoch = openDurable(t, nranks, dir, dopts)
		if epoch != uint64(i+1) {
			t.Fatalf("recovered at epoch %d, want %d", epoch, i+1)
		}
		if got := queryJSON(t, e, "s", specs); !equalStrings(got, want[i]) {
			t.Fatalf("post-recovery epoch %d: durable != reference\n got %v\nwant %v", i+1, got, want[i])
		}
	}
	e.Close()
	w.Close()

	// One final restart at the script's end: the fully-replayed state must
	// still match, and the WAL must have been checkpoint-truncated at
	// least once (the script crossed CheckpointEvery several times).
	w, e, epoch = openDurable(t, nranks, dir, dopts)
	defer w.Close()
	defer e.Close()
	if epoch != uint64(len(muts)) {
		t.Fatalf("final recovery at epoch %d, want %d", epoch, len(muts))
	}
	if got := queryJSON(t, e, "s", specs); !equalStrings(got, want[len(muts)-1]) {
		t.Fatalf("final recovery: durable != reference\n got %v\nwant %v", got, want[len(muts)-1])
	}
	st, ok := e.DurableStatus("s")
	if !ok {
		t.Fatalf("DurableStatus: not durable")
	}
	// Checkpoints truncated the log in an earlier process life, so this
	// fresh Open must have replayed far fewer records than the script ran
	// while still resuming at the script's final sequence.
	if st.WAL.LastSeq != uint64(len(muts)) {
		t.Errorf("WAL LastSeq = %d, want %d", st.WAL.LastSeq, len(muts))
	}
	if st.WAL.Records >= uint64(len(muts)) {
		t.Errorf("WAL holds %d records after %d mutations: checkpoint truncation never ran", st.WAL.Records, len(muts))
	}
	if st.CheckpointError != "" {
		t.Errorf("checkpoint error: %s", st.CheckpointError)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDurableAdvancePreflight: a backwards Advance on a durable stream
// must fail without leaving a record in the WAL — otherwise replay would
// deterministically fail on it.
func TestDurableAdvancePreflight(t *testing.T) {
	dir := t.TempDir()
	w, e, _ := openDurable(t, 2, dir, DurableOptions{Dir: dir})
	defer w.Close()
	defer e.Close()

	ctx := context.Background()
	if _, err := e.Advance(ctx, "s", 1000); err != nil {
		t.Fatalf("Advance(1000): %v", err)
	}
	if _, err := e.Advance(ctx, "s", 10); err == nil {
		t.Fatalf("backwards Advance succeeded")
	}
	st, _ := e.DurableStatus("s")
	if st.WAL.LastSeq != 1 {
		t.Errorf("WAL LastSeq = %d after rejected Advance, want 1 (no record logged)", st.WAL.LastSeq)
	}
}

// TestDurableCorruptManifestIsTypedError: an unreadable manifest must be
// surfaced as corruption, never treated as a fresh start (that would
// silently drop the whole checkpoint).
func TestDurableCorruptManifestIsTypedError(t *testing.T) {
	dir := t.TempDir()
	w, e, _ := openDurable(t, 2, dir, DurableOptions{Dir: dir, CheckpointEvery: 1})
	applyMutation(t, e, "s", durableScript(1, 3)[0]) // checkpoint fires
	e.Close()
	w.Close()

	man := filepath.Join(dir, "MANIFEST")
	data, err := os.ReadFile(man)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(man, data, 0o644); err != nil {
		t.Fatalf("rewrite manifest: %v", err)
	}

	w2 := ygm.MustWorld(2, ygm.Options{})
	defer w2.Close()
	seed := buildTemporal(w2, testEdges(60, 300, 42))
	e2 := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	defer e2.Close()
	_, _, err = e2.OpenDurableStream("s", seed, core.StreamOptions[uint64]{MergeEdgeMeta: minMergeU64}, core.TemporalPlan(), DurableOptions{Dir: dir})
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("corrupt manifest: err = %v, want ErrCorrupt", err)
	}
}

// TestAdmissionQueueSheds exercises MaxPending without the scheduler: an
// engine whose loop never starts accumulates pending jobs, so admission
// decisions are deterministic.
func TestAdmissionQueueSheds(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(40, 200, 6))

	e := &Engine[serialize.Unit, uint64]{
		reg:      TemporalRegistry(),
		opts:     EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }, MaxPending: 2},
		graphs:   map[string]*graphEntry[serialize.Unit, uint64]{},
		cache:    newResultCache(0),
		loopDone: make(chan struct{}),
	}
	e.cond = sync.NewCond(&e.mu)
	e.graphs["g"] = &graphEntry[serialize.Unit, uint64]{name: "g", g: g}

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(ctx, Spec{Analysis: "count"}); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	if _, err := e.Submit(ctx, Spec{Analysis: "count"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Submit over MaxPending: err = %v, want ErrOverloaded", err)
	}
	if d := e.QueueDepth(); d != 2 {
		t.Errorf("QueueDepth = %d, want 2", d)
	}
	// SubmitAll is all-or-nothing: a batch that would overflow sheds
	// entirely, leaving the queue untouched.
	e.mu.Lock()
	e.pending = e.pending[:1]
	e.mu.Unlock()
	if _, err := e.SubmitAll(ctx, Spec{Analysis: "count"}, Spec{Analysis: "closure"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("SubmitAll overflow: err = %v, want ErrOverloaded", err)
	}
	if d := e.QueueDepth(); d != 1 {
		t.Errorf("QueueDepth after shed batch = %d, want 1", d)
	}
	if st := e.Stats(); st.Shed != 3 {
		t.Errorf("Stats.Shed = %d, want 3", st.Shed)
	}
}
