package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"

	"tripoll/internal/core"
	"tripoll/internal/graph"
	"tripoll/internal/truss"
	"tripoll/internal/ygm"
)

// stubIndex answers maxtruss from nothing, so index-served results (which
// carry no encode-once cell) go through the same reply check.
type stubIndex struct{}

func (stubIndex) IndexEpoch() uint64 { return 1 }
func (stubIndex) ServeQuery(analysis string, _ json.RawMessage, _, _, _ *uint64) (any, bool, error) {
	if analysis != "maxtruss" {
		return nil, false, nil
	}
	return truss.MaxResult{Max: 4, Sizes: []truss.TrussSize{{K: 3, Edges: 9}, {K: 4, Edges: 6}}}, true, nil
}

// checkReply holds one result to the reply contract: AppendJSON's bytes
// are exactly compact json.Marshal of the struct with Value =
// JSONValue(Value), and asking twice returns the same bytes. It reports
// with Errorf only: the coalesced case calls it off the test's goroutine.
func checkReply(t *testing.T, what string, res QueryResult) {
	t.Helper()
	got, _, err := res.AppendJSON(nil)
	if err != nil {
		t.Errorf("%s: AppendJSON: %v", what, err)
		return
	}
	again, fresh, err := res.AppendJSON([]byte("x"))
	if err != nil || !bytes.Equal(again[1:], got) {
		t.Errorf("%s: second AppendJSON differs (err %v):\n%s\n%s", what, err, again, got)
	}
	if fresh != (res.enc == nil) {
		t.Errorf("%s: second AppendJSON fresh = %v with cell %v", what, fresh, res.enc != nil)
	}
	ref := res
	ref.Value = JSONValue(res.Value)
	want, err := json.Marshal(ref)
	if err != nil {
		t.Errorf("%s: Marshal: %v", what, err)
		return
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: reply bytes differ from json.Marshal:\n got %s\nwant %s", what, got, want)
	}
}

// TestReplyBytesEqualMarshal is the property that lets tripolld serve
// every result through AppendJSON: for every stock analysis — uncached,
// cached, coalesced and deduped, index-served — the hand-built reply is
// what encoding/json would have produced.
func TestReplyBytesEqualMarshal(t *testing.T) {
	w := ygm.MustWorld(3, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(120, 1500, 11))
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	defer e.Close()
	// A name encoding/json has to escape, on the envelope's hand-written path.
	const name = `we"b <1>&é`
	if err := e.Register(name, g); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx := context.Background()

	var specs []Spec
	for _, a := range e.Analyses() {
		spec := Spec{Graph: name, Analysis: a, Delta: Uint64(30000)}
		if a == "sweep" {
			spec.Args = json.RawMessage(`{"deltas":[100,10000]}`)
		}
		specs = append(specs, spec)
	}
	run := func(spec Spec) QueryResult {
		t.Helper()
		j, err := e.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("Submit %s: %v", spec.Analysis, err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait %s: %v", spec.Analysis, err)
		}
		return res
	}
	for _, spec := range specs {
		first := run(spec)
		if first.Cached || first.enc == nil {
			t.Fatalf("%s: first answer cached=%v cell=%v", spec.Analysis, first.Cached, first.enc != nil)
		}
		checkReply(t, spec.Analysis+" uncached", first)
		hit := run(spec)
		if !hit.Cached || hit.enc != first.enc {
			t.Fatalf("%s: repeat cached=%v, shares the cell: %v", spec.Analysis, hit.Cached, hit.enc == first.enc)
		}
		checkReply(t, spec.Analysis+" cached", hit)
	}

	// One batch, every analysis twice: coalesced leaders and deduped twins,
	// their shared cells filled by whichever of the concurrent askers wins.
	var batch []Spec
	for _, spec := range specs {
		spec.NoCache = true
		batch = append(batch, spec, spec)
	}
	var wg sync.WaitGroup
	jobs, err := e.SubmitAll(ctx, batch...)
	if err != nil {
		t.Fatalf("SubmitAll: %v", err)
	}
	for i, j := range jobs {
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait %s: %v", batch[i].Analysis, err)
		}
		if res.CoalescedWith != len(batch) {
			t.Errorf("%s: coalesced_with = %d, want %d", batch[i].Analysis, res.CoalescedWith, len(batch))
		}
		wg.Add(1)
		go func(what string) {
			defer wg.Done()
			checkReply(t, what, res)
		}(batch[i].Analysis + " coalesced")
	}
	wg.Wait()

	if err := e.AttachIndex(name, stubIndex{}); err != nil {
		t.Fatalf("AttachIndex: %v", err)
	}
	served := run(Spec{Graph: name, Analysis: "maxtruss"})
	if !served.IndexServed || served.enc != nil {
		t.Fatalf("maxtruss: index_served=%v cell=%v", served.IndexServed, served.enc != nil)
	}
	checkReply(t, "maxtruss index-served", served)
}

// TestCacheByteBudget pins the result cache's policy: bytes ≤ budget after
// every put and every charge, least-recently-asked goes first, a mutation's
// purge leaves exactly the live epochs' sum, and an answer bigger than the
// whole budget is served but not kept.
func TestCacheByteBudget(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(60, 500, 3))
	s, err := core.OpenStream(buildTemporal(w, testEdges(60, 500, 4)), core.StreamOptions[uint64]{MergeEdgeMeta: minMergeU64}, core.TemporalPlan())
	if err != nil {
		t.Fatalf("OpenStream: %v", err)
	}
	const budget = 8 << 10
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }, CacheBytes: budget})
	defer e.Close()
	if err := e.Register("g", g); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := e.RegisterStream("s", s); err != nil {
		t.Fatalf("RegisterStream: %v", err)
	}
	ctx := context.Background()
	// ask answers count under δ on graph and encodes the reply, as a served
	// request does, so the entry is charged its encoded length too.
	ask := func(graph string, delta uint64) QueryResult {
		t.Helper()
		j, err := e.Submit(ctx, Spec{Graph: graph, Analysis: "count", Delta: Uint64(delta)})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		if _, _, err := res.AppendJSON(nil); err != nil {
			t.Fatalf("AppendJSON: %v", err)
		}
		if st := e.Stats(); st.CacheBytes > budget {
			t.Fatalf("cache_bytes = %d over the budget %d", st.CacheBytes, budget)
		}
		return res
	}

	// Fill until the budget evicts, re-asking δ=1 before every new question:
	// it is never the coldest, so it survives; δ=2 is, so it goes first.
	ask("g", 1)
	delta := uint64(2)
	for ; e.Stats().CacheEvictions == 0; delta++ {
		if delta > 64 {
			t.Fatalf("no eviction after %d answers under a %d-byte budget", delta, budget)
		}
		ask("g", delta)
		if !ask("g", 1).Cached {
			t.Fatalf("δ=1 evicted after δ=%d although it was just asked", delta)
		}
	}
	if delta < 5 {
		t.Fatalf("budget too small for the test: evicted after %d answers", delta)
	}
	// delta-1 questions were asked; the evicted ones are the coldest.
	st := e.Stats()
	gone := st.CacheEvictions
	if st.CacheEntries != int(delta-1-gone) {
		t.Errorf("after %d evictions of %d answers: %d entries", gone, delta-1, st.CacheEntries)
	}
	if !ask("g", 2+gone).Cached {
		t.Errorf("δ=%d gone: the eviction did not take the coldest entries", 2+gone)
	}
	if ask("g", 2).Cached {
		t.Errorf("δ=2 still cached: the eviction did not take the coldest entry")
	}

	// The stream's answers share the budget; a mutation purges exactly them.
	ask("s", 1)
	ask("s", 2)
	resident := func(graph string) (n int64) {
		e.mu.Lock()
		defer e.mu.Unlock()
		for k, el := range e.cache.entries {
			if k.graph == graph {
				n += el.Value.(*cacheEntry).qr.ResidentBytes()
			}
		}
		return n
	}
	if st := e.Stats(); resident("s") == 0 || st.CacheBytes != resident("g")+resident("s") {
		t.Errorf("cache_bytes = %d, want the entries' sum %d + %d", st.CacheBytes, resident("g"), resident("s"))
	}
	if _, err := e.Ingest(ctx, "s", []graph.Edge[uint64]{{U: 1, V: 2, Meta: 7}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if st := e.Stats(); resident("s") != 0 || st.CacheBytes != resident("g") {
		t.Errorf("cache_bytes after the purge = %d, want the live epoch's sum %d (dead epoch: %d)", st.CacheBytes, resident("g"), resident("s"))
	}

	// An answer larger than the whole budget: served, twice, never kept.
	small := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }, CacheBytes: 1 << 10})
	defer small.Close()
	if err := small.Register("g", g); err != nil {
		t.Fatalf("Register: %v", err)
	}
	for i := 0; i < 2; i++ {
		j, err := small.Submit(ctx, Spec{Analysis: "edgecounts"})
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		res, err := j.Wait(ctx)
		if err != nil || res.Cached || len(res.Value.(map[core.EdgeKey]uint64)) == 0 {
			t.Fatalf("oversized answer %d: err=%v cached=%v", i, err, res.Cached)
		}
		if st := small.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 {
			t.Errorf("oversized answer kept: %d entries, %d bytes", st.CacheEntries, st.CacheBytes)
		}
	}
	// A count fits until its encoded form is charged, then it alone is over.
	j, _ := small.Submit(ctx, Spec{Analysis: "count"})
	res, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st := small.Stats(); st.CacheEntries != 1 {
		t.Fatalf("count not cached before it was encoded: %d entries", st.CacheEntries)
	}
	if _, _, err := res.AppendJSON(nil); err != nil {
		t.Fatalf("AppendJSON: %v", err)
	}
	if st := small.Stats(); st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Errorf("entry over the budget once encoded was kept: %d entries, %d bytes", st.CacheEntries, st.CacheBytes)
	}
}

// TestInlineHitCountsLikeScheduler: a repeated question is answered by
// Submit itself — the job is done when Submit returns — and is counted
// exactly as a scheduler-served hit is; NoCache, an indexed graph and a
// closed engine keep to the queue.
func TestInlineHitCountsLikeScheduler(t *testing.T) {
	w := ygm.MustWorld(2, ygm.Options{})
	defer w.Close()
	g := buildTemporal(w, testEdges(60, 500, 3))
	e := New(TemporalRegistry(), EngineOptions[uint64]{Timestamps: func(ts uint64) uint64 { return ts }})
	for _, name := range []string{"g", "indexed"} {
		if err := e.Register(name, g); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	if err := e.AttachIndex("indexed", stubIndex{}); err != nil {
		t.Fatalf("AttachIndex: %v", err)
	}
	ctx := context.Background()
	doneAtSubmit := func(spec Spec) (QueryResult, bool) {
		t.Helper()
		j, err := e.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		inline := false
		select {
		case <-j.Done():
			inline = true
		default:
		}
		res, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("Wait: %v", err)
		}
		return res, inline
	}
	spec := Spec{Graph: "g", Analysis: "count", Delta: Uint64(5000)}
	first, _ := doneAtSubmit(spec)
	before := e.Stats()
	hit, inline := doneAtSubmit(spec)
	if !inline || !hit.Cached || hit.Value != first.Value || hit.enc != first.enc {
		t.Errorf("repeat: done at Submit=%v cached=%v value %v (first %v)", inline, hit.Cached, hit.Value, first.Value)
	}
	after := e.Stats()
	if after.Submitted != before.Submitted+1 || after.Completed != before.Completed+1 || after.CacheHits != before.CacheHits+1 || after.Traversals != before.Traversals {
		t.Errorf("an inline hit moved the counters from %+v to %+v", before, after)
	}
	nc := spec
	nc.NoCache = true
	if res, _ := doneAtSubmit(nc); res.Cached {
		t.Errorf("NoCache spec served from the cache")
	}
	// The indexed graph's hits come from the scheduler, which asks the index
	// first; they are hits all the same.
	ispec := Spec{Graph: "indexed", Analysis: "count"}
	doneAtSubmit(ispec)
	if res, _ := doneAtSubmit(ispec); !res.Cached {
		t.Errorf("indexed graph: repeat not cached")
	}
	e.Close()
	if _, err := e.Submit(ctx, spec); err != ErrClosed {
		t.Errorf("Submit of a cached question on a closed engine: err = %v, want ErrClosed", err)
	}
}
