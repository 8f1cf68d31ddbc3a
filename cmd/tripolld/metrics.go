// The /metrics endpoint: one JSON document (expvar-style, not Prometheus
// text) with everything the engine, WAL and HTTP front end already count.
// Schema (asserted by TestMetricsSchema):
//
//	{
//	  "engine":         engine.Stats (submitted/completed/shed/cache_hits/...; the
//	                     result cache's "cache_entries", "cache_bytes" (≤ -cache-mb)
//	                     and "cache_evictions"),
//	  "queue_depth":    jobs awaiting the scheduler's next admission batch,
//	  "cache_hit_rate": cache_hits / completed,
//	  "coalesce_ratio": coalesced / completed,
//	  "graphs":         [{"name", "epoch", "durable": {"wal": wal.Stats, ...}}],
//	  "http":           {"requests", "rate_limited", "overloaded", "jobs_retained",
//	                     "retained_bytes" (what the retained jobs' results weigh, ≤
//	                     -cache-mb), "value_encodes" (result replies that ran
//	                     encoding/json: one per distinct answer, none per cache hit),
//	                     "encode_errors" (replies answered 500 because they could not
//	                     be encoded)},
//	  "world":          {"messages_sent", "messages_processed", "handlers" (handler-table
//	                     length: flat across queries), "link_sync_rounds",
//	                     "link_quiesce_rounds", "link_exchange_rounds" (process-link
//	                     round trips by kind; 0 without -workers)},
//	  "dist":           (-workers only) {"procs", "mutation": dist.MutationStats},
//	  "truss_index":    (-truss-index only) tripoll.TrussIndexStats {"epoch", "edges",
//	                     "buckets", "served", "recomputed", "commits", "memo_entries"
//	                     (memoized answers, all still valid), "window_reads",
//	                     "edges_scanned", "buckets_scanned" (the work of the window
//	                     reads behind recomputed answers)}
//	}
package main

import (
	"net/http"

	"tripoll"
	"tripoll/internal/dist"
)

type graphMetrics struct {
	Name  string `json:"name"`
	Epoch uint64 `json:"epoch"`
	// Durable is present for WAL-backed streams only.
	Durable *tripoll.DurableStreamStatus `json:"durable,omitempty"`
}

type httpMetrics struct {
	Requests     uint64 `json:"requests"`
	RateLimited  uint64 `json:"rate_limited"`
	Overloaded   uint64 `json:"overloaded"`
	JobsRetained int    `json:"jobs_retained"`
	// RetainedBytes, ValueEncodes and EncodeErrors are pure functions of the
	// requests served — host-independent.
	RetainedBytes int64  `json:"retained_bytes"`
	ValueEncodes  uint64 `json:"value_encodes"`
	EncodeErrors  uint64 `json:"encode_errors"`
}

type worldMetrics struct {
	MessagesSent      int64 `json:"messages_sent"`
	MessagesProcessed int64 `json:"messages_processed"`
	// Handlers is the length of the world's handler table. Surveys and
	// builders release what they register, so it does not grow with queries.
	Handlers int `json:"handlers"`
	// Link*Rounds count the driver's control-link round trips by kind. Sync
	// and exchange rounds are a pure function of the work served; quiesce
	// rounds also depend on how long the wires took to drain.
	LinkSyncRounds     uint64 `json:"link_sync_rounds"`
	LinkQuiesceRounds  uint64 `json:"link_quiesce_rounds"`
	LinkExchangeRounds uint64 `json:"link_exchange_rounds"`
}

// distMetrics is the multi-process section: the mutation broadcast
// seam's counters (fan-out and commit latency, per-worker applied
// counts). Present only under -workers.
type distMetrics struct {
	Procs    int                `json:"procs"`
	Mutation dist.MutationStats `json:"mutation"`
}

type metricsPayload struct {
	Engine     tripoll.EngineStats `json:"engine"`
	QueueDepth int                 `json:"queue_depth"`
	// CacheHitRate and CoalesceRatio are completed-job fractions (0 when
	// nothing has completed).
	CacheHitRate  float64        `json:"cache_hit_rate"`
	CoalesceRatio float64        `json:"coalesce_ratio"`
	Graphs        []graphMetrics `json:"graphs"`
	HTTP          httpMetrics    `json:"http"`
	World         *worldMetrics  `json:"world,omitempty"`
	Dist          *distMetrics   `json:"dist,omitempty"`
	// TrussIndex is present under -truss-index: the maintained index's
	// size and serving counters.
	TrussIndex *tripoll.TrussIndexStats `json:"truss_index,omitempty"`
}

func ratio(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.eng.Stats()
	m := metricsPayload{
		Engine:        st,
		QueueDepth:    s.eng.QueueDepth(),
		CacheHitRate:  ratio(st.CacheHits, st.Completed),
		CoalesceRatio: ratio(st.Coalesced, st.Completed),
		HTTP: httpMetrics{
			Requests:     s.requests.Load(),
			RateLimited:  s.rateLimited.Load(),
			Overloaded:   s.overloaded.Load(),
			ValueEncodes: s.valueEncodes.Load(),
			EncodeErrors: s.encodeErrors.Load(),
		},
	}
	for _, name := range s.eng.Graphs() {
		gm := graphMetrics{Name: name}
		gm.Epoch, _ = s.eng.Epoch(name)
		if ds, ok := s.eng.DurableStatus(name); ok {
			gm.Durable = &ds
		}
		m.Graphs = append(m.Graphs, gm)
	}
	s.mu.Lock()
	m.HTTP.JobsRetained, m.HTTP.RetainedBytes = len(s.jobs), s.retainedBytes
	s.mu.Unlock()
	if s.world != nil {
		sent, proc := s.world.TransportCounters()
		lr := s.world.LinkRounds()
		m.World = &worldMetrics{
			MessagesSent: sent, MessagesProcessed: proc, Handlers: s.world.NumHandlers(),
			LinkSyncRounds: lr.Sync, LinkQuiesceRounds: lr.Quiesce, LinkExchangeRounds: lr.Exchange,
		}
	}
	if s.cluster != nil {
		m.Dist = &distMetrics{Procs: s.cluster.Procs(), Mutation: s.cluster.MutationStats()}
	}
	if s.trussIx != nil {
		st := s.trussIx.Stats()
		m.TrussIndex = &st
	}
	s.writeJSON(w, http.StatusOK, m)
}
