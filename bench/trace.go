package main

// Tracing: spans recorded from the benchmark's own files, around the calls
// into each layer. The spans of one scripted request share its req id
// across the passes that replay it (HTTP, engine, core, leaf), and each
// span names as parent the span of the same request one boundary up — the
// span that, in the running server, causes it. A layer's self time is its
// span's duration minus its children's durations.
//
// Spans are kept in memory and written out when the run ends; nothing is
// traced while end-to-end metrics are being measured.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Layers, outermost first; the module each names is in the README.
const (
	layerTripolld  = "tripolld"
	layerDist      = "dist"
	layerEngine    = "engine"
	layerCore      = "core"
	layerGraph     = "graph"
	layerYgm       = "ygm"
	layerSerialize = "serialize"
	layerWal       = "wal"
	layerTruss     = "truss"
)

var layerOrder = []string{layerTripolld, layerDist, layerEngine, layerCore, layerTruss, layerWal, layerGraph, layerYgm, layerSerialize}

type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 = root
	Req    int    `json:"req"`    // scripted request id; -1 = not tied to a request
}

func (s *span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer is used from one goroutine at a time (every traced pass is a
// one-client replay).
type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64 // exact counts taken at the same boundaries
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: make(map[string]float64)} }

// add records a finished span and returns its index.
func (t *tracer) add(layer, name string, req, parent int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: s, End: s + d.Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// selfMs returns each span's self time: duration minus children.
func (t *tracer) selfMs() []float64 {
	self := make([]float64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].ms()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].ms()
		}
	}
	return self
}

// pick returns, for the spans keep selects, either durations or self times.
func (t *tracer) pick(self []float64, keep func(i int, s *span) bool) (dur, own []float64) {
	for i := range t.spans {
		if keep(i, &t.spans[i]) {
			dur = append(dur, t.spans[i].ms())
			own = append(own, self[i])
		}
	}
	return dur, own
}

// consistency is Σ self time ÷ Σ client-observed time over the request-bound
// spans, self times summed per (layer, span name) first and a negative sum
// counted as zero. Self times telescope, so the ratio is 1 when the peeled
// layers add up to what the client saw; it rises above 1 when, for some
// class of request, the replay one boundary down ran longer than the span
// it was peeled from — that replay does not stand for what the layer does
// inside the server. (Summing per class first lets the noise of single
// requests cancel; the two replays of one request never take the same time.)
func (t *tracer) consistency(self []float64) float64 {
	var roots, sum float64
	groups := make(map[[2]string]float64)
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req < 0 {
			continue
		}
		if s.Parent < 0 {
			roots += s.ms()
		}
		groups[[2]string{s.Layer, s.Name}] += self[i]
	}
	for _, g := range groups {
		sum += max(g, 0)
	}
	if roots == 0 {
		return 0
	}
	return sum / roots
}

// printLayerTable prints busy, self, count and share per layer for the
// request-bound spans, and the consistency line.
func (t *tracer) printLayerTable(workload string) {
	self := t.selfMs()
	type row struct {
		busy, self float64
		n          int
	}
	rows := make(map[string]*row)
	var total float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.Req < 0 {
			continue
		}
		r := rows[s.Layer]
		if r == nil {
			r = &row{}
			rows[s.Layer] = r
		}
		r.busy += s.ms()
		r.self += self[i]
		r.n++
		if s.Parent < 0 {
			total += s.ms()
		}
	}
	fmt.Printf("-- %s: layers of the one-client replay (request-bound spans)\n", workload)
	fmt.Printf("  %-10s %12s %12s %8s %8s\n", "layer", "busy_ms", "self_ms", "count", "share")
	for _, l := range layerOrder {
		if r := rows[l]; r != nil {
			fmt.Printf("  %-10s %12.1f %12.1f %8d %8.3f\n", l, r.busy, r.self, r.n, r.self/total)
		}
	}
	c := t.consistency(self)
	flag := ""
	if c < 0.9 || c > 1.1 {
		flag = "  <-- outside 0.9–1.1"
	}
	fmt.Printf("  consistency (Σ self ÷ Σ client-observed): %.3f%s\n", c, flag)
}

// write flushes the trace to path.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"workload": workload, "counts": t.counts, "spans": t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
