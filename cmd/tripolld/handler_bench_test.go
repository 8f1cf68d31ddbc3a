package main

import (
	"net/http"
	"strings"
	"testing"

	"tripoll"
	"tripoll/datagen"
)

// discardWriter is a ResponseWriter that keeps only the status and the
// body's length, so a handler can be driven with no socket and no
// recorder's copy in the measurement.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header  { return d.h }
func (d *discardWriter) WriteHeader(code int) { d.code = code }
func (d *discardWriter) Write(b []byte) (int, error) {
	d.n += len(b)
	return len(b), nil
}

// rewindBody is a request body that can be sent again.
type rewindBody struct{ strings.Reader }

func (*rewindBody) Close() error { return nil }

// hitRequest drives one POST /v1/query?wait=1 through the server's whole
// handler stack with a reusable request and writer: calling it again
// allocates nothing of its own.
type hitRequest struct {
	spec string
	req  *http.Request
	body rewindBody
	w    discardWriter
}

func newHitRequest(tb testing.TB, spec string) *hitRequest {
	tb.Helper()
	h := &hitRequest{spec: spec, w: discardWriter{h: make(http.Header)}}
	req, err := http.NewRequest(http.MethodPost, "/v1/query?wait=1", nil)
	if err != nil {
		tb.Fatal(err)
	}
	req.Body = &h.body
	h.req = req
	return h
}

// serve sends the request and returns the status and the reply's length.
func (h *hitRequest) serve(srv *server) (code, n int) {
	h.body.Reset(h.spec)
	clear(h.w.h)
	h.w.code, h.w.n = http.StatusOK, 0
	srv.ServeHTTP(&h.w, h.req)
	return h.w.code, h.w.n
}

// BenchmarkHandlerHit is the layer benchmark of a cache hit as tripolld
// serves it: request decode, admission, the engine's cache lookup and the
// reply, against a discarding writer — everything but the socket. One warm
// request per class makes every timed one a hit; bytes/reply is the wire
// size of the answer.
func BenchmarkHandlerHit(b *testing.B) {
	p := datagen.DefaultRedditParams()
	p.Events, p.Users = 1_000_000, 125_000
	if testing.Short() {
		p.Events, p.Users = 100_000, 12_500
	}
	w := tripoll.NewWorld(4)
	defer w.Close()
	g := tripoll.BuildTemporal(w, datagen.RedditLike(p))
	eng := tripoll.NewTemporalQueryEngine()
	defer eng.Close()
	if err := eng.Register("default", g); err != nil {
		b.Fatal(err)
	}
	srv := newServer(eng, map[string]tripoll.GraphInfo{"default": tripoll.Info(g)}, serverConfig{world: w})

	for _, class := range []struct{ name, spec string }{
		{"count", `{"analysis":"count","delta":86400}`},
		{"closure", `{"analysis":"closure","delta":86400}`},
		{"cc", `{"analysis":"cc","delta":86400}`},
		{"sweep", `{"analysis":"sweep","delta":86400,"args":{"deltas":[60,3600,86400]}}`},
		{"localcounts", `{"analysis":"localcounts","delta":86400}`},
		{"edgecounts", `{"analysis":"edgecounts","delta":86400}`},
	} {
		b.Run(class.name, func(b *testing.B) {
			h := newHitRequest(b, class.spec)
			if code, _ := h.serve(srv); code != http.StatusOK {
				b.Fatalf("warm request: HTTP %d", code)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var bytes int
			for i := 0; i < b.N; i++ {
				code, n := h.serve(srv)
				if code != http.StatusOK {
					b.Fatalf("hit: HTTP %d", code)
				}
				bytes = n
			}
			b.ReportMetric(float64(bytes), "bytes/reply")
		})
	}
}
