package main

// The load generator: closed-loop clients, each one goroutine with one
// keep-alive connection, replaying a fixed script. Closed loop because the
// callers modelled here — an analyst, a dashboard refresh, an ingest
// pipeline — wait for one answer before sending the next request, and the
// engine's single scheduler serialises traversals anyway: two clients keep
// exactly one request queued behind the one in service.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// requestTimeout bounds one request; an expiry counts as a failed request.
const requestTimeout = 60 * time.Second

// sample is one completed (or failed) scripted request.
type sample struct {
	op      *op
	round   int // index of the round it belongs to
	sent    time.Time
	ms      float64 // client-observed latency
	bytes   int     // response body size
	status  int     // HTTP status; 0 = transport error or timeout
	failure string  // "" = answered correctly
}

// client is one closed-loop caller: one connection, one request in flight.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer // the last reply; reused from one request to the next
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole reply, which stays valid until
// the client's next request.
func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	return resp.StatusCode, c.buf.Bytes(), err
}

// answers remembers, per (request body, graph epoch), a checksum of the
// first value served, so every repeat — cache hit, memo hit, coalesced twin
// — is held to the same bytes.
type answers struct {
	mu   sync.Mutex
	seen map[answerKey]uint64
}

type answerKey struct {
	body  string
	epoch uint64
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// check verifies one query reply; it returns a description of what is
// wrong, or "".
func (a *answers) check(o *op, status int, reply []byte) string {
	if status != http.StatusOK {
		return fmt.Sprintf("HTTP %d: %s", status, bytes.TrimSpace(reply))
	}
	if o.kind != opQuery {
		return ""
	}
	epoch, value, problem := parseReply(reply)
	if problem != "" {
		return problem
	}
	sum := crc64.Checksum(value, crcTable)
	key := answerKey{body: string(o.body), epoch: epoch}
	a.mu.Lock()
	first, repeated := a.seen[key]
	if !repeated {
		a.seen[key] = sum
	}
	a.mu.Unlock()
	if repeated {
		// The first answer passed the oracle (if it has one); a repeat only
		// has to be the same bytes.
		if first != sum {
			return "repeat of an answered question differs from the first answer"
		}
		return ""
	}
	if o.want != nil {
		got, err := comparable(o.class, value)
		if err != nil {
			return "undecodable value: " + err.Error()
		}
		if !bytes.Equal(got, o.want) {
			return fmt.Sprintf("wrong answer: got %.200s want %.200s", got, o.want)
		}
	}
	return ""
}

// parseReply reads of a /v1/query?wait=1 answer what the benchmark checks:
// that the job is done without error, the graph epoch the answer describes
// and the raw value.
func parseReply(reply []byte) (epoch uint64, value []byte, problem string) {
	status, err := field(reply, "status")
	if err != nil {
		return 0, nil, "undecodable reply: " + err.Error()
	}
	jobErr, _ := field(reply, "error")
	if string(status) != `"done"` || jobErr != nil {
		return 0, nil, fmt.Sprintf("job %s: %s", status, jobErr)
	}
	result, _ := field(reply, "result")
	rawEpoch, err := field(result, "epoch")
	if err != nil {
		return 0, nil, "undecodable result: " + err.Error()
	}
	if epoch, err = strconv.ParseUint(string(rawEpoch), 10, 64); err != nil {
		return 0, nil, "undecodable epoch: " + err.Error()
	}
	if value, _ = field(result, "value"); value == nil {
		return 0, nil, "reply without a value"
	}
	return epoch, value, ""
}

// errServerDied aborts a run whose tripolld is gone: every further request
// would only time out.
var errServerDied = errors.New("tripolld died mid-run")

// replay sends ops in order on one client and records a sample per op.
func replay(ctx context.Context, srv *server, c *client, a *answers, round int, ops []*op) ([]sample, error) {
	out := make([]sample, 0, len(ops))
	for _, o := range ops {
		t0 := time.Now()
		status, reply, err := c.do(ctx, http.MethodPost, o.path(), o.body)
		s := sample{op: o, round: round, sent: t0, ms: float64(time.Since(t0).Nanoseconds()) / 1e6, bytes: len(reply), status: status}
		if err != nil {
			if !srv.alive() {
				return out, errServerDied
			}
			if ctx.Err() != nil {
				return out, ctx.Err()
			}
			s.failure = err.Error()
		} else {
			s.failure = a.check(o, status, reply)
		}
		out = append(out, s)
	}
	return out, nil
}

func pointers(ops []op) []*op {
	out := make([]*op, len(ops))
	for i := range ops {
		out[i] = &ops[i]
	}
	return out
}

// phase is the outcome of one timed phase.
type phase struct {
	samples []sample
	roundS  []float64 // wall time of each round
	wallS   float64   // first request sent → last reply received
}

// runTimed runs w's timed phase: round after round, in each the clients
// replaying their lists concurrently. With a single client, that client
// replays both lists of every round interleaved.
func runTimed(ctx context.Context, srv *server, w *workload, clients []*client, a *answers) (phase, error) {
	var ph phase
	start := time.Now()
	for i := range w.rounds {
		r := &w.rounds[i]
		lists := [][]*op{pointers(r[0]), pointers(r[1])}
		if len(clients) == 1 {
			lists = [][]*op{r.ops()}
		}
		type outcome struct {
			samples []sample
			err     error
		}
		outs := make([]outcome, len(lists))
		var wg sync.WaitGroup
		began := time.Now()
		for c, list := range lists {
			if len(list) == 0 {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[c].samples, outs[c].err = replay(ctx, srv, clients[c], a, i, list)
			}()
		}
		wg.Wait()
		ph.roundS = append(ph.roundS, time.Since(began).Seconds())
		for _, o := range outs {
			ph.samples = append(ph.samples, o.samples...)
			if o.err != nil {
				return ph, o.err
			}
		}
	}
	ph.wallS = time.Since(start).Seconds()
	return ph, nil
}
