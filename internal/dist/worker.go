package dist

import (
	"fmt"

	"tripoll/internal/core"
	"tripoll/internal/engine"
	"tripoll/internal/graph"
	"tripoll/internal/wal"
	"tripoll/internal/ygm"
)

// Worker is one joined worker process: its view of the world plus the
// control connection to the coordinator. A read pump owns the connection's
// read side and feeds a channel; the serve loop and the link rounds take
// turns consuming it (the protocol's lockstep guarantees exactly one
// consumer per frame), which is what lets Serve select on a stop signal
// without a read blocking it.
type Worker struct {
	cc     *ctrlConn
	w      *ygm.World
	proc   int
	first  int
	count  int
	world  int
	frames chan frameOrErr
}

type frameOrErr struct {
	m   *ctrlMsg
	err error
}

// World returns the worker's view of the process-spanning world.
func (wk *Worker) World() *ygm.World { return wk.w }

// Proc returns this process's index (1-based among workers; the
// coordinator is process 0).
func (wk *Worker) Proc() int { return wk.proc }

// Close releases the world and the control connection without the
// departure protocol; Serve's normal return paths have already left.
func (wk *Worker) Close() {
	wk.cc.close()
	wk.w.Close()
}

// pump owns the connection's read side: every inbound frame (job or link
// round) lands on the channel in order. On a read error it delivers the
// error once and closes the channel, so every later consumer sees the
// link as down rather than blocking forever.
func (wk *Worker) pump() {
	for {
		m, err := wk.cc.recv()
		if err != nil {
			wk.frames <- frameOrErr{err: err}
			close(wk.frames)
			return
		}
		wk.frames <- frameOrErr{m: m}
	}
}

// awaitLink consumes the next frame for a link round.
func (wk *Worker) awaitLink(k kind) (*ctrlMsg, error) {
	fe, ok := <-wk.frames
	if !ok {
		return nil, errLinkDown
	}
	if fe.err != nil {
		return nil, fe.err
	}
	if fe.m.Kind != k {
		return nil, &ProtocolError{Got: fe.m.Kind, Want: k}
	}
	return fe.m, nil
}

// Hooks binds a worker's serve loop to a concrete graph/analysis
// configuration (the metadata type parameters and the non-serializable
// pieces: codecs, merge functions, analysis factories). Driver and worker
// binaries must agree on these — they are the replicated program.
type Hooks[VM, EM any] struct {
	// Registry resolves analysis names, exactly as the driver's engine
	// does.
	Registry *engine.Registry[VM, EM]
	// Timestamps extracts a timestamp from edge metadata for temporal
	// plans; nil if the configuration has none.
	Timestamps func(EM) uint64
	// Build runs this process's side of a collective graph build for the
	// given spec, feeding no edges (the driver's ranks feed all of them).
	Build func(w *ygm.World, name string, spec BuildSpec) (*graph.DODGr[VM, EM], error)
	// OpenStream runs this process's side of a collective stream open
	// (stream job) over the built graph g, mapping the policy back to the
	// same StreamOptions/plan/analyses the driver's OpenDurableStream
	// uses. nil rejects stream jobs.
	OpenStream func(g *graph.DODGr[VM, EM], policy string) (*core.Stream[VM, EM], error)
}

// Serve runs the worker's job loop until the coordinator dismisses it
// (stop job), the process is asked to quit (stop channel, e.g. SIGTERM),
// or the world breaks. Shutdown via the stop channel is graceful: a job in
// flight — including every parallel region of a traversal — completes
// first, then the worker announces departure with a leave frame and
// returns nil.
//
// Jobs execute synchronously in arrival order, mirroring the driver's
// scheduler, so the processes enter every parallel region in the same
// sequence with identically numbered handlers. Mutation jobs (v2: stream,
// ingest, advance, mat) are jobs like any other, so the SIGTERM drain
// point between jobs covers them too: an in-flight mutation completes —
// collective apply, acknowledgement and all — before the worker leaves.
func Serve[VM, EM any](wk *Worker, h Hooks[VM, EM], stop <-chan struct{}) error {
	// graphs holds the worker's side of every built graph (a stream's
	// latest snapshot once it has materialized), streams its side of every
	// open durable stream, and applied counts the mutations this worker has
	// acknowledged.
	graphs := make(map[string]*graph.DODGr[VM, EM])
	streams := make(map[string]*core.Stream[VM, EM])
	var applied uint64
	for {
		// A pending stop outranks a pending job: the drain point is
		// between jobs.
		select {
		case <-stop:
			return wk.leave()
		default:
		}
		select {
		case <-stop:
			return wk.leave()
		case fe, ok := <-wk.frames:
			if !ok {
				return errLinkDown
			}
			if fe.err != nil {
				return fmt.Errorf("dist: coordinator link: %w", fe.err)
			}
			m := fe.m
			switch m.Kind {
			case kBuild:
				if h.Build == nil {
					return fmt.Errorf("dist: build job %q but the worker has no Build hook", m.Graph)
				}
				g, err := h.Build(wk.w, m.Graph, m.Build)
				if err != nil {
					return fmt.Errorf("dist: build job %q: %w", m.Graph, err)
				}
				graphs[m.Graph] = g
			case kRun:
				g := graphs[m.Graph]
				if g == nil {
					return fmt.Errorf("dist: run job names unbuilt graph %q", m.Graph)
				}
				opts := core.Options{Mode: core.Mode(m.Run.Mode), PullFactor: m.Run.PullFactor}
				if _, _, err := engine.ExecuteFused(h.Registry, h.Timestamps, g, opts, m.Run.Specs); err != nil {
					return fmt.Errorf("dist: traversal job: %w", err)
				}
			case kStream:
				if h.OpenStream == nil {
					return fmt.Errorf("dist: stream job %q but the worker has no OpenStream hook", m.Graph)
				}
				g := graphs[m.Graph]
				if g == nil {
					return fmt.Errorf("dist: stream job names unbuilt graph %q", m.Graph)
				}
				s, err := h.OpenStream(g, m.Policy)
				if err != nil {
					return fmt.Errorf("dist: stream job %q: %w", m.Graph, err)
				}
				streams[m.Graph] = s
			case kIngest, kAdvance:
				s, open := streams[m.Graph]
				if !open {
					return fmt.Errorf("dist: %v job names unopened stream %q", m.Kind, m.Graph)
				}
				// The collective apply, then the acknowledgement — the
				// driver's commit round reads one ack per worker after its
				// own apply returns. A failed apply is acknowledged with
				// the error (so the driver fails the job rather than time
				// out) and then fatal here: the replicas have diverged.
				err := applyMutation(s, graphs[m.Graph], m)
				ack := &ctrlMsg{Kind: kMutDone, Graph: m.Graph, Epoch: m.Epoch}
				if err != nil {
					ack.Err = err.Error()
				} else {
					applied++
				}
				ack.Applied = applied
				if serr := wk.cc.send(ack); serr != nil {
					return fmt.Errorf("dist: mutation ack: %w", serr)
				}
				if err != nil {
					return fmt.Errorf("dist: %v job %q epoch %d: %w", m.Kind, m.Graph, m.Epoch, err)
				}
			case kMat:
				s, open := streams[m.Graph]
				if !open {
					return fmt.Errorf("dist: materialize job names unopened stream %q", m.Graph)
				}
				graphs[m.Graph] = s.Materialize()
			case kStop:
				return wk.leave()
			default:
				return &ProtocolError{Got: m.Kind, Want: kRun}
			}
		}
	}
}

// applyMutation enters one broadcast mutation's collective apply: the
// batch bytes decode under the built graph's own edge codec (the exact
// encoding the driver's WAL logged), so driver and workers apply
// byte-identical batches.
func applyMutation[VM, EM any](s *core.Stream[VM, EM], base *graph.DODGr[VM, EM], m *ctrlMsg) error {
	switch m.Kind {
	case kIngest:
		batch, err := wal.DecodeBatch(base.EdgeCodec(), m.Batch)
		if err != nil {
			return err
		}
		_, err = s.Ingest(batch)
		return err
	default: // kAdvance
		_, err := s.Advance(m.Cutoff)
		return err
	}
}

// leave announces orderly departure. The coordinator sees the frame at its
// next interaction with this worker: during Close it is the expected
// goodbye; during a link round it surfaces as ErrWorkerLeft and poisons
// the in-flight job.
func (wk *Worker) leave() error {
	wk.cc.send(&ctrlMsg{Kind: kLeave})
	wk.Close()
	return nil
}
