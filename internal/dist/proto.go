package dist

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tripoll/internal/core"
	"tripoll/internal/engine"
	"tripoll/internal/serialize"
	"tripoll/internal/stats"
	"tripoll/internal/truss"
)

// Control-plane wire protocol: every frame is a gob-encoded ctrlMsg behind
// a 4-byte length prefix (serialize.WriteFrame). One
// message type with a kind tag keeps the codec trivial and lets a reader
// reject an unexpected frame with a protocol error instead of a gob decode
// failure. Each direction of a connection is ONE gob stream for the
// connection's lifetime (see ctrlConn): a frame costs what it carries, not
// a fresh encoder, its type descriptors and a freshly compiled decoder.

const (
	// joinMagic/protoVersion version the control plane, independently of
	// the ygm data-plane hello (which has its own magic and version): the
	// two evolve separately, and a worker from a different build is
	// rejected at join time with a typed error before any world state
	// exists.
	joinMagic    = "TPDZ"
	protoVersion = 3 // v2: mutation jobs (stream/ingest/advance/mutdone/mat); v3: no graph replicas

	// maxCtrlFrame bounds a control frame. Graph shards never cross the
	// control plane (the data mesh carries them); what does is specs,
	// quiescence votes, and collective payloads (analysis accumulators),
	// so a quarter gigabyte is already generous.
	maxCtrlFrame = 256 << 20

	// keepFrameBuf is the largest encode buffer a connection keeps between
	// frames; one large accumulator exchange must not pin its size forever.
	keepFrameBuf = 1 << 20

	defaultTimeout = 60 * time.Second
)

type kind uint8

const (
	kJoin kind = 1 + iota
	kAssign
	kAddrs
	kTable
	kReady
	kGo
	kSync
	kQuiesce
	kExchange
	kBuild
	kRun
	kStop
	kLeave
	// v2: the mutation path. kStream opens a worker's side of a durable
	// stream over a built graph; kIngest/kAdvance broadcast one logged
	// mutation (the collective apply follows immediately); kMutDone is the
	// worker's per-mutation acknowledgement — the commit phase; kMat asks
	// workers to re-materialize a stream's queryable snapshot.
	kStream
	kIngest
	kAdvance
	kMutDone
	kMat
)

func (k kind) String() string {
	names := [...]string{"invalid", "join", "assign", "addrs", "table", "ready",
		"go", "sync", "quiesce", "exchange", "build", "run", "stop", "leave",
		"stream", "ingest", "advance", "mutdone", "mat"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ErrWorkerLeft reports that a worker announced departure (SIGTERM drain)
// and the world can no longer run collectives.
var ErrWorkerLeft = errors.New("dist: worker left the world")

// errLinkDown reports a control connection whose read pump already
// delivered its terminal error to an earlier consumer.
var errLinkDown = errors.New("dist: control link is down")

// JoinMagicError reports a join frame from something that is not a tripoll
// worker at all.
type JoinMagicError struct{ Got string }

func (e *JoinMagicError) Error() string {
	return fmt.Sprintf("dist: join magic %q, want %q (not a tripoll worker?)", e.Got, joinMagic)
}

// JoinVersionError reports a worker built against a different control
// protocol version.
type JoinVersionError struct{ Got, Want uint16 }

func (e *JoinVersionError) Error() string {
	return fmt.Sprintf("dist: worker speaks control protocol v%d, coordinator wants v%d", e.Got, e.Want)
}

// ProtocolError reports a frame of the wrong kind for the current phase,
// or — Cause set — bytes that are no frame at all (an oversized length
// prefix, a payload gob cannot decode). The second kind is fatal to the
// connection: the receiver closes it, because the gob stream is lost.
type ProtocolError struct {
	Got, Want kind
	Cause     error
}

func (e *ProtocolError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("dist: protocol error: undecodable control frame: %v", e.Cause)
	}
	return fmt.Sprintf("dist: protocol error: got %v frame, want %v", e.Got, e.Want)
}

func (e *ProtocolError) Unwrap() error { return e.Cause }

// WireOptions is the subset of ygm.Options the coordinator dictates to
// every process; transport is always TCP and ListenAddr stays per-process.
type WireOptions struct {
	BufferBytes int
	PollEvery   int
	GroupSize   int
}

// BuildSpec is the wire form of a graph-build job. Merge functions are not
// serializable, so the spec names a policy each worker binary maps back to
// code; driver and workers must agree on the mapping (they ship in the
// same binary or build).
type BuildSpec struct {
	// Ordering is the graph.Ordering value to build with.
	Ordering int
	// Policy names the builder configuration: codecs and the
	// MergeEdgeMeta reduction (e.g. "temporal" = uint64 timestamps merged
	// by min, the §5.2 reduction).
	Policy string
	// Replicas must be 0 or 1: a graph has one copy. Cluster.Build
	// rejects anything else before it broadcasts.
	Replicas int
}

// RunSpec is the wire form of one fused traversal: the driver's post-cache
// admission group, already deduplicated, in leader order.
type RunSpec struct {
	Mode       int
	PullFactor float64
	Specs      []engine.Spec
}

// wireVal wraps one collective slot for gob: encoding/gob refuses nil
// interface values inside a slice, and untyped-nil slots are meaningful to
// the collectives (non-root Broadcast slots, non-leader AllGather parts).
type wireVal struct {
	Nil bool
	V   any
}

func wrapVals(vals []any) []wireVal {
	out := make([]wireVal, len(vals))
	for i, v := range vals {
		if v == nil {
			out[i].Nil = true
			continue
		}
		out[i].V = v
	}
	return out
}

func unwrapVals(ws []wireVal) []any {
	out := make([]any, len(ws))
	for i := range ws {
		if !ws[i].Nil {
			out[i] = ws[i].V
		}
	}
	return out
}

// ctrlMsg is the one frame shape; Kind selects which fields matter.
type ctrlMsg struct {
	Kind kind

	// join
	Magic   string
	Version uint16

	// assign
	Proc  int
	First int
	Count int
	World int
	Opts  WireOptions

	// addrs (worker's local listeners) / table (full rank→addr table)
	Addrs []string

	// ready / go / leave
	Err string

	// quiesce: worker → per-process contributions; coord → verdict
	Sent      int64
	Processed int64
	Quiet     bool

	// exchange: worker → local span's slots; coord → all n slots
	Vals []wireVal

	// jobs
	Graph string
	Build BuildSpec
	Run   RunSpec

	// mutation jobs (v2). stream: Policy names the worker's stream
	// configuration. ingest: Batch is the wal.EncodeBatch payload, Epoch
	// the record's WAL sequence number. advance: Cutoff + Epoch. mutdone
	// (worker → coord): Epoch echoes the mutation, Applied counts the
	// mutations this worker has applied in total, Err reports a failed
	// apply (shared field above).
	Policy  string
	Batch   []byte
	Epoch   uint64
	Cutoff  uint64
	Applied uint64
}

// The concrete types that cross the control plane inside collective slots
// (wireVal.V): every stock analysis accumulator and the scalar collective
// payloads. Programs whose analyses reduce custom types over a
// multi-process world must gob.Register those types themselves.
func init() {
	gob.Register(uint64(0))
	gob.Register(int64(0))
	gob.Register(int(0))
	gob.Register(uint32(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register("")
	gob.Register([]uint64(nil))
	gob.Register([]string(nil))
	gob.Register(map[uint64]uint64(nil))
	gob.Register(map[core.EdgeKey]uint64(nil))
	gob.Register(map[core.DegreeTriple]uint64(nil))
	gob.Register(core.ClusteringAccum{})
	gob.Register(&stats.Joint2D{})
	gob.Register(&truss.Accum{})
}

// ctrlConn frames gob messages over one TCP connection. Sends are
// mutex-serialized (job broadcasts from the scheduler goroutine interleave
// with link-round replies from the ygm leader goroutine); reads have a
// single consumer at a time by protocol phase, so they are unlocked.
//
// The encoder and decoder live as long as the connection, each paired with
// its opposite number on the peer from the first frame on: gob sends a
// type's descriptor once per stream and compiles its decoder once, which is
// most of what a small frame used to cost. The first frame each way (join,
// assign) is therefore still self-contained. Frames keep their length
// prefix, so a reader never allocates beyond maxCtrlFrame on a peer's say-so.
type ctrlConn struct {
	c   net.Conn
	br  *bufio.Reader
	wmu sync.Mutex

	enc  *gob.Encoder
	wbuf bytes.Buffer // the gob bytes of the frame being sent
	dec  *gob.Decoder
	rd   bytes.Reader // the decoder's source: exactly the current frame's payload
	// (bytes.Reader is an io.ByteReader, so gob reads no further ahead)
}

func newCtrlConn(c net.Conn) *ctrlConn {
	cc := &ctrlConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	cc.enc = gob.NewEncoder(&cc.wbuf)
	cc.dec = gob.NewDecoder(&cc.rd)
	return cc
}

func (cc *ctrlConn) send(m *ctrlMsg) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	cc.wbuf.Reset()
	if err := cc.enc.Encode(m); err != nil {
		// Descriptors the encoder now believes sent never left: the stream
		// is unusable from here on.
		cc.c.Close()
		return fmt.Errorf("dist: encode %v frame: %w", m.Kind, err)
	}
	err := serialize.WriteFrame(cc.c, cc.wbuf.Bytes())
	if cc.wbuf.Cap() > keepFrameBuf {
		cc.wbuf = bytes.Buffer{} // same address: the encoder keeps writing here
	}
	return err
}

// recv reads one frame. I/O failures (EOF, deadline) come back as they
// are; bytes that are no frame — an oversized length prefix, a payload gob
// cannot decode, bytes left over after the value — come back as a
// ProtocolError and close the connection.
func (cc *ctrlConn) recv() (*ctrlMsg, error) {
	payload, err := serialize.ReadFrame(cc.br, maxCtrlFrame)
	if err != nil {
		var tooBig *serialize.FrameSizeError
		if errors.As(err, &tooBig) {
			return nil, cc.corrupt(err)
		}
		return nil, err
	}
	cc.rd.Reset(payload)
	var m ctrlMsg
	if err := cc.dec.Decode(&m); err != nil {
		return nil, cc.corrupt(err)
	}
	if rest := cc.rd.Len(); rest != 0 {
		return nil, cc.corrupt(fmt.Errorf("%d bytes trail the %v frame", rest, m.Kind))
	}
	return &m, nil
}

func (cc *ctrlConn) corrupt(cause error) error {
	cc.c.Close()
	return &ProtocolError{Cause: cause}
}

// expect receives one frame and demands its kind.
func (cc *ctrlConn) expect(k kind) (*ctrlMsg, error) {
	m, err := cc.recv()
	if err != nil {
		return nil, err
	}
	if m.Kind != k {
		return nil, &ProtocolError{Got: m.Kind, Want: k}
	}
	return m, nil
}

func (cc *ctrlConn) setDeadline(t time.Time) {
	cc.c.SetDeadline(t)
}

func (cc *ctrlConn) close() error { return cc.c.Close() }

// listenLocal binds count data-plane listeners on addr ("host:0" forms
// pick ephemeral ports) and returns them with their bound addresses,
// cleaning up on partial failure. The bound addresses go verbatim into the
// peer table every other process dials, so addr must carry a host its
// peers can reach: the empty default is loopback (single-machine), and a
// multi-machine deployment passes this machine's routable address.
// Unspecified hosts (":0", "0.0.0.0", "[::]") are rejected — they would
// bind fine here and then advertise an address nobody can dial.
func listenLocal(addr string, count int) ([]net.Listener, []string, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	if err := checkAdvertisable(addr); err != nil {
		return nil, nil, err
	}
	lns := make([]net.Listener, 0, count)
	addrs := make([]string, 0, count)
	for i := 0; i < count; i++ {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, fmt.Errorf("dist: bind data listener %d on %q: %w", i, addr, err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return lns, addrs, nil
}

// checkAdvertisable rejects listen addresses whose host no peer could
// dial back.
func checkAdvertisable(addr string) error {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return fmt.Errorf("dist: listen address %q: %w", addr, err)
	}
	if host == "" {
		return fmt.Errorf("dist: listen address %q has no host: peers dial the advertised address, so it must name this machine (e.g. 127.0.0.1:0 single-machine, or this host's routable address)", addr)
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsUnspecified() {
		return fmt.Errorf("dist: listen address %q binds the unspecified host %s: peers dial the advertised address, so it must name this machine (e.g. 127.0.0.1:0 single-machine, or this host's routable address)", addr, host)
	}
	return nil
}
