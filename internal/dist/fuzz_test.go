package dist

import (
	"bytes"
	"encoding/gob"
	"errors"
	"net"
	"testing"
	"time"

	"tripoll/internal/serialize"
	"tripoll/internal/ygm"
)

// frameBytes encodes one control message exactly the way a connection's
// first send does (join, assign): a self-contained gob stream — descriptors,
// then the value — behind a 4-byte length prefix.
func frameBytes(t testing.TB, m *ctrlMsg) []byte {
	t.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m); err != nil {
		t.Fatalf("encode %v frame: %v", m.Kind, err)
	}
	var frame bytes.Buffer
	if err := serialize.WriteFrame(&frame, payload.Bytes()); err != nil {
		t.Fatalf("frame %v: %v", m.Kind, err)
	}
	return frame.Bytes()
}

// FuzzCtrlFrame feeds arbitrary bytes through the control-plane receive
// path (length-prefixed frame, then gob into ctrlMsg) — the exact code a
// coordinator or worker runs on bytes that crossed a network. Damage must
// surface as an error, never a panic or an oversized allocation. Seeds
// cover the v2 mutation frames (kStream/kIngest/kAdvance/kMutDone) so the
// fuzzer starts from structurally valid protocol traffic.
func FuzzCtrlFrame(f *testing.F) {
	seeds := []*ctrlMsg{
		{Kind: kJoin, Magic: joinMagic, Version: protoVersion},
		{Kind: kStream, Graph: "g", Policy: "temporal"},
		{Kind: kIngest, Graph: "g", Epoch: 3, Batch: []byte{2, 0, 1, 7, 1, 2, 9}},
		{Kind: kAdvance, Graph: "g", Epoch: 4, Cutoff: 12},
		{Kind: kMutDone, Epoch: 4, Applied: 2},
		{Kind: kMutDone, Epoch: 5, Err: "apply failed"},
	}
	for _, m := range seeds {
		f.Add(frameBytes(f, m))
	}
	// Truncations and raw damage.
	whole := frameBytes(f, seeds[2])
	f.Add(whole[:len(whole)-3])
	f.Add(whole[:2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB declared length
	f.Add([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'})

	f.Fuzz(func(t *testing.T, data []byte) {
		// A hello frame: fresh decoder.
		if payload, err := serialize.ReadFrame(bytes.NewReader(data), maxCtrlFrame); err == nil {
			var m ctrlMsg
			_ = gob.NewDecoder(bytes.NewReader(payload)).Decode(&m)
		}
		// The same bytes mid-stream, on a connection whose long-lived decoder
		// has already taken a frame: whatever recv makes of them, it is a
		// frame or an error, and damage closes the connection.
		a, b := net.Pipe()
		defer a.Close()
		cc := newCtrlConn(b)
		go func() {
			first := newCtrlConn(a)
			first.send(&ctrlMsg{Kind: kSync})
			a.Write(data)
			a.Close()
		}()
		if m, err := cc.expect(kSync); err != nil {
			t.Fatalf("first frame: %v (%+v)", err, m)
		}
		for {
			if _, err := cc.recv(); err != nil {
				var perr *ProtocolError
				if errors.As(err, &perr) {
					if _, werr := b.Write([]byte{0}); werr == nil {
						t.Fatal("connection still open after an undecodable frame")
					}
				}
				return
			}
		}
	})
}

// linkPair returns both ends of an established control connection over
// loopback TCP, each having sent and received a frame (so both long-lived
// codecs are past their descriptors).
func linkPair(t *testing.T) (a, b *ctrlConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed := make(chan net.Conn, 1)
	go func() {
		c, _ := net.Dial("tcp", ln.Addr().String())
		dialed <- c
	}()
	cb, err := ln.Accept()
	ca := <-dialed
	if err != nil || ca == nil {
		t.Fatalf("loopback pair: %v", err)
	}
	a, b = newCtrlConn(ca), newCtrlConn(cb)
	t.Cleanup(func() { a.close(); b.close() })
	deadline := time.Now().Add(10 * time.Second)
	a.setDeadline(deadline)
	b.setDeadline(deadline)
	for _, p := range [][2]*ctrlConn{{a, b}, {b, a}} {
		for i := 0; i < 2; i++ {
			if err := p[0].send(&ctrlMsg{Kind: kQuiesce, Sent: int64(i)}); err != nil {
				t.Fatal(err)
			}
			if m, err := p[1].expect(kQuiesce); err != nil || m.Sent != int64(i) {
				t.Fatalf("warm-up frame %d: %+v, %v", i, m, err)
			}
		}
	}
	return a, b
}

// TestGarbageMidStreamClosesLink: bytes that are no frame, arriving on an
// established link, surface as the typed ProtocolError on the side that
// read them, and the connection is closed on both sides within the
// deadline — the reader closes it (its gob stream is lost), the writer's
// next read finds it gone. Never a hang, never a panic.
func TestGarbageMidStreamClosesLink(t *testing.T) {
	junk := map[string][]byte{
		"undecodable payload":     {0, 0, 0, 6, 'g', 'a', 'r', 'b', 'l', 'e'},
		"oversized length prefix": {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		"trailing bytes":          nil, // a valid frame with bytes after its gob value; built below
	}
	for name, raw := range junk {
		t.Run(name, func(t *testing.T) {
			a, b := linkPair(t)
			if raw == nil {
				// Encode on the live stream so the payload decodes, then pad.
				a.wbuf.Reset()
				if err := a.enc.Encode(&ctrlMsg{Kind: kSync}); err != nil {
					t.Fatal(err)
				}
				var frame bytes.Buffer
				serialize.WriteFrame(&frame, append(a.wbuf.Bytes(), 0xAA, 0xBB))
				raw = frame.Bytes()
			}
			if _, err := a.c.Write(raw); err != nil {
				t.Fatal(err)
			}
			_, err := b.recv()
			var perr *ProtocolError
			if !errors.As(err, &perr) || perr.Cause == nil {
				t.Fatalf("recv of garbage = %v, want a ProtocolError with a cause", err)
			}
			if _, err := b.recv(); err == nil {
				t.Error("reader's connection still readable after the protocol error")
			}
			if m, err := a.recv(); err == nil {
				t.Errorf("writer's side still open: read %+v", m)
			} else if errors.As(err, &perr) {
				t.Errorf("writer's side reports a protocol error (%v), want a closed connection", err)
			}
		})
	}
}

// TestGarbageOnWorkerLinkFailsServe: the same through the production
// loops. Garbage on the coordinator→worker link ends the worker's Serve
// with the typed error; the driver's next collective finds the link closed
// and fails its region instead of hanging.
func TestGarbageOnWorkerLinkFailsServe(t *testing.T) {
	cl, wks := startCluster(t, 2, 1, tcpOpts())
	defer cl.Close()
	served := make(chan error, 1)
	go func() { served <- Serve(wks[0], Hooks[U, uint64]{}, nil) }()
	if _, err := cl.workers[0].c.Write([]byte{0, 0, 0, 4, 'j', 'u', 'n', 'k'}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		var perr *ProtocolError
		if !errors.As(err, &perr) {
			t.Fatalf("Serve = %v, want a ProtocolError", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker still serving 10s after garbage on its link")
	}
	failed := make(chan any, 1)
	go func() {
		defer func() { failed <- recover() }()
		cl.World().Parallel(func(r *ygm.Rank) { ygm.Rendezvous(r) })
	}()
	select {
	case p := <-failed:
		if p == nil {
			t.Error("driver's rendezvous succeeded with the worker's link closed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("driver hung on a closed link")
	}
	wks[0].Close()
}

// TestCtrlFrameRoundTrip pins the wire form of the v2 mutation frames:
// every field a mutation broadcast depends on must survive the
// encode/frame/decode cycle bit-exactly.
func TestCtrlFrameRoundTrip(t *testing.T) {
	msgs := []*ctrlMsg{
		{Kind: kStream, Graph: "reddit", Policy: "temporal"},
		{Kind: kIngest, Graph: "reddit", Epoch: 17, Batch: []byte{3, 1, 2, 5, 2, 3, 6, 3, 4, 7}},
		{Kind: kAdvance, Graph: "reddit", Epoch: 18, Cutoff: 99},
		{Kind: kMutDone, Epoch: 18, Applied: 12},
		{Kind: kMutDone, Epoch: 19, Err: "dist: worker 1: apply: boom"},
	}
	for _, want := range msgs {
		payload, err := serialize.ReadFrame(bytes.NewReader(frameBytes(t, want)), maxCtrlFrame)
		if err != nil {
			t.Fatalf("%v: read frame: %v", want.Kind, err)
		}
		var got ctrlMsg
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&got); err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if got.Kind != want.Kind || got.Graph != want.Graph || got.Policy != want.Policy ||
			got.Epoch != want.Epoch || got.Cutoff != want.Cutoff ||
			got.Applied != want.Applied || got.Err != want.Err ||
			!bytes.Equal(got.Batch, want.Batch) {
			t.Errorf("%v: round trip mismatch:\n  want %+v\n  got  %+v", want.Kind, want, got)
		}
	}
}
