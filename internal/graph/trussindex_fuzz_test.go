package graph

import (
	"bytes"
	"errors"
	"testing"

	"tripoll/internal/serialize"
)

// trussIndexSeedCorpus encodes a small real store so the fuzzer starts
// from well-formed input.
func trussIndexSeedCorpus() []byte {
	st := NewTriSpanStore()
	st.InsertEdge(1, 2, 10, nil)
	st.InsertEdge(2, 3, 20, nil)
	st.InsertEdge(1, 3, 30, nil)
	st.InsertEdge(3, 4, 500, nil)
	st.AddSupport(1, 2, 3, 10, 30, 1)
	st.AddSupport(1, 2, 3, 10, 30, 1)
	return st.EncodeSnapshot()
}

// FuzzTrussIndexSnapshot feeds arbitrary bytes through the TPTI1
// triangle-span index decoder, in the snapshot-fuzzer mould: corrupt
// input must produce an error wrapping ErrTriSpanCorrupt — never a panic
// or an allocation sized by an attacker-chosen count — and input that
// does decode must re-encode to bytes that decode and re-encode to the
// same bytes. Runs the seed corpus under plain `go test`; fuzz with
// `go test -fuzz FuzzTrussIndexSnapshot ./internal/graph`.
func FuzzTrussIndexSnapshot(f *testing.F) {
	f.Add(trussIndexSeedCorpus())
	f.Add([]byte{})
	f.Add([]byte("TPTI1"))
	// A huge claimed edge count in a tiny buffer.
	var e serialize.Encoder
	e.PutString("TPTI1")
	e.PutUvarint(1 << 60)
	f.Add(e.Bytes())
	// One edge claiming a huge bucket count.
	e.Reset()
	e.PutString("TPTI1")
	e.PutUvarint(1)
	e.PutUvarint(1)       // u
	e.PutUvarint(2)       // v
	e.PutUvarint(7)       // ts
	e.PutUvarint(1 << 40) // buckets
	f.Add(e.Bytes())
	// A bucket whose lo+width overflows uint64.
	e.Reset()
	e.PutString("TPTI1")
	e.PutUvarint(1)
	e.PutUvarint(1)
	e.PutUvarint(2)
	e.PutUvarint(7)
	e.PutUvarint(1)
	e.PutUvarint(^uint64(0)) // lo
	e.PutUvarint(5)          // width: overflows
	e.PutUvarint(1)
	f.Add(e.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeTriSpanSnapshot(data)
		if err != nil {
			if !errors.Is(err, ErrTriSpanCorrupt) {
				t.Fatalf("decode error does not wrap ErrTriSpanCorrupt: %v", err)
			}
			return
		}
		// The bytes decoded: decode(encode(st)) must re-encode to the same
		// bytes. (Byte-identity with the input is not required — uvarint
		// accepts non-minimal encodings the canonical re-encode normalizes.)
		enc := st.EncodeSnapshot()
		st2, err := DecodeTriSpanSnapshot(enc)
		if err != nil {
			t.Fatalf("decode of re-encoded snapshot: %v", err)
		}
		if !bytes.Equal(st2.EncodeSnapshot(), enc) {
			t.Fatalf("snapshot round trip diverged")
		}
	})
}

// TestTriSpanStoreSemantics pins the store's maintenance semantics the
// index relies on: merge-on-duplicate, bucket removal at zero, exact
// expiry by envelope Lo, and δ/window filtering in SupportIn.
func TestTriSpanStoreSemantics(t *testing.T) {
	st := NewTriSpanStore()
	st.InsertEdge(5, 4, 100, nil) // canonicalized to {4, 5}
	if ts, ok := st.Timestamp(4, 5); !ok || ts != 100 {
		t.Fatalf("insert not canonical: %v %v", ts, ok)
	}
	min := func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	st.InsertEdge(4, 5, 50, min)
	if ts, _ := st.Timestamp(4, 5); ts != 50 {
		t.Fatalf("duplicate must merge: got %d", ts)
	}
	st.InsertEdge(4, 5, 200, nil)
	if ts, _ := st.Timestamp(4, 5); ts != 50 {
		t.Fatalf("nil merge must keep stored: got %d", ts)
	}

	st.AddSupport(1, 2, 3, 10, 40, 1)
	st.AddSupport(1, 2, 3, 10, 40, 1)
	st.AddSupport(1, 2, 3, 20, 25, 1)
	if got := st.SupportIn(1, 2, 0, 100, false, 0); got != 3 {
		t.Fatalf("SupportIn whole: got %d, want 3", got)
	}
	if got := st.SupportIn(1, 2, 0, 100, true, 10); got != 1 {
		t.Fatalf("SupportIn δ=10 must keep only the [20,25] bucket: got %d", got)
	}
	if got := st.SupportIn(1, 2, 15, 100, false, 0); got != 1 {
		t.Fatalf("SupportIn from=15 must drop Lo=10 buckets: got %d", got)
	}
	st.AddSupport(1, 2, 3, 10, 40, -2)
	if got := st.SupportIn(1, 2, 0, 100, false, 0); got != 1 {
		t.Fatalf("negative delta must remove the bucket: got %d", got)
	}
	// Each AddSupport touches the triangle's three edges; the [20, 25]
	// bucket survives on all of them.
	st.AddSupport(7, 8, 9, 5, 6, -1)
	if st.NumBuckets() != 3 {
		t.Fatalf("negative delta on absent bucket must not create one: %d buckets", st.NumBuckets())
	}

	st.InsertEdge(1, 2, 12, nil)
	st.InsertEdge(1, 3, 30, nil)
	edges, buckets := st.ExpireBefore(25)
	if edges != 1 {
		t.Fatalf("expire must drop the ts=12 edge: dropped %d", edges)
	}
	if buckets != 3 {
		t.Fatalf("expire must drop the Lo=20 bucket on all three edges: dropped %d", buckets)
	}
	if st.NumBuckets() != 0 {
		t.Fatalf("store must have no buckets left: %d", st.NumBuckets())
	}
}
