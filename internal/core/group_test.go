package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tripoll/internal/ygm"
)

// The group contract of Analysis (see its doc), checked directly on the
// stock invertible analyses rather than through a stream: per-rank
// accumulators under Observe, Unobserve and Merge form a group, and
// Finalize prunes the cancelled residue, so observing a multiset on some
// ranks and unobserving a sub-multiset on others publishes exactly what
// observing the difference publishes.

// placedTri is a triangle and the rank that observes (or unobserves) it.
type placedTri struct {
	t    Triangle[uint64, uint64]
	rank int
}

// randomTriangle draws a triangle over few vertices, labels and
// timestamps, so vertex counts, label maxima and closure cells collide.
func randomTriangle(rng *rand.Rand) Triangle[uint64, uint64] {
	p := rng.Uint64() % 6
	q := p + 1 + rng.Uint64()%5
	r := q + 1 + rng.Uint64()%5
	lab := func() uint64 { return rng.Uint64() % 3 }
	ts := func() uint64 { return rng.Uint64() % 40 }
	return Triangle[uint64, uint64]{P: p, Q: q, R: r, MetaP: lab(), MetaQ: lab(), MetaR: lab(), MetaPQ: ts(), MetaPR: ts(), MetaQR: ts()}
}

// represent returns t in another vertex order (metadata permuted in step),
// as a full traversal's <+ order presents what a stream presents by id.
func represent(t Triangle[uint64, uint64], rng *rand.Rand) Triangle[uint64, uint64] {
	for range rng.Intn(3) {
		// Rotate (P, Q, R) → (Q, R, P): edge PQ becomes QR's slot and so on.
		t = Triangle[uint64, uint64]{P: t.Q, Q: t.R, R: t.P, MetaP: t.MetaQ, MetaQ: t.MetaR, MetaR: t.MetaP,
			MetaPQ: t.MetaQR, MetaPR: t.MetaPQ, MetaQR: t.MetaPR}
	}
	if rng.Intn(2) == 0 { // swap P and Q: PR and QR trade places
		t.P, t.Q, t.MetaP, t.MetaQ = t.Q, t.P, t.MetaQ, t.MetaP
		t.MetaPR, t.MetaQR = t.MetaQR, t.MetaPR
	}
	return t
}

// groupRun binds a, observes obs and then unobserves unobs on their ranks,
// and publishes the reduced, finalized result.
func groupRun[T any](w *ygm.World, a Analysis[uint64, uint64, T], obs, unobs []placedTri) T {
	var out T
	b := a.Bind(&out)
	b.start(w.Size())
	w.Parallel(func(r *ygm.Rank) {
		for i := range obs {
			if obs[i].rank == r.ID() {
				b.observe(r, &obs[i].t)
			}
		}
		for i := range unobs {
			if unobs[i].rank == r.ID() {
				b.unobserve(r, &unobs[i].t)
			}
		}
	})
	publish(w, []Attached[uint64, uint64]{b})
	return out
}

func checkGroupContract[T any](t *testing.T, a Analysis[uint64, uint64, T], nranks int, seed int64) {
	t.Helper()
	w := ygm.MustWorld(nranks, ygm.Options{})
	defer w.Close()
	rng := rand.New(rand.NewSource(seed))
	pool := make([]Triangle[uint64, uint64], 12)
	for i := range pool {
		pool[i] = randomTriangle(rng)
	}
	var obs, unobs, diff []placedTri
	for range 40 + rng.Intn(40) {
		p := placedTri{t: pool[rng.Intn(len(pool))], rank: rng.Intn(nranks)}
		obs = append(obs, p)
		if rng.Intn(2) == 0 {
			diff = append(diff, placedTri{t: p.t, rank: rng.Intn(nranks)})
			continue
		}
		other := p.rank
		if nranks > 1 {
			other = (p.rank + 1 + rng.Intn(nranks-1)) % nranks
		}
		unobs = append(unobs, placedTri{t: represent(p.t, rng), rank: other})
	}
	rng.Shuffle(len(unobs), func(i, j int) { unobs[i], unobs[j] = unobs[j], unobs[i] })
	got := groupRun(w, a, obs, unobs)
	want := groupRun(w, a, diff, nil)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%d observed, %d unobserved elsewhere: %+v; observing the %d left: %+v",
			len(obs), len(unobs), got, len(diff), want)
	}
}

// checkCloneDeep: mutating a clone leaves the original as it was.
func checkCloneDeep[T any](t *testing.T, a Analysis[uint64, uint64, T], seed int64) {
	t.Helper()
	w := ygm.MustWorld(1, ygm.Options{})
	defer w.Close()
	rng := rand.New(rand.NewSource(seed))
	tris := make([]Triangle[uint64, uint64], 20)
	for i := range tris {
		tris[i] = randomTriangle(rng)
	}
	w.Parallel(func(r *ygm.Rank) {
		var orig, twin T
		if a.NewAccum != nil {
			orig, twin = a.NewAccum(), a.NewAccum()
		}
		for i := range tris {
			orig = a.Observe(r, orig, &tris[i])
			twin = a.Observe(r, twin, &tris[i])
		}
		c := a.Clone(orig)
		for i := range tris {
			c = a.Unobserve(r, c, &tris[i])
			extra := randomTriangle(rng)
			c = a.Observe(r, c, &extra)
		}
		if !reflect.DeepEqual(orig, twin) {
			t.Errorf("mutating a clone changed the original: %+v, want %+v", orig, twin)
		}
	})
}

func TestGroupContractProperty(t *testing.T) {
	for _, nranks := range []int{1, 3, 4} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%dranks/seed%d", nranks, seed), func(t *testing.T) {
				checkGroupContract(t, CountAnalysis[uint64, uint64](), nranks, seed)
				checkGroupContract(t, VertexCountAnalysis[uint64, uint64](), nranks, seed)
				checkGroupContract(t, ClosureTimeAnalysis[uint64](), nranks, seed)
				checkGroupContract(t, MaxEdgeLabelAnalysis[uint64](false), nranks, seed)
				checkGroupContract(t, MaxEdgeLabelAnalysis[uint64](true), nranks, seed)
			})
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		checkCloneDeep(t, VertexCountAnalysis[uint64, uint64](), seed)
		checkCloneDeep(t, ClosureTimeAnalysis[uint64](), seed)
		checkCloneDeep(t, MaxEdgeLabelAnalysis[uint64](false), seed)
	}
	// A stream refuses a reference-typed accumulator it cannot clone: its
	// snapshots would reduce into the live accumulators.
	noClone := VertexCountAnalysis[uint64, uint64]()
	noClone.Clone = nil
	var out map[uint64]uint64
	if err := noClone.Bind(&out).validate(2, true); err == nil {
		t.Error("a stream accepted NewAccum without Clone")
	}
	if err := noClone.Bind(&out).validate(2, false); err != nil {
		t.Errorf("Run refused an analysis without Clone: %v", err)
	}
}
