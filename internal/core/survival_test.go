package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"tripoll/internal/graph"
	"tripoll/internal/serialize"
)

// survivalCase is one out-list under one plan, as the survival test sees
// it: the entries' timestamps, a WhereEdge answer per entry (nil without a
// predicate), an optional sliding window [lo, hi] and an optional δ.
type survivalCase struct {
	ts       []uint64
	pred     []bool
	window   bool
	lo, hi   uint64
	hasDelta bool
	delta    uint64
}

// cols lays the case out as a survey would: the snapshot's ts and gap
// columns (graph.NearestGaps) under a δ, a survey-built ok column under an
// edge filter.
func (sc survivalCase) cols() *planCols {
	n := len(sc.ts)
	c := &planCols{delta: noDelta, off: []int32{0, int32(n)}, parked: make([]uint64, (n+63)/64)}
	if sc.hasDelta {
		c.delta, c.ts, c.gap = sc.delta, sc.ts, make([]uint64, n)
		graph.NearestGaps(c.gap, sc.ts)
	}
	if sc.pred != nil || sc.window {
		c.ok = make([]bool, n)
		for k, t := range sc.ts {
			c.ok[k] = (sc.pred == nil || sc.pred[k]) && (!sc.window || (sc.lo <= t && t <= sc.hi))
		}
	}
	return c
}

// checkSurvival compares, for every entry of the case's out-list, the
// gap-first decision (planCols.dead, and cut, its O(1) part) with a scan of
// the batch's candidates written from the plan's definition, and the gap
// column with its definition.
func checkSurvival(t *testing.T, sc survivalCase) {
	t.Helper()
	if !sc.hasDelta && sc.pred == nil && !sc.window {
		return // an empty plan: the survey takes no columns
	}
	c := sc.cols()
	n := len(sc.ts)
	okAt := func(k int) bool { return c.ok == nil || c.ok[k] }
	for j := 0; j < n; j++ {
		wantGap := uint64(math.MaxUint64)
		var want []int32
		for k := j + 1; k < n; k++ {
			d := absDiff(sc.ts[k], sc.ts[j])
			wantGap = min(wantGap, d)
			if okAt(k) && (!sc.hasDelta || d <= sc.delta) {
				want = append(want, int32(k-j-1))
			}
		}
		if sc.hasDelta && c.gap[j] != wantGap {
			t.Fatalf("%+v: gap[%d] = %d, want %d", sc, j, c.gap[j], wantGap)
		}
		if j == n-1 {
			continue // the last entry heads no wedge batch
		}
		alive := okAt(j) && len(want) > 0
		if dead := c.dead(j, n); dead == alive {
			t.Fatalf("%+v: entry %d: dead = %v, the scan says alive = %v (survivors %v)", sc, j, dead, alive, want)
		}
		if c.cut(j) && alive {
			t.Fatalf("%+v: entry %d: cut a batch with survivors %v", sc, j, want)
		}
		if c.ok != nil {
			if scan := c.ok[j] && c.anyAlive(j, n); scan != alive {
				t.Fatalf("%+v: entry %d: anyAlive scan %v, want %v", sc, j, scan, alive)
			}
		}
		if got := c.survivors(nil, j, n); !slices.Equal(got, want) {
			t.Fatalf("%+v: entry %d: survivors %v, want %v", sc, j, got, want)
		}
		// The pulled intersection's candidate test is the same: every
		// survivor is a wedge check and every other candidate is pruned,
		// against a list that outlasts the suffix (the gallop loop) and an
		// empty one (the spent-list count).
		var ok []bool
		var ts []uint64
		var tq uint64
		if c.ok != nil {
			ok = c.ok[j+1 : n]
		}
		if c.ts != nil {
			ts, tq = c.ts[j+1:n], c.ts[j]
		}
		suffix := make([]graph.OutEdge[serialize.Unit, uint64], n-j-1)
		last := []pulledEntry[uint64]{{deg: math.MaxUint32}}
		for _, pulled := range [][]pulledEntry[uint64]{last, nil} {
			_, checks, pruned := intersectPulled(nil, suffix, pulled, ok, ts, tq, c.delta)
			if checks != uint64(len(want)) || pruned != uint64(len(suffix)-len(want)) {
				t.Fatalf("%+v: entry %d: pulled intersection counts %d checks, %d pruned; survivors %v of %d",
					sc, j, checks, pruned, want, len(suffix))
			}
		}
	}
}

// survivalStamp draws a timestamp that makes ties, duplicates, both ends
// of the range and differences that overflow an int64 likely.
func survivalStamp(rng *rand.Rand, pool []uint64) uint64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64 - uint64(rng.Intn(2))
	case 2:
		if len(pool) > 0 {
			return pool[rng.Intn(len(pool))] // a duplicate
		}
		return uint64(rng.Intn(4))
	case 3:
		return rng.Uint64()
	default:
		return uint64(rng.Intn(64))
	}
}

// TestSurvivalGapMatchesScanProperty: the O(1) survival test a snapshot's
// gap column gives (gap[j] > δ: no candidate of the batch at j is within δ
// of it) decides exactly what the scan of the batch's candidates decides,
// for every entry of random out-lists — tied, duplicate, 0 and MaxUint64
// timestamps; δ ∈ {0, 1, MaxUint64, random} and none; with and without a
// sliding window and a WhereEdge predicate.
func TestSurvivalGapMatchesScanProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 3000; iter++ {
		n := 1 + rng.Intn(24)
		sc := survivalCase{ts: make([]uint64, n)}
		for k := range sc.ts {
			sc.ts[k] = survivalStamp(rng, sc.ts[:k])
		}
		switch iter % 5 {
		case 0:
			sc.hasDelta, sc.delta = true, 0
		case 1:
			sc.hasDelta, sc.delta = true, 1
		case 2:
			sc.hasDelta, sc.delta = true, math.MaxUint64
		case 3:
			sc.hasDelta, sc.delta = true, []uint64{rng.Uint64(), uint64(rng.Intn(64))}[rng.Intn(2)]
		}
		if rng.Intn(2) == 0 {
			sc.pred = make([]bool, n)
			for k := range sc.pred {
				sc.pred[k] = rng.Intn(3) > 0
			}
		}
		if rng.Intn(2) == 0 {
			sc.window = true
			sc.lo, sc.hi = survivalStamp(rng, sc.ts), survivalStamp(rng, sc.ts)
			if sc.lo > sc.hi && rng.Intn(4) > 0 {
				sc.lo, sc.hi = sc.hi, sc.lo // mostly non-empty windows
			}
		}
		checkSurvival(t, sc)
	}
}

// FuzzSurvivalGap is the same equivalence over fuzzed out-lists. data[0]
// picks δ (0, 1, MaxUint64, the next 8 bytes, or none), whether a window
// (its bounds are data[9:11] scaled like a timestamp) and a predicate apply;
// each following 2-byte pair is one entry, whose timestamp is the pair's
// value scaled by 2⁴⁸ when data[0] says so, or MaxUint64 less the low byte
// when the high byte is 0xff, and whose predicate answer is the pair's low
// bit.
func FuzzSurvivalGap(f *testing.F) {
	f.Add([]byte{0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 1, 2, 1, 3})
	f.Add([]byte{0x1b, 5, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 10, 0xff, 0, 0xff, 1, 0, 0, 0, 0})
	f.Add([]byte{0x3f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0xff, 0xff, 0xff, 0, 0, 0x80, 0})
	f.Add([]byte{0x24, 3, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 0, 2, 0, 4, 0, 7, 0, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		if len(data) > 11+2*128 {
			data = data[:11+2*128]
		}
		flags := data[0]
		stamp := func(hi, lo byte) uint64 {
			if hi == 0xff {
				return math.MaxUint64 - uint64(lo)
			}
			v := uint64(hi)<<8 | uint64(lo)
			if flags&0x20 != 0 {
				v <<= 48
			}
			return v
		}
		sc := survivalCase{hasDelta: true}
		switch flags & 7 {
		case 0:
			sc.delta = 0
		case 1:
			sc.delta = 1
		case 2:
			sc.delta = math.MaxUint64
		case 3, 4, 5:
			sc.delta = binary.LittleEndian.Uint64(data[1:9])
		default:
			sc.hasDelta = false
		}
		sc.window = flags&0x08 != 0
		sc.lo, sc.hi = stamp(0, data[9]), stamp(data[10], 0)
		entries := data[11:]
		sc.ts = make([]uint64, len(entries)/2)
		if flags&0x10 != 0 {
			sc.pred = make([]bool, len(sc.ts))
		}
		for k := range sc.ts {
			sc.ts[k] = stamp(entries[2*k], entries[2*k+1])
			if sc.pred != nil {
				sc.pred[k] = entries[2*k+1]&1 == 0
			}
		}
		checkSurvival(t, sc)
	})
}
