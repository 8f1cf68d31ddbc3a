package core

import (
	"fmt"

	"tripoll/internal/ygm"
)

// TemporalWindowAnalysis counts triangles whose three edge timestamps fall
// within a window of delta (t_max − t_min ≤ delta) — δ-temporal triangle
// counting in the sense of the temporal-motif literature the paper cites
// ([40]). Edge metadata must be timestamps.
//
// For a survey whose *only* question is one δ-window, prefer a plan with
// CloseWithin(delta): it prunes the communication, not just the callback.
// This analysis exists for fusion — many δ thresholds (see
// TemporalSweepAnalysis) or a window alongside unrelated analyses, where
// the traversal must enumerate everything anyway.
func TemporalWindowAnalysis[VM any](delta uint64) Analysis[VM, uint64, uint64] {
	return Analysis[VM, uint64, uint64]{
		Name: fmt.Sprintf("window[δ=%d]", delta),
		Observe: func(_ *ygm.Rank, acc uint64, t *Triangle[VM, uint64]) uint64 {
			t1, _, t3 := sort3(t.MetaPQ, t.MetaPR, t.MetaQR)
			if t3-t1 <= delta {
				acc++
			}
			return acc
		},
		Merge: func(a, b uint64) uint64 { return a + b },
	}
}

// TemporalSweepAnalysis evaluates every δ threshold against every triangle
// in one pass: the accumulator is one within-window counter per delta,
// indexed like deltas (which need not be sorted).
func TemporalSweepAnalysis[VM any](deltas []uint64) Analysis[VM, uint64, []uint64] {
	return Analysis[VM, uint64, []uint64]{
		Name:     fmt.Sprintf("sweep[%d deltas]", len(deltas)),
		NewAccum: func() []uint64 { return make([]uint64, len(deltas)) },
		Observe: func(_ *ygm.Rank, acc []uint64, t *Triangle[VM, uint64]) []uint64 {
			t1, _, t3 := sort3(t.MetaPQ, t.MetaPR, t.MetaQR)
			spread := t3 - t1
			for i, d := range deltas {
				if spread <= d {
					acc[i]++
				}
			}
			return acc
		},
		Merge: func(a, b []uint64) []uint64 {
			for i := range a {
				a[i] += b[i]
			}
			return a
		},
	}
}
