package gp

import (
	"math"
	"testing"

	"wayfinder/internal/rng"
)

// TestCheckpointBitIdentical: a restored model must predict bit-for-bit
// like the original, including mid-incremental factor states (extensions
// stacked on a refactorization base) and across the periodic-refit
// boundary.
func TestCheckpointBitIdentical(t *testing.T) {
	r := rng.New(3)
	dim := 6
	draw := func() []float64 {
		x := make([]float64, dim)
		for i := range x {
			x[i] = r.Float64()
		}
		return x
	}
	for _, n := range []int{1, 3, 17, fullRefitEvery + 5} {
		g := New(0.35, 1.0, 1e-3)
		for i := 0; i < n; i++ {
			g.Add(draw(), r.Float64())
			// Interleave predictions so the factor extends incrementally,
			// like a live session's Propose calls force.
			if g.Len() >= 3 {
				if _, _, err := g.Predict(draw()); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := g.State()
		g2 := New(0.35, 1.0, 1e-3)
		if err := g2.RestoreState(st); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Same queries, bit-identical answers — and identical evolution
		// under further adds.
		probe := rng.New(77)
		for i := 0; i < 8; i++ {
			x := make([]float64, dim)
			for j := range x {
				x[j] = probe.Float64()
			}
			m1, s1, err1 := g.Predict(x)
			m2, s2, err2 := g2.Predict(x)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("n=%d: error mismatch %v vs %v", n, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(s1) != math.Float64bits(s2) {
				t.Fatalf("n=%d probe %d: prediction diverged: (%v,%v) vs (%v,%v)", n, i, m1, s1, m2, s2)
			}
			y := probe.Float64()
			g.Add(x, y)
			g2.Add(x, y)
		}
		if g.fitted != g2.fitted || g.sinceRefit != g2.sinceRefit || g.jitter != g2.jitter {
			t.Fatalf("n=%d: factor bookkeeping diverged: (%d,%d,%g) vs (%d,%d,%g)",
				n, g.fitted, g.sinceRefit, g.jitter, g2.fitted, g2.sinceRefit, g2.jitter)
		}
	}
}

// TestCheckpointRejectsCorruptState: malformed factor bookkeeping fails
// loudly instead of rebuilding something subtly different.
func TestCheckpointRejectsCorruptState(t *testing.T) {
	g := New(0.35, 1.0, 1e-3)
	bad := []*State{
		{Xs: [][]float64{{1}}, Ys: []float64{1, 2}},                        // length mismatch
		{Xs: [][]float64{{1}}, Ys: []float64{1}, Fitted: 2},                // fitted > n
		{Xs: [][]float64{{1}}, Ys: []float64{1}, Fitted: 1, SinceRefit: 2}, // sinceRefit > fitted
		{Xs: [][]float64{{1}}, Ys: []float64{1}, Fitted: -1},               // negative
		{Xs: [][]float64{{1, 2}, {1}}, Ys: []float64{1, 2}},                // ragged rows
	}
	for i, st := range bad {
		if err := g.RestoreState(st); err == nil {
			t.Fatalf("corrupt state %d accepted", i)
		}
	}
}
