package gp

import (
	"math"
	"testing"

	"wayfinder/internal/rng"
)

// drawVec returns a dim-dimensional draw from r.
func drawVec(r *rng.RNG, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = r.Float64()
	}
	return x
}

// TestWindowedMatchesSuffixRefit: a windowed model sliding over a stream
// must agree with a from-scratch model trained on just the window's
// observations — the downdates are exact within rotation rounding.
func TestWindowedMatchesSuffixRefit(t *testing.T) {
	const dim, window, stream = 3, 16, 120
	r := rng.New(5)
	g := New(0.5, 1, 1e-3)
	if err := g.SetWindow(window); err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 0, stream)
	ys := make([]float64, 0, stream)
	probe := []float64{0.4, 0.6, 0.5}
	for i := 0; i < stream; i++ {
		x := drawVec(r, dim)
		y := math.Sin(3*x[0]) + x[1] - 0.5*x[2] + 0.01*r.Normal(0, 1)
		xs, ys = append(xs, x), append(ys, y)
		g.Add(x, y)
		if _, _, err := g.Predict(probe); err != nil {
			t.Fatalf("add %d: %v", i, err)
		}
		if g.Len() > window {
			t.Fatalf("add %d: Len = %d exceeds window %d after sync", i, g.Len(), window)
		}
	}
	if g.Len() != window {
		t.Fatalf("Len = %d, want %d", g.Len(), window)
	}
	ref := New(0.5, 1, 1e-3)
	for i := stream - window; i < stream; i++ {
		ref.Add(xs[i], ys[i])
	}
	for trial := 0; trial < 16; trial++ {
		x := drawVec(r, dim)
		m1, s1, err := g.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		m2, s2, err := ref.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(m1-m2) > 1e-6 || math.Abs(s1-s2) > 1e-6 {
			t.Fatalf("trial %d: windowed (%v,%v) vs suffix refit (%v,%v)", trial, m1, s1, m2, s2)
		}
	}
}

// TestSetWindowRetrofitsWarmModel: setting a window below the covered
// history drains the factor down to the bound on the next sync.
func TestSetWindowRetrofitsWarmModel(t *testing.T) {
	r := rng.New(6)
	g := New(0.5, 1, 1e-3)
	for i := 0; i < 40; i++ {
		g.Add(drawVec(r, 2), r.Float64())
	}
	if _, _, err := g.Predict([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWindow(8); err != nil {
		t.Fatal(err)
	}
	g.Add(drawVec(r, 2), r.Float64())
	if _, _, err := g.Predict([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 8 {
		t.Fatalf("Len = %d after retrofit sync, want 8", g.Len())
	}
}

// TestSetWindowGuards: a degenerate window and a mid-fantasy window
// change are explicit errors, not silent NaN factories.
func TestSetWindowGuards(t *testing.T) {
	g := New(0.5, 1, 1e-3)
	if err := g.SetWindow(1); err == nil {
		t.Fatal("window 1 accepted; a sub-2 window must be rejected")
	}
	if err := g.SetWindow(0); err != nil {
		t.Fatalf("window 0 (disable) rejected: %v", err)
	}
	r := rng.New(8)
	for i := 0; i < 5; i++ {
		g.Add(drawVec(r, 2), r.Float64())
	}
	if err := g.PushFantasy(drawVec(r, 2), 0.5); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWindow(4); err == nil {
		t.Fatal("SetWindow with active fantasy frames accepted")
	}
	g.PopAllFantasies()
	if err := g.SetWindow(4); err != nil {
		t.Fatalf("SetWindow after popping fantasies: %v", err)
	}
}

// TestFantasyAcrossWindow: fantasy frames push past the window bound
// without triggering downdates, and pop restores the posterior exactly —
// the constant-liar mechanism stays exact on a windowed model.
func TestFantasyAcrossWindow(t *testing.T) {
	const window = 8
	r := rng.New(9)
	g := New(0.5, 1, 1e-3)
	if err := g.SetWindow(window); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*window; i++ {
		g.Add(drawVec(r, 2), r.Float64())
	}
	probe := []float64{0.3, 0.7}
	m0, s0, err := g.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PushFantasy(drawVec(r, 2), 0.9); err != nil {
		t.Fatal(err)
	}
	if err := g.PushFantasy(drawVec(r, 2), 0.9); err != nil {
		t.Fatal(err)
	}
	if g.Len() != window+2 {
		t.Fatalf("Len = %d with two fantasies, want %d (fantasies must not downdate)", g.Len(), window+2)
	}
	g.PopFantasy()
	g.PopFantasy()
	m1, s1, err := g.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(m0) != math.Float64bits(m1) || math.Float64bits(s0) != math.Float64bits(s1) {
		t.Fatalf("pop across window did not restore the posterior: (%v,%v) vs (%v,%v)", m0, s0, m1, s1)
	}
}

// sparseVec returns a dim-dimensional vector shaped like a configuration
// encoding: mostly zeros, one-hot ones, and the odd normalized integer.
func sparseVec(r *rng.RNG, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		switch r.Intn(8) {
		case 0:
			x[i] = 1
		case 1:
			x[i] = r.Float64()
		}
	}
	return x
}

// TestEIBatchBitIdentical: the batched acquisition must equal the scalar
// loop bit-for-bit, on unbounded and windowed models alike, for pool
// sizes on both sides of the four-candidate kernel blocking and for the
// 397-wide sparse encodings the Linux space produces.
func TestEIBatchBitIdentical(t *testing.T) {
	for _, dim := range []int{3, 397} {
		vec := drawVec
		if dim > 3 {
			vec = sparseVec
		}
		for _, window := range []int{0, 12} {
			for _, m := range []int{1, 3, 96, 97} {
				r := rng.New(11)
				g := New(0.5, 1, 1e-3)
				if dim > 3 {
					g = New(3, 1, 1e-3)
				}
				if window > 0 {
					if err := g.SetWindow(window); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 48; i++ {
					g.Add(vec(r, dim), r.Float64())
				}
				cands := make([][]float64, m)
				for i := range cands {
					cands[i] = vec(r, dim)
				}
				batch := make([]float64, len(cands))
				if err := g.ExpectedImprovementBatch(cands, 0.8, 0.01, batch); err != nil {
					t.Fatal(err)
				}
				for i, c := range cands {
					want, err := g.ExpectedImprovement(c, 0.8, 0.01)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(batch[i]) != math.Float64bits(want) {
						t.Fatalf("dim %d window %d m %d cand %d: batch EI %v != scalar EI %v", dim, window, m, i, batch[i], want)
					}
				}
			}
		}
	}
}

// TestEIBatchNoAllocsSteadyState: one kernel-matrix build plus one batch
// solve, into caller storage — nothing allocated once scratch has grown.
func TestEIBatchNoAllocsSteadyState(t *testing.T) {
	r := rng.New(13)
	g := New(0.5, 1, 1e-3)
	for i := 0; i < 64; i++ {
		g.Add(drawVec(r, 3), r.Float64())
	}
	cands := make([][]float64, 96)
	for i := range cands {
		cands[i] = drawVec(r, 3)
	}
	out := make([]float64, len(cands))
	if err := g.ExpectedImprovementBatch(cands, 0.8, 0.01, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.ExpectedImprovementBatch(cands, 0.8, 0.01, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state batch EI allocates %.1f objects/op, want 0", allocs)
	}
}

// TestHyperAdaptDeterministicImprovement: the probe adopts new
// hyperparameters only on LML improvement, never worsens the evidence,
// and two identical streams adapt identically.
func TestHyperAdaptDeterministicImprovement(t *testing.T) {
	run := func() *GP {
		r := rng.New(17)
		// Deliberately mis-specified length scale so adaptation has
		// somewhere to go.
		g := New(0.05, 1, 1e-3)
		g.SetHyperAdapt(16)
		for i := 0; i < 64; i++ {
			x := drawVec(r, 2)
			g.Add(x, math.Sin(2*x[0])+x[1])
			if _, _, err := g.Predict([]float64{0.5, 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	g1, g2 := run(), run()
	if g1.LengthScale != g2.LengthScale || g1.SignalVar != g2.SignalVar {
		t.Fatalf("identical streams adapted differently: (%v,%v) vs (%v,%v)",
			g1.LengthScale, g1.SignalVar, g2.LengthScale, g2.SignalVar)
	}
	if g1.LengthScale == 0.05 && g1.SignalVar == 1 {
		t.Fatal("mis-specified hypers never adapted over 64 adds with a 16-add cadence")
	}
	// The adopted hypers must score at least as well as the construction
	// ones on the same data.
	adapted, err := g1.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	baseline := New(0.05, 1, 1e-3)
	for i := range g1.xs {
		baseline.Add(g1.xs[i], g1.ys[i])
	}
	base, err := baseline.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if adapted < base {
		t.Fatalf("adaptation worsened the evidence: %v < %v", adapted, base)
	}
}

// TestHyperAdaptAdoptedRowsMatchKernel: an adopted probe's kernel rows
// become the model's row cache, so they must be bit-for-bit the rows a
// fresh kernelRow build computes under the adopted hyperparameters.
func TestHyperAdaptAdoptedRowsMatchKernel(t *testing.T) {
	r := rng.New(17)
	g := New(0.05, 1, 1e-3)
	g.SetHyperAdapt(16)
	adoptions := 0
	for i := 0; i < 96; i++ {
		x := drawVec(r, 2)
		g.Add(x, math.Sin(2*x[0])+x[1])
		ls, sv := g.LengthScale, g.SignalVar
		if _, _, err := g.Predict([]float64{0.5, 0.5}); err != nil {
			t.Fatal(err)
		}
		if g.LengthScale == ls && g.SignalVar == sv {
			continue
		}
		adoptions++
		for a := range g.xs {
			for b := 0; b <= a; b++ {
				want := g.kernel(g.xs[a], g.xs[b])
				if math.Float64bits(g.kRows[a][b]) != math.Float64bits(want) {
					t.Fatalf("adoption at add %d: kRows[%d][%d] = %v, fresh kernel %v", i, a, b, g.kRows[a][b], want)
				}
			}
		}
	}
	if adoptions == 0 {
		t.Fatal("mis-specified hypers were never adopted; the row check never ran")
	}
}

// TestWindowedCheckpointBitIdentical: a windowed (and adapting) model
// restores bit-for-bit from its packed-factor checkpoint and evolves
// identically under further adds — downdates included.
func TestWindowedCheckpointBitIdentical(t *testing.T) {
	const dim, window = 4, 10
	r := rng.New(19)
	g := New(0.35, 1.0, 1e-3)
	if err := g.SetWindow(window); err != nil {
		t.Fatal(err)
	}
	g.SetHyperAdapt(8)
	for i := 0; i < 37; i++ {
		g.Add(drawVec(r, dim), r.Float64())
		if g.Len() >= 3 {
			if _, _, err := g.Predict(drawVec(r, dim)); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := g.State()
	if len(st.Chol) == 0 {
		t.Fatal("windowed checkpoint carries no packed factor")
	}
	g2 := New(0.35, 1.0, 1e-3)
	if err := g2.SetWindow(window); err != nil {
		t.Fatal(err)
	}
	g2.SetHyperAdapt(8)
	if err := g2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	probe := rng.New(23)
	for i := 0; i < 2*window; i++ {
		x := drawVec(probe, dim)
		m1, s1, err1 := g.Predict(x)
		m2, s2, err2 := g2.Predict(x)
		if err1 != nil || err2 != nil {
			t.Fatalf("predict %d: %v / %v", i, err1, err2)
		}
		if math.Float64bits(m1) != math.Float64bits(m2) || math.Float64bits(s1) != math.Float64bits(s2) {
			t.Fatalf("probe %d: restored windowed model diverged: (%v,%v) vs (%v,%v)", i, m1, s1, m2, s2)
		}
		y := probe.Float64()
		g.Add(x, y)
		g2.Add(x, y)
	}
	if g.fitted != g2.fitted || g.sinceRefit != g2.sinceRefit || g.sinceAdapt != g2.sinceAdapt ||
		g.LengthScale != g2.LengthScale || g.SignalVar != g2.SignalVar {
		t.Fatalf("windowed bookkeeping diverged: (%d,%d,%d,%g,%g) vs (%d,%d,%d,%g,%g)",
			g.fitted, g.sinceRefit, g.sinceAdapt, g.LengthScale, g.SignalVar,
			g2.fitted, g2.sinceRefit, g2.sinceAdapt, g2.LengthScale, g2.SignalVar)
	}
}
