package gp

import (
	"math"
	"testing"

	"wayfinder/internal/rng"
	"wayfinder/internal/stats"
)

func TestPredictNoData(t *testing.T) {
	g := New(1, 1, 0.01)
	if _, _, err := g.Predict([]float64{0}); err != ErrNoData {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestInterpolatesObservations(t *testing.T) {
	g := New(0.5, 1, 1e-6)
	xs := [][]float64{{0}, {0.5}, {1}}
	ys := []float64{1, 3, 2}
	for i := range xs {
		g.Add(xs[i], ys[i])
	}
	for i := range xs {
		mean, std, err := g.Predict(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mean-ys[i]) > 0.01 {
			t.Fatalf("mean at training point %v = %v, want %v", xs[i], mean, ys[i])
		}
		if std > 0.05 {
			t.Fatalf("std at training point = %v, want ~0", std)
		}
	}
}

func TestUncertaintyGrowsAwayFromData(t *testing.T) {
	g := New(0.3, 1, 1e-4)
	g.Add([]float64{0}, 0)
	g.Add([]float64{0.2}, 0.1)
	_, stdNear, err := g.Predict([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	_, stdFar, err := g.Predict([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if stdFar <= stdNear {
		t.Fatalf("stdFar=%v should exceed stdNear=%v", stdFar, stdNear)
	}
	// Far from data the posterior reverts to the prior std.
	if math.Abs(stdFar-1) > 0.05 {
		t.Fatalf("far std = %v, want ~prior 1", stdFar)
	}
}

func TestPosteriorMeanRevertsToDataMean(t *testing.T) {
	g := New(0.1, 1, 1e-4)
	g.Add([]float64{0}, 10)
	g.Add([]float64{0.1}, 12)
	mean, _, err := g.Predict([]float64{100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-11) > 0.1 {
		t.Fatalf("far-field mean = %v, want data mean 11", mean)
	}
}

func TestLearnsSmoothFunction(t *testing.T) {
	g := New(0.4, 1, 1e-3)
	r := rng.New(1)
	f := func(x float64) float64 { return math.Sin(3 * x) }
	for i := 0; i < 30; i++ {
		x := r.Float64() * 2
		g.Add([]float64{x}, f(x))
	}
	maxErr := 0.0
	for x := 0.1; x < 1.9; x += 0.1 {
		mean, _, err := g.Predict([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(mean - f(x)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 0.15 {
		t.Fatalf("max interpolation error = %v", maxErr)
	}
}

func TestExpectedImprovement(t *testing.T) {
	g := New(0.5, 1, 1e-4)
	g.Add([]float64{0}, 0)
	g.Add([]float64{1}, 1)
	// EI at the incumbent should be near zero; EI in unexplored territory
	// should be positive.
	eiKnown, err := g.ExpectedImprovement([]float64{1}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	eiNew, err := g.ExpectedImprovement([]float64{2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eiNew <= eiKnown {
		t.Fatalf("EI(new)=%v should exceed EI(incumbent)=%v", eiNew, eiKnown)
	}
	if eiKnown < 0 || eiNew < 0 {
		t.Fatal("EI must be non-negative")
	}
}

func TestEIFindsMaximumOf1DFunction(t *testing.T) {
	// Bayesian-optimize f(x) = -(x-0.7)² and check convergence near 0.7.
	g := New(0.2, 1, 1e-4)
	f := func(x float64) float64 { return -(x - 0.7) * (x - 0.7) }
	r := rng.New(2)
	g.Add([]float64{0}, f(0))
	g.Add([]float64{1}, f(1))
	best, bestX := math.Inf(-1), 0.0
	for _, y := range []float64{f(0), f(1)} {
		if y > best {
			best = y
		}
	}
	for iter := 0; iter < 20; iter++ {
		// Candidate grid + jitter.
		bestEI, bestCand := -1.0, 0.0
		for i := 0; i < 50; i++ {
			x := r.Float64()
			ei, err := g.ExpectedImprovement([]float64{x}, best, 0.001)
			if err != nil {
				t.Fatal(err)
			}
			if ei > bestEI {
				bestEI, bestCand = ei, x
			}
		}
		y := f(bestCand)
		g.Add([]float64{bestCand}, y)
		if y > best {
			best, bestX = y, bestCand
		}
	}
	if math.Abs(bestX-0.7) > 0.05 {
		t.Fatalf("BO converged to %v, want ~0.7", bestX)
	}
}

func TestLogMarginalLikelihoodPrefersGoodFit(t *testing.T) {
	r := rng.New(3)
	xs := make([][]float64, 20)
	ys := make([]float64, 20)
	for i := range xs {
		x := r.Float64() * 2
		xs[i] = []float64{x}
		ys[i] = math.Sin(3 * x)
	}
	good := New(0.4, 1, 1e-2)
	bad := New(1e-3, 1, 1e-2) // absurdly short length scale
	for i := range xs {
		good.Add(xs[i], ys[i])
		bad.Add(xs[i], ys[i])
	}
	llGood, err := good.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	llBad, err := bad.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if llGood <= llBad {
		t.Fatalf("good model LL %v should beat degenerate %v", llGood, llBad)
	}
}

func TestRefitOnAdd(t *testing.T) {
	g := New(0.5, 1, 1e-4)
	g.Add([]float64{0}, 0)
	m1, _, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	g.Add([]float64{0.5}, 5)
	m2, _, err := g.Predict([]float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2-5) > 0.1 {
		t.Fatalf("model did not refit after Add: %v -> %v", m1, m2)
	}
}

func TestDuplicatePointsNumericallyStable(t *testing.T) {
	g := New(0.5, 1, 1e-8)
	for i := 0; i < 5; i++ {
		g.Add([]float64{0.3}, 1.0)
	}
	mean, _, err := g.Predict([]float64{0.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean-1) > 0.01 {
		t.Fatalf("duplicate-point prediction = %v", mean)
	}
}

// BenchmarkGPRefit demonstrates the O(n³) refit cost that limits Bayesian
// optimization on large histories (the paper's scalability argument) —
// kernel evaluations included, so the factor and the kernel-row cache are
// both invalidated each iteration.
func BenchmarkGPRefit(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		b.Run(map[int]string{50: "n50", 100: "n100", 200: "n200"}[n], func(b *testing.B) {
			r := rng.New(1)
			g := New(0.5, 1, 1e-3)
			for i := 0; i < n; i++ {
				g.Add([]float64{r.Float64(), r.Float64()}, r.Float64())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.kRows = g.kRows[:0]
				g.fitted = 0
				if err := g.refit(); err != nil {
					b.Fatal(err)
				}
				if _, _, err := g.Predict([]float64{0.5, 0.5}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// refitGP is the refit oracle: a GP that refactorizes its whole history
// from scratch on every Add — the reference the incremental layer must
// numerically match. Its Add shadows GP.Add, so no test can extend the
// oracle's factor incrementally by mistake.
type refitGP struct{ *GP }

// Add appends an observation and refactorizes through refit.
func (r refitGP) Add(t *testing.T, x []float64, y float64) {
	t.Helper()
	r.GP.Add(x, y)
	if err := r.refit(); err != nil {
		t.Fatalf("refit oracle: %v", err)
	}
}

// newPair returns two GPs with identical hyperparameters: one incremental
// (the default) and the refit oracle.
func newPair(lengthScale, signalVar, noiseVar float64) (inc *GP, ref refitGP) {
	return New(lengthScale, signalVar, noiseVar), refitGP{New(lengthScale, signalVar, noiseVar)}
}

// closeTo is the acceptance tolerance: within 1e-9, absolute-plus-relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// TestIncrementalMatchesRefit is the core property of the incremental
// surrogate layer: across randomized add sequences — long enough to cross
// the periodic-refactorization interval several times — the incremental
// predictions must match from-scratch-refit predictions within 1e-9 at
// every step.
func TestIncrementalMatchesRefit(t *testing.T) {
	for _, tc := range []struct {
		name           string
		dim            int
		noise          float64
		adds           int
		duplicateEvery int // re-add an earlier point every k adds (0 = never)
	}{
		{"d2-clean", 2, 1e-3, 150, 0},
		{"d4-clean", 4, 1e-3, 90, 0},
		{"d3-tiny-noise-duplicates", 3, 1e-8, 80, 7},
		{"d1-dense", 1, 1e-4, 120, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(42)
			inc, ref := newPair(0.5, 1, tc.noise)
			probes := make([][]float64, 8)
			for i := range probes {
				probes[i] = make([]float64, tc.dim)
				for d := range probes[i] {
					probes[i][d] = r.Float64() * 2
				}
			}
			var history [][]float64
			for step := 0; step < tc.adds; step++ {
				var x []float64
				if tc.duplicateEvery > 0 && step > 0 && step%tc.duplicateEvery == 0 {
					x = history[r.Intn(len(history))]
				} else {
					x = make([]float64, tc.dim)
					for d := range x {
						x[d] = r.Float64() * 2
					}
				}
				history = append(history, x)
				y := math.Sin(3*x[0]) + 0.1*r.Normal(0, 1)
				inc.Add(x, y)
				ref.Add(t, x, y)
				for _, p := range probes {
					mi, si, err := inc.Predict(p)
					if err != nil {
						t.Fatalf("step %d: incremental predict: %v", step, err)
					}
					mr, sr, err := ref.Predict(p)
					if err != nil {
						t.Fatalf("step %d: refit predict: %v", step, err)
					}
					if !closeTo(mi, mr) || !closeTo(si, sr) {
						t.Fatalf("step %d: incremental (%.15g, %.15g) vs refit (%.15g, %.15g)",
							step, mi, si, mr, sr)
					}
				}
			}
		})
	}
}

// TestIncrementalAddCost pins the incremental layer's cost on the model's
// own bookkeeping, not on host time: over a 192-add stream (dim 6) an
// unwindowed model refactorizes (O(n³)) only when the fullRefitEvery
// hygiene cadence falls due. Every other add is an in-place O(n²)
// extension of the factor that caches exactly one new kernel row and
// recomputes none of the cached ones.
func TestIncrementalAddCost(t *testing.T) {
	const dim, stream = 6, 192
	r := rng.New(1)
	g := New(0.5, 1, 1e-3)
	probe := drawVec(r, dim)
	refits := 0
	var row0 *float64
	for n := 1; n <= stream; n++ {
		prev := g.sinceRefit
		g.Add(drawVec(r, dim), r.Float64())
		if _, _, err := g.Predict(probe); err != nil {
			t.Fatalf("add %d: %v", n, err)
		}
		if g.fitted != n || g.chol.Len() != n || len(g.kRows) != n || len(g.kRows[n-1]) != n {
			t.Fatalf("add %d: fitted %d, factor %d, kernel rows %d (last of length %d); want %d each",
				n, g.fitted, g.chol.Len(), len(g.kRows), len(g.kRows[len(g.kRows)-1]), n)
		}
		if row0 == nil {
			row0 = &g.kRows[0][0]
		} else if &g.kRows[0][0] != row0 {
			t.Fatalf("add %d: the cached kernel rows were recomputed", n)
		}
		if prev == fullRefitEvery {
			if g.sinceRefit != 0 {
				t.Fatalf("add %d: a refactorization was due after %d extensions, got sinceRefit %d", n, prev, g.sinceRefit)
			}
			refits++
		} else if g.sinceRefit != prev+1 {
			t.Fatalf("add %d: want an in-place extension (sinceRefit %d → %d), got sinceRefit %d", n, prev, prev+1, g.sinceRefit)
		}
	}
	if want := stream / (fullRefitEvery + 1); refits != want {
		t.Fatalf("%d refactorizations over %d adds, want %d", refits, stream, want)
	}
}

// TestIncrementalJitterRescue drives both paths through the numerical
// rescue: with zero observation noise, a second observation at an
// effectively identical location makes the kernel matrix exactly singular
// (the kernel of two points 1e-12 apart rounds to σ_f² in float64), so
// the incremental extension fails its pivot, falls back to a full
// refactorization, and both models converge on the same persistent
// jitter. Predictions must keep matching within 1e-9 afterwards.
func TestIncrementalJitterRescue(t *testing.T) {
	inc, ref := newPair(0.5, 1, 0)
	base := []float64{0.3, 0.8}
	twin := []float64{0.3 + 1e-12, 0.8}
	inc.Add(base, 1)
	ref.Add(t, base, 1)
	inc.Add(twin, 1.2)
	ref.Add(t, twin, 1.2)
	probe := []float64{0.5, 0.5}
	mi, si, err := inc.Predict(probe)
	if err != nil {
		t.Fatalf("incremental rescue failed: %v", err)
	}
	mr, sr, err := ref.Predict(probe)
	if err != nil {
		t.Fatalf("refit rescue failed: %v", err)
	}
	if inc.jitter == 0 || ref.jitter == 0 {
		t.Fatalf("jitter not engaged: incremental %v, refit %v", inc.jitter, ref.jitter)
	}
	if !closeTo(mi, mr) || !closeTo(si, sr) {
		t.Fatalf("post-rescue predictions diverged: (%v, %v) vs (%v, %v)", mi, si, mr, sr)
	}
	// The rescued models keep absorbing ordinary points consistently.
	r := rng.New(7)
	for i := 0; i < 40; i++ {
		x := []float64{r.Float64(), r.Float64()}
		y := r.Float64()
		inc.Add(x, y)
		ref.Add(t, x, y)
		mi, si, err := inc.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		mr, sr, err := ref.Predict(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !closeTo(mi, mr) || !closeTo(si, sr) {
			t.Fatalf("add %d after rescue: (%v, %v) vs (%v, %v)", i, mi, si, mr, sr)
		}
	}
}

// TestFantasyPushPop pins the copy-on-write frame contract: pushes change
// predictions, pops restore the pre-push posterior exactly (bit-for-bit,
// not within tolerance — the factor truncates, nothing is recomputed).
func TestFantasyPushPop(t *testing.T) {
	g := New(0.5, 1, 1e-3)
	r := rng.New(3)
	for i := 0; i < 20; i++ {
		g.Add([]float64{r.Float64(), r.Float64()}, r.Float64())
	}
	probe := []float64{0.4, 0.6}
	m0, s0, err := g.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.PushFantasy([]float64{0.4, 0.6}, 5); err != nil {
		t.Fatal(err)
	}
	if err := g.PushFantasy([]float64{0.41, 0.61}, 5); err != nil {
		t.Fatal(err)
	}
	if g.Len() != 22 || g.Fantasies() != 2 {
		t.Fatalf("Len/Fantasies = %d/%d, want 22/2", g.Len(), g.Fantasies())
	}
	m2, s2, err := g.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m2-m0) < 0.5 {
		t.Fatalf("fantasized observation at y=5 barely moved the posterior mean: %v -> %v", m0, m2)
	}
	if s2 >= s0 {
		t.Fatalf("fantasy at the probe should shrink posterior std: %v -> %v", s0, s2)
	}
	g.PopFantasy()
	g.PopFantasy()
	if g.Len() != 20 || g.Fantasies() != 0 {
		t.Fatalf("Len/Fantasies = %d/%d after pops, want 20/0", g.Len(), g.Fantasies())
	}
	m1, s1, err := g.Predict(probe)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m0 || s1 != s0 {
		t.Fatalf("pop did not restore the posterior exactly: (%v, %v) vs (%v, %v)", m1, s1, m0, s0)
	}
	// A real observation during active fantasies pops them first.
	if err := g.PushFantasy([]float64{0.1, 0.1}, 3); err != nil {
		t.Fatal(err)
	}
	g.Add([]float64{0.2, 0.2}, 1)
	if g.Fantasies() != 0 || g.Len() != 21 {
		t.Fatalf("Add left fantasies active: Fantasies=%d Len=%d", g.Fantasies(), g.Len())
	}
}

// TestFantasyOnDuplicatePointClamps exercises the clamped extension: a
// fantasy exactly on an existing training point with zero noise cannot
// fail (it must stay pop-free), it just inflates the pivot.
func TestFantasyOnDuplicatePointClamps(t *testing.T) {
	g := New(0.5, 1, 0)
	g.Add([]float64{0.3}, 1)
	g.Add([]float64{0.9}, 2)
	g.Add([]float64{0.5}, 1.5)
	if _, _, err := g.Predict([]float64{0.4}); err != nil {
		t.Fatal(err)
	}
	m0, s0, _ := g.Predict([]float64{0.7})
	if err := g.PushFantasy([]float64{0.3}, 1); err != nil {
		t.Fatalf("duplicate-point fantasy must clamp, not fail: %v", err)
	}
	if _, _, err := g.Predict([]float64{0.7}); err != nil {
		t.Fatal(err)
	}
	g.PopFantasy()
	m1, s1, _ := g.Predict([]float64{0.7})
	if m1 != m0 || s1 != s0 {
		t.Fatal("pop after clamped fantasy did not restore the posterior")
	}
}

// TestPredictNoAllocsSteadyState is the satellite guarantee behind the
// candidate-scoring hot path: once the model is synced, Predict (and so
// ExpectedImprovement) performs zero allocations.
func TestPredictNoAllocsSteadyState(t *testing.T) {
	g := New(0.5, 1, 1e-3)
	r := rng.New(9)
	for i := 0; i < 64; i++ {
		g.Add([]float64{r.Float64(), r.Float64(), r.Float64()}, r.Float64())
	}
	probe := []float64{0.5, 0.5, 0.5}
	if _, _, err := g.Predict(probe); err != nil { // sync
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := g.Predict(probe); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Predict allocates %.1f objects/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		if _, err := g.ExpectedImprovement(probe, 1, 0.01); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ExpectedImprovement allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkGPAddIncrementalInternal measures the package-level session
// cost directly (the repo-level bench_test.go carries the headline
// BenchmarkGPAddIncremental).
func BenchmarkGPAddIncrementalInternal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := New(0.5, 1, 1e-3)
		r := rng.New(1)
		probe := []float64{0.5, 0.5}
		for j := 0; j < 128; j++ {
			g.Add([]float64{r.Float64(), r.Float64()}, r.Float64())
			if _, _, err := g.Predict(probe); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestPairDistancesMatchScalar pins the hyperparameter probe's packed
// pair distances to the scalar SquaredDistance(x_i, x_j) of every pair,
// bit for bit, for history lengths around the packing block, with signed
// zeros, subnormals, infinities and a value whose square overflows in the
// coordinates. The packed pass subtracts x_i from x_j where the scalar
// call subtracts x_j from x_i; the squares agree in every bit unless both
// coordinates are NaN with different payloads, and encodings hold no NaN,
// so NaN is left out here.
func TestPairDistancesMatchScalar(t *testing.T) {
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), 1e154, -3}
	r := rng.New(8)
	for _, n := range []int{1, 3, 5, 16, 17, 33, 40} {
		for _, dim := range []int{1, 6, 397} {
			g := New(0.5, 1, 1e-3)
			for i := 0; i < n; i++ {
				x := make([]float64, dim)
				for d := range x {
					if r.Intn(6) == 0 {
						x[d] = specials[r.Intn(len(specials))]
					} else {
						x[d] = r.Normal(0, 1)
					}
				}
				g.Add(x, r.Float64())
			}
			got := g.pairDistances()
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					want := stats.SquaredDistance(g.xs[i], g.xs[j])
					if v := got[i*(i+1)/2+j]; math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("n=%d dim=%d pair (%d,%d): %v (%#x), scalar %v (%#x)",
							n, dim, i, j, v, math.Float64bits(v), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}
