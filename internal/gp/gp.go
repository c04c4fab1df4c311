// Package gp implements Gaussian-process regression with an RBF kernel and
// the Expected Improvement acquisition function — the Bayesian-optimization
// baseline the paper compares DeepTune against (§2.3, §4.4).
//
// The asymptotics are the ones the paper models: Gaussian processes
// "typically have a computational complexity of O(n³), and O(n²) for
// memory", which is why Bayesian optimization is only competitive on small
// spaces like Unikraft's (Fig 9). What this implementation avoids is being
// gratuitously *worse* than that bound. The model is maintained
// incrementally:
//
//   - Adding an observation extends the packed Cholesky factor in place
//     (stats.TriFactor.Extend): one O(n²) forward solve instead of the
//     O(n³) from-scratch refactorization a naive implementation pays per
//     Add — which would make a T-observation session Θ(T⁴) instead of the
//     Θ(T³) the paper's Fig 8 decision-cost accounting assumes.
//   - Kernel rows are computed once per observation and cached, so the
//     periodic full refactorization (every fullRefitEvery incremental
//     extensions, for numerical hygiene) redoes only the O(n³) arithmetic,
//     not the O(n²·d) kernel evaluations.
//   - Predict and ExpectedImprovement reuse scratch buffers; the
//     steady-state candidate-scoring path allocates nothing.
//     ExpectedImprovementBatch packs the candidate pool once into a
//     dim-major scratch the GP owns (stats.PackColumns), builds its kernel
//     matrix one window row at a time against every candidate
//     (stats.SquaredDistanceCols, one candidate per SIMD lane on AVX2),
//     and solves it with one k-blocked batch forward solve, each
//     bit-identical to the scalar path: blocking and SIMD lanes change
//     which independent sums run side by side, never the order of the
//     operations within one, and no multiply is fused into an add.
//   - The hyperparameter probe computes the window's pairwise distances
//     once per round, and an adopted probe's kernel rows become the row
//     cache, so adaptation evaluates no distance twice.
//   - A copy-on-write "fantasy frame" (PushFantasy/PopFantasy) adds a
//     speculative observation in O(n²) and removes it for free — the
//     mechanism that makes constant-liar batch proposal affordable.
//
// Jitter policy: when a factorization (full or incremental) fails, a
// diagonal jitter of 1e-6·σ_f² is added and retained for the rest of the
// model's life, so the incremental factor and a from-scratch refit stay
// numerically interchangeable after the rescue.
package gp

import (
	"errors"
	"fmt"
	"math"

	"wayfinder/internal/stats"
)

// fullRefitEvery bounds how many incremental extensions may stack before a
// full refactorization re-anchors the factor (numerical hygiene: forward-
// solve rounding accumulates linearly in the number of extensions).
const fullRefitEvery = 64

// GP is a Gaussian-process regressor over fixed-length feature vectors.
type GP struct {
	// LengthScale is the RBF kernel length scale ℓ.
	LengthScale float64
	// SignalVar is the kernel signal variance σ_f².
	SignalVar float64
	// NoiseVar is the observation noise σ_n² added to the diagonal.
	NoiseVar float64

	xs    [][]float64
	ys    []float64
	yMean float64

	// kRows caches the raw kernel rows: kRows[i][j] = k(xᵢ, xⱼ) for j ≤ i,
	// noise- and jitter-free so refactorizations can re-derive the
	// effective diagonal under a changed jitter.
	kRows [][]float64

	chol   *stats.TriFactor // packed Cholesky factor of K + (σ_n²+jitter) I
	alpha  []float64        // (K+σ_n²I)⁻¹ (y − mean)
	fitted int              // observations the factor currently covers
	// sinceRefit counts incremental extensions since the last full
	// refactorization; at fullRefitEvery the next sync refactorizes.
	sinceRefit int
	// jitter is the persistent numerical-rescue diagonal (0 until a
	// factorization fails, 1e-6·σ_f² afterwards).
	jitter float64
	// forceRefit disables the incremental path entirely — every sync is a
	// from-scratch refactorization. The before/after baseline for the
	// searcherscale experiment and the BenchmarkGPAddRefit benchmark.
	forceRefit bool

	// window, when positive, bounds the observation history: once the
	// factor covers more than window rows, each sync downdates the oldest
	// one away (stats.TriFactor.Downdate, O(n²)), so memory and per-add
	// cost stay constant over an unbounded observation stream.
	window int
	// hyperEvery, when positive, grid-probes a small (LengthScale,
	// SignalVar) neighborhood every hyperEvery adds and refits on log-
	// marginal-likelihood improvement — deterministic online adaptation.
	hyperEvery int
	// sinceAdapt counts adds since the last hyperparameter probe.
	sinceAdapt int

	// frames is the stack of active fantasized observations.
	frames []fantasyFrame

	// Reusable scratch (Predict/solve paths are allocation-free once the
	// buffers have grown to the model size).
	kStar, v, centered []float64
	// kStarB, vB are the batch-acquisition scratch matrices (n×m row-major)
	// and candT the candidate pool packed by stats.PackColumns (dim-major
	// panels of four candidates), regrown on demand like the scalar
	// scratch.
	kStarB, vB, candT []float64
}

// fantasyFrame is the copy-on-write state one PushFantasy saves: the
// pre-push alpha (the solve writes a fresh slice while frames are active,
// so the saved one stays valid) and the pre-push target mean.
type fantasyFrame struct {
	alpha []float64
	yMean float64
}

// New returns a GP with the given hyperparameters.
func New(lengthScale, signalVar, noiseVar float64) *GP {
	return &GP{LengthScale: lengthScale, SignalVar: signalVar, NoiseVar: noiseVar, chol: &stats.TriFactor{}}
}

// SetForceRefit toggles full-refactorization mode: when on, every model
// update rebuilds the factor from scratch — the Θ(T⁴)-per-session behavior
// the incremental layer replaces, kept as the measurable baseline.
func (g *GP) SetForceRefit(on bool) { g.forceRefit = on }

// SetWindow bounds the observation history to the latest n observations
// (0 disables the bound). A window below 2 would make the posterior
// degenerate — Predict needs at least a pair to say anything — so it is
// rejected, as is changing the window while fantasy frames are active
// (the frames' pop bookkeeping assumes a stable history boundary).
func (g *GP) SetWindow(n int) error {
	if len(g.frames) > 0 {
		return errors.New("gp: SetWindow with active fantasy frames")
	}
	if n != 0 && n < 2 {
		return fmt.Errorf("gp: window %d is below the 2-observation minimum (0 disables)", n)
	}
	g.window = n
	return nil
}

// Window returns the sliding-window bound (0 = unbounded).
func (g *GP) Window() int { return g.window }

// SetHyperAdapt enables online hyperparameter adaptation: every `every`
// adds, a small (LengthScale, SignalVar) neighborhood is grid-probed via
// the log marginal likelihood and adopted only on improvement. 0 disables.
func (g *GP) SetHyperAdapt(every int) { g.hyperEvery = every }

// Len returns the number of observations (fantasized ones included while
// their frames are active).
func (g *GP) Len() int { return len(g.xs) }

// Fantasies returns the number of active fantasized observations.
func (g *GP) Fantasies() int { return len(g.frames) }

// Add appends an observation. The model is updated lazily on the next
// prediction — an O(n²) incremental factor extension (see the package
// comment). Any active fantasy frames are popped first: a real
// observation invalidates speculation.
func (g *GP) Add(x []float64, y float64) {
	g.PopAllFantasies()
	g.xs = append(g.xs, append([]float64(nil), x...))
	g.ys = append(g.ys, y)
	g.sinceAdapt++
}

func (g *GP) kernel(a, b []float64) float64 {
	return g.kernelD2(stats.SquaredDistance(a, b))
}

// kernelD2 is the RBF kernel as a function of the squared distance — the
// one expression every kernel value in the model comes from, whether its
// distance was computed one pair or four candidates at a time.
func (g *GP) kernelD2(d2 float64) float64 { return rbf(g.LengthScale, g.SignalVar, d2) }

// rbf is σ_f²·exp(−d²/(2ℓ²)) under explicit hyperparameters, so the
// hyperparameter probe's rows are the values the adopted kernel computes.
func rbf(ls, sv, d2 float64) float64 { return sv * math.Exp(-d2/(2*ls*ls)) }

// kernelRow returns (computing and caching on first use) the kernel row of
// observation i against observations 0..i.
func (g *GP) kernelRow(i int) []float64 {
	for len(g.kRows) <= i {
		n := len(g.kRows)
		row := make([]float64, n+1)
		for j := 0; j <= n; j++ {
			row[j] = g.kernel(g.xs[n], g.xs[j])
		}
		g.kRows = append(g.kRows, row)
	}
	return g.kRows[i]
}

// ErrNoData is returned when predicting from an empty model.
var ErrNoData = errors.New("gp: no observations")

// sync brings the factor and weights up to date with the observation list
// (incremental extensions, window downdates, refactorizations — see
// syncFactor), then runs the periodic hyperparameter probe.
func (g *GP) sync() error {
	n := len(g.xs)
	if n == 0 {
		return ErrNoData
	}
	if g.chol != nil && g.chol.Len() == n && g.fitted == n {
		return nil
	}
	if g.chol == nil {
		g.chol = &stats.TriFactor{}
	}
	if err := g.syncFactor(); err != nil {
		return err
	}
	return g.adaptHypers()
}

// syncFactor brings the factor and weights up to date with the
// observation list: incremental extensions for the common one-observation
// delta, a full refactorization when forced, overdue for hygiene, or
// rescued after a failed extension. With a window set, each extension
// past the bound is followed by a downdate of the oldest row, so the
// factor slides over the stream at constant size.
func (g *GP) syncFactor() error {
	if g.forceRefit || g.chol.Len() != g.fitted || g.sinceRefit+(len(g.xs)-g.fitted) > fullRefitEvery {
		return g.refit()
	}
	for g.fitted < len(g.xs) {
		i := g.fitted
		row := g.kernelRow(i)
		if err := g.chol.Extend(row[:i], row[i]+g.NoiseVar+g.jitter); err != nil {
			// Numerical rescue: refactorize from scratch (adding jitter if
			// this model has not needed it before).
			return g.refit()
		}
		g.fitted++
		g.sinceRefit++
		// A loop, not an if: a window set below the already-covered history
		// (SetWindow on a warm model) must drain down to the bound, not
		// shrink by a net zero per add.
		for g.window > 0 && len(g.frames) == 0 && g.fitted > g.window {
			if err := g.dropOldest(); err != nil {
				return err
			}
		}
	}
	return g.refreshWeights()
}

// dropOldest slides the window forward by one: downdate the factor's
// first row (O(n²)), shift the observation history, and count the
// rotation sweep toward the refit-hygiene cadence (its rounding
// accumulates exactly like an extension's).
func (g *GP) dropOldest() error {
	if err := g.chol.Downdate(); err != nil {
		return err
	}
	g.shiftHistory(1)
	g.fitted--
	g.sinceRefit++
	return nil
}

// shiftHistory drops the oldest `drop` observations from xs/ys and
// re-anchors the kernel-row cache: kernel values are pure functions of
// point pairs, so surviving rows reslice instead of recompute.
func (g *GP) shiftHistory(drop int) {
	n := len(g.xs)
	copy(g.xs, g.xs[drop:])
	for i := n - drop; i < n; i++ {
		g.xs[i] = nil
	}
	g.xs = g.xs[:n-drop]
	copy(g.ys, g.ys[drop:])
	g.ys = g.ys[:n-drop]
	if len(g.kRows) > drop {
		kept := len(g.kRows) - drop
		for i := 0; i < kept; i++ {
			g.kRows[i] = g.kRows[i+drop][drop : i+drop+1]
		}
		for i := kept; i < len(g.kRows); i++ {
			g.kRows[i] = nil
		}
		g.kRows = g.kRows[:kept]
	} else {
		for i := range g.kRows {
			g.kRows[i] = nil
		}
		g.kRows = g.kRows[:0]
	}
}

// refit rebuilds the factor from the cached kernel rows — O(n³) arithmetic
// but no kernel evaluations — escalating to the persistent jitter on the
// first failure. With a window set the history is trimmed to the bound
// first, so the refactorization is O(window³) regardless of stream length.
func (g *GP) refit() error {
	if g.window > 0 && len(g.frames) == 0 && len(g.xs) > g.window {
		g.shiftHistory(len(g.xs) - g.window)
	}
	n := len(g.xs)
	g.kernelRow(n - 1) // ensure rows 0..n-1 are cached
	err := g.chol.FactorFromRows(g.kRows[:n], g.NoiseVar+g.jitter)
	if err != nil && g.jitter == 0 { //wfvet:ignore floateq jitter is only ever assigned exactly 0 or the escalated constant
		g.jitter = 1e-6 * g.SignalVar
		err = g.chol.FactorFromRows(g.kRows[:n], g.NoiseVar+g.jitter)
	}
	if err != nil {
		g.fitted = 0
		return err
	}
	g.fitted, g.sinceRefit = n, 0
	return g.refreshWeights()
}

// hyperProbeFactors is the deterministic (LengthScale, SignalVar)
// neighborhood adaptHypers scans: one step down and up per axis.
var hyperProbeFactors = [4][2]float64{{0.8, 1}, {1.25, 1}, {1, 0.8}, {1, 1.25}}

// adaptHypers is the online hyperparameter probe: every hyperEvery adds,
// score the current hypers and four neighbors by log marginal likelihood
// and adopt the best only on strict improvement, refitting the factor
// under the adopted kernel. Purely a function of the observation history
// — no wall-clock, no randomness — so sessions stay byte-reproducible.
func (g *GP) adaptHypers() error {
	if g.hyperEvery <= 0 || g.sinceAdapt < g.hyperEvery || len(g.frames) > 0 {
		return nil
	}
	g.sinceAdapt = 0
	bestLL := g.lmlFromFactor()
	bestLS, bestSV := g.LengthScale, g.SignalVar
	var bestRows [][]float64
	d2 := g.pairDistances()
	for _, f := range hyperProbeFactors {
		ls, sv := g.LengthScale*f[0], g.SignalVar*f[1]
		ll, rows, err := g.probeLML(ls, sv, d2)
		if err != nil {
			continue // a probe that fails to factor is just not adopted
		}
		if ll > bestLL+1e-9 {
			bestLL, bestLS, bestSV, bestRows = ll, ls, sv, rows
		}
	}
	if bestRows == nil {
		return nil
	}
	// The adopted probe's rows are exactly the kernel rows the new
	// hyperparameters define: install them instead of recomputing.
	g.LengthScale, g.SignalVar = bestLS, bestSV
	g.kRows = bestRows
	return g.refit()
}

// pairDistances returns the squared distances between every pair of
// observations, packed lower-triangular (pair (i, j ≤ i) at i(i+1)/2 + j)
// — computed once per probe round and shared by every probe.
func (g *GP) pairDistances() []float64 {
	n := len(g.xs)
	d2 := make([]float64, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d2[i*(i+1)/2+j] = stats.SquaredDistance(g.xs[i], g.xs[j])
		}
	}
	return d2
}

// lmlFromFactor computes the log marginal likelihood from the current
// factor and weights without re-syncing (the caller just did).
func (g *GP) lmlFromFactor() float64 {
	n := len(g.xs)
	ll := 0.0
	for i := 0; i < n; i++ {
		ll -= math.Log(g.chol.At(i, i))
	}
	for i := 0; i < n; i++ {
		ll -= 0.5 * (g.ys[i] - g.yMean) * g.alpha[i]
	}
	ll -= 0.5 * float64(n) * math.Log(2*math.Pi)
	return ll
}

// probeLML evaluates the log marginal likelihood the model would have
// under candidate hyperparameters, from the packed pair distances d2, on
// scratch storage — the live factor, caches, and weights are untouched.
// It returns the probe's kernel rows too, so an adopted probe's rows can
// become the model's cache.
func (g *GP) probeLML(ls, sv float64, d2 []float64) (float64, [][]float64, error) {
	n := len(g.xs)
	k := make([]float64, len(d2))
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		lo, hi := i*(i+1)/2, (i+1)*(i+2)/2
		rows[i] = k[lo:hi:hi]
		for j, d := range d2[lo:hi] {
			rows[i][j] = rbf(ls, sv, d)
		}
	}
	var tf stats.TriFactor
	if err := tf.FactorFromRows(rows, g.NoiseVar+g.jitter); err != nil {
		return 0, nil, err
	}
	mean := stats.Mean(g.ys)
	centered := make([]float64, n)
	for i, y := range g.ys {
		centered[i] = y - mean
	}
	alpha := make([]float64, n)
	tf.Solve(centered, alpha)
	ll := 0.0
	for i := 0; i < n; i++ {
		ll -= math.Log(tf.At(i, i))
	}
	for i := 0; i < n; i++ {
		ll -= 0.5 * centered[i] * alpha[i]
	}
	ll -= 0.5 * float64(n) * math.Log(2*math.Pi)
	return ll, rows, nil
}

// refreshWeights recomputes the target mean and alpha = (K+σ²I)⁻¹(y−mean)
// from the current factor — two O(n²) triangular solves.
func (g *GP) refreshWeights() error {
	n := len(g.xs)
	g.yMean = stats.Mean(g.ys)
	g.centered = resize(g.centered, n)
	for i, y := range g.ys {
		g.centered[i] = y - g.yMean
	}
	// While fantasy frames are active the saved alphas must survive, so
	// the solve writes a fresh slice; otherwise the buffer is reused.
	if len(g.frames) > 0 || cap(g.alpha) < n {
		g.alpha = make([]float64, n)
	}
	g.alpha = g.alpha[:n]
	g.chol.Solve(g.centered, g.alpha)
	return nil
}

// resize returns buf with length n, reallocating only on growth.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// PushFantasy appends a speculative observation — the constant-liar
// mechanism batch proposal uses to make later slots condition on earlier
// picks. The factor is extended in place in O(n²); popping restores the
// exact pre-push state. A non-positive pivot is clamped rather than
// rescued by refactorization (a rebuild would make the pop inexact), so
// the push always succeeds once the model itself is syncable.
func (g *GP) PushFantasy(x []float64, y float64) error {
	if err := g.sync(); err != nil {
		return err
	}
	i := len(g.xs)
	g.xs = append(g.xs, append([]float64(nil), x...))
	g.ys = append(g.ys, y)
	row := g.kernelRow(i)
	g.chol.ExtendClamped(row[:i], row[i]+g.NoiseVar+g.jitter, g.NoiseVar+1e-6*g.SignalVar)
	g.fitted++
	g.frames = append(g.frames, fantasyFrame{alpha: g.alpha, yMean: g.yMean})
	return g.refreshWeights()
}

// PopFantasy removes the most recent fantasized observation in O(1): the
// factor truncates (extensions never rewrite earlier rows) and the saved
// weights are restored.
func (g *GP) PopFantasy() {
	if len(g.frames) == 0 {
		return
	}
	f := g.frames[len(g.frames)-1]
	g.frames = g.frames[:len(g.frames)-1]
	n := len(g.xs) - 1
	g.xs = g.xs[:n]
	g.ys = g.ys[:n]
	g.kRows = g.kRows[:n]
	g.chol.Truncate(n)
	g.fitted = n
	g.alpha, g.yMean = f.alpha, f.yMean
}

// PopAllFantasies unwinds every active fantasy frame.
func (g *GP) PopAllFantasies() {
	for len(g.frames) > 0 {
		g.PopFantasy()
	}
}

// Predict returns the posterior mean and standard deviation at x. The
// steady-state path (model already synced) performs no allocations.
func (g *GP) Predict(x []float64) (mean, std float64, err error) {
	if err := g.sync(); err != nil {
		return 0, 0, err
	}
	n := len(g.xs)
	g.kStar = resize(g.kStar, n)
	for i := range g.xs {
		g.kStar[i] = g.kernel(x, g.xs[i])
	}
	mean = g.yMean
	for i, k := range g.kStar {
		mean += k * g.alpha[i]
	}
	// Variance: k(x,x) − k*ᵀ (K+σ²I)⁻¹ k*, via v = L⁻¹ k*.
	g.v = resize(g.v, n)
	g.chol.ForwardSolve(g.kStar, g.v)
	variance := g.kernel(x, x)
	for _, vi := range g.v {
		variance -= vi * vi
	}
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance), nil
}

// ExpectedImprovement returns EI(x) for maximization over the incumbent
// best observed value, with exploration jitter xi.
func (g *GP) ExpectedImprovement(x []float64, best, xi float64) (float64, error) {
	mean, std, err := g.Predict(x)
	if err != nil {
		return 0, err
	}
	return eiFromMoments(mean, std, best, xi), nil
}

// eiFromMoments computes EI from posterior moments — the one formula both
// the scalar and batch acquisition paths share, so their results are the
// same floating-point operations, not merely close.
func eiFromMoments(mean, std, best, xi float64) float64 {
	if std < 1e-12 {
		if mean > best+xi {
			return mean - best - xi
		}
		return 0
	}
	z := (mean - best - xi) / std
	return (mean-best-xi)*stdNormCDF(z) + std*stdNormPDF(z)
}

// ExpectedImprovementBatch scores a whole candidate pool with one kernel-
// matrix build and one triangular batch solve, writing EI(cands[j]) to
// out[j]. Column j of the batch solve performs bit-for-bit the scalar
// ForwardSolve of candidate j, and the moment and EI arithmetic is shared
// with the scalar path, so out[j] equals ExpectedImprovement(cands[j])
// exactly. Steady state (scratch grown, model synced) allocates nothing.
func (g *GP) ExpectedImprovementBatch(cands [][]float64, best, xi float64, out []float64) error {
	m := len(cands)
	if m == 0 {
		return nil
	}
	if len(out) < m {
		return fmt.Errorf("gp: batch EI output has %d slots for %d candidates", len(out), m)
	}
	if err := g.sync(); err != nil {
		return err
	}
	n := len(g.xs)
	g.candT = stats.PackColumns(g.candT, cands, len(g.xs[0]))
	g.kStarB = resize(g.kStarB, n*m)
	for i, xp := range g.xs {
		row := g.kStarB[i*m : i*m+m]
		stats.SquaredDistanceCols(xp, g.candT, m, row)
		for j, d2 := range row {
			row[j] = g.kernelD2(d2)
		}
	}
	g.vB = resize(g.vB, n*m)
	g.chol.ForwardSolveBatch(g.kStarB, g.vB, m)
	for j, c := range cands {
		mean := g.yMean
		for i := 0; i < n; i++ {
			mean += g.kStarB[i*m+j] * g.alpha[i]
		}
		variance := g.kernel(c, c)
		for i := 0; i < n; i++ {
			vi := g.vB[i*m+j]
			variance -= vi * vi
		}
		if variance < 0 {
			variance = 0
		}
		out[j] = eiFromMoments(mean, math.Sqrt(variance), best, xi)
	}
	return nil
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-0.5*z*z) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// LogMarginalLikelihood returns the log evidence of the fitted model, used
// by tests and by hyperparameter selection.
func (g *GP) LogMarginalLikelihood() (float64, error) {
	if err := g.sync(); err != nil {
		return 0, err
	}
	n := len(g.xs)
	ll := 0.0
	for i := 0; i < n; i++ {
		ll -= math.Log(g.chol.At(i, i))
	}
	for i := 0; i < n; i++ {
		ll -= 0.5 * (g.ys[i] - g.yMean) * g.alpha[i]
	}
	ll -= 0.5 * float64(n) * math.Log(2*math.Pi)
	return ll, nil
}
