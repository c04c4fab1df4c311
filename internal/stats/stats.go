// Package stats provides the small numerical toolkit shared by Wayfinder's
// search algorithms, simulator, and reporting layers: normalization,
// smoothing, running moments, error metrics, dense matrix helpers, and the
// GP acquisition kernels (kernels.go: AVX2 assembly where the CPU has it,
// Go loops elsewhere, bit-identical either way).
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// MinMaxNorm returns the min-max normalization of xs onto [0,1] — the
// mXNorm(·) function used by the paper's throughput–memory score (Eq. 4).
// Constant input maps to all zeros.
func MinMaxNorm(xs []float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	lo, hi := Min(xs), Max(xs)
	span := hi - lo
	if span == 0 { //wfvet:ignore floateq guards the division; only an exactly-zero span is degenerate
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / span
	}
	return out
}

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, target []float64) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		return 0
	}
	sum := 0.0
	for i := range pred {
		sum += math.Abs(pred[i] - target[i])
	}
	return sum / float64(len(pred))
}

// NormalizedMAE returns MAE divided by the target range, the normalized MAE
// reported in the paper's Table 3. A zero range yields 0.
func NormalizedMAE(pred, target []float64) float64 {
	if len(target) == 0 {
		return 0
	}
	span := Max(target) - Min(target)
	if span == 0 { //wfvet:ignore floateq guards the division; only an exactly-zero span is degenerate
		return 0
	}
	return MAE(pred, target) / span
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// EWMA returns the exponentially-weighted moving average of xs with
// smoothing factor alpha in (0,1]; the first element seeds the average.
// It is the smoothing applied to the paper's figure time series.
func EWMA(xs []float64, alpha float64) []float64 {
	out := make([]float64, len(xs))
	if len(xs) == 0 {
		return out
	}
	out[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		out[i] = alpha*xs[i] + (1-alpha)*out[i-1]
	}
	return out
}

// MovingRate returns, for each position, the fraction of true values in the
// trailing window — used for the dashed crash-rate curves in Figs 6, 11.
func MovingRate(events []bool, window int) []float64 {
	out := make([]float64, len(events))
	if window <= 0 {
		window = 1
	}
	count := 0
	for i := range events {
		if events[i] {
			count++
		}
		if i >= window && events[i-window] {
			count--
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = float64(count) / float64(n)
	}
	return out
}

// Running tracks streaming mean and variance (Welford's algorithm).
type Running struct {
	n    int
	mean float64
	m2   float64
}

// RestoreRunning reconstructs a Running accumulator from summary
// statistics (used when deserializing trained models).
func RestoreRunning(n int, mean, variance float64) Running {
	return Running{n: n, mean: mean, m2: variance * float64(n)}
}

// Raw returns the accumulator's Welford fields: the count, the mean, and
// the sum of squared deviations. RunningFromRaw inverts it bit-exactly,
// which RestoreRunning (m2 rebuilt as variance·n) does not.
func (r *Running) Raw() (n int, mean, m2 float64) { return r.n, r.mean, r.m2 }

// RunningFromRaw rebuilds an accumulator from fields captured by Raw.
func RunningFromRaw(n int, mean, m2 float64) Running {
	return Running{n: n, mean: mean, m2: m2}
}

// Add incorporates one observation.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations.
func (r *Running) N() int { return r.n }

// Mean returns the running mean.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the running population variance.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the running population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// ZScorer normalizes feature vectors to zero mean and unit variance, the
// preprocessing the DTM's RBF layers assume (γ=0.1 on z-scored inputs).
type ZScorer struct {
	mean []float64
	std  []float64
}

// NewZScorerFromStats reconstructs a scorer from serialized statistics.
func NewZScorerFromStats(mean, std []float64) *ZScorer {
	return &ZScorer{mean: append([]float64(nil), mean...), std: append([]float64(nil), std...)}
}

// Stats returns the scorer's per-dimension mean and std (empty for an
// unfitted scorer).
func (z *ZScorer) Stats() (mean, std []float64) { return z.mean, z.std }

// FitZScorer computes per-dimension mean/std from a sample of vectors.
// Dimensions with zero variance are given unit std so they pass through.
func FitZScorer(samples [][]float64) *ZScorer {
	if len(samples) == 0 {
		return &ZScorer{}
	}
	dim := len(samples[0])
	z := &ZScorer{mean: make([]float64, dim), std: make([]float64, dim)}
	for d := 0; d < dim; d++ {
		var run Running
		for _, s := range samples {
			run.Add(s[d])
		}
		z.mean[d] = run.Mean()
		sd := run.StdDev()
		if sd < 1e-12 {
			sd = 1
		}
		z.std[d] = sd
	}
	return z
}

// Transform returns the z-scored copy of v.
func (z *ZScorer) Transform(v []float64) []float64 {
	if len(z.mean) == 0 {
		return append([]float64(nil), v...)
	}
	out := make([]float64, len(v))
	for i := range v {
		out[i] = (v[i] - z.mean[i]) / z.std[i]
	}
	return out
}

// TransformInto z-scores v into dst (len(dst) ≥ len(v)), allocation-free
// — the batch-prediction path's Transform. The arithmetic is identical.
func (z *ZScorer) TransformInto(v, dst []float64) {
	if len(z.mean) == 0 {
		copy(dst, v)
		return
	}
	for i := range v {
		dst[i] = (v[i] - z.mean[i]) / z.std[i]
	}
}

// Euclidean returns the L2 distance between two equal-length vectors.
func Euclidean(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// SquaredDistance returns the squared L2 distance between two vectors.
// For many vectors against one, SquaredDistanceCols runs the same sums
// over a packed matrix, one vector per SIMD lane.
func SquaredDistance(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return sum
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is
// not (numerically) positive definite.
var ErrNotPositiveDefinite = errors.New("stats: matrix not positive definite")

// Cholesky computes the lower-triangular factor L with A = L Lᵀ.
// A must be square and symmetric positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("stats: Cholesky of non-square matrix")
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 0 {
					return nil, ErrNotPositiveDefinite
				}
				l.Set(i, j, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A x = b given the Cholesky factor L of A, via
// forward then backward substitution.
func SolveCholesky(l *Matrix, b []float64) []float64 {
	n := l.Rows
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x
}

// TriFactor is a lower-triangular matrix in packed row-major storage: row
// i holds exactly i+1 entries, so the whole factor lives in one
// n(n+1)/2-length slice. The layout is what makes an *incremental*
// Cholesky factorization cheap: appending row n+1 appends n+1 floats to
// the backing array and touches nothing already written, so the factor of
// a growing SPD matrix (a GP kernel matrix gaining one observation per
// iteration) is extended in place with one O(n²) forward solve instead of
// an O(n³) refactorization. The converse operation, Downdate, removes the
// *oldest* row in O(n²) via a rank-1 rotation sweep — together they give a
// sliding window over an unbounded observation stream at constant memory.
type TriFactor struct {
	n    int
	data []float64
	// dscratch is Downdate's reusable rotation column (the deleted row's
	// subdiagonal), regrown on demand.
	dscratch []float64
}

// Len returns the factor's current dimension.
func (t *TriFactor) Len() int { return t.n }

// At returns element (i, j) for j ≤ i.
func (t *TriFactor) At(i, j int) float64 { return t.data[i*(i+1)/2+j] }

// Truncate shrinks the factor back to its leading n×n block — an O(1)
// reslice. Because appending rows never rewrites earlier ones, the
// truncated factor is byte-identical to the factor before the extension:
// push a fantasized observation with Extend, pop it with Truncate.
func (t *TriFactor) Truncate(n int) {
	if n < 0 || n >= t.n {
		return
	}
	t.n = n
	t.data = t.data[:n*(n+1)/2]
}

// Extend appends one row to the factor: given b = A[n][0..n-1] (the new
// point's covariances against the existing points) and d = A[n][n] (its
// variance), it solves L ℓ = b by forward substitution and sets the new
// diagonal to √(d − ℓ·ℓ). The existing rows are untouched. When the
// Schur complement d − ℓ·ℓ is not positive the factor is left unchanged
// and ErrNotPositiveDefinite is returned — the caller's cue to fall back
// to a full (jittered) refactorization.
func (t *TriFactor) Extend(b []float64, d float64) error {
	if _, err := t.extend(b, d, math.NaN()); err != nil {
		return err
	}
	return nil
}

// ExtendClamped is Extend with a positive floor on the Schur complement:
// instead of failing on a non-positive pivot it clamps it to floor, so
// the extension always succeeds (at the price of a slightly inflated
// variance for the new point). It reports whether clamping occurred.
// Used for fantasized observations, which must never trigger a
// refactorization — popping them relies on Truncate being exact.
func (t *TriFactor) ExtendClamped(b []float64, d, floor float64) bool {
	clamped, _ := t.extend(b, d, floor)
	return clamped
}

func (t *TriFactor) extend(b []float64, d, floor float64) (bool, error) {
	n := t.n
	base := len(t.data)
	t.data = append(t.data, make([]float64, n+1)...)
	row := t.data[base : base+n+1]
	for i := 0; i < n; i++ {
		sum := b[i]
		ri := t.data[i*(i+1)/2:]
		for k := 0; k < i; k++ {
			sum -= ri[k] * row[k]
		}
		row[i] = sum / ri[i]
	}
	s := d
	for k := 0; k < n; k++ {
		s -= row[k] * row[k]
	}
	clamped := false
	if !(s > 0) || math.IsNaN(s) {
		if math.IsNaN(floor) {
			t.data = t.data[:base]
			return false, ErrNotPositiveDefinite
		}
		s, clamped = floor, true
	} else if s < floor {
		s, clamped = floor, true
	}
	row[n] = math.Sqrt(s)
	t.n++
	return clamped, nil
}

// FactorFromRows computes the full Cholesky factorization of the packed
// SPD matrix given by rows (rows[i][j] = A[i][j] for j ≤ i) with diagAdd
// added to every diagonal entry, reusing t's storage. On failure t is
// emptied and ErrNotPositiveDefinite returned.
func (t *TriFactor) FactorFromRows(rows [][]float64, diagAdd float64) error {
	n := len(rows)
	need := n * (n + 1) / 2
	if cap(t.data) < need {
		t.data = make([]float64, need)
	}
	t.data = t.data[:need]
	t.n = n
	for i := 0; i < n; i++ {
		ri := t.data[i*(i+1)/2:]
		for j := 0; j <= i; j++ {
			sum := rows[i][j]
			if i == j {
				sum += diagAdd
			}
			rj := t.data[j*(j+1)/2:]
			for k := 0; k < j; k++ {
				sum -= ri[k] * rj[k]
			}
			if i == j {
				if sum <= 0 {
					t.n, t.data = 0, t.data[:0]
					return ErrNotPositiveDefinite
				}
				ri[j] = math.Sqrt(sum)
			} else {
				ri[j] = sum / rj[j]
			}
		}
	}
	return nil
}

// Downdate removes the factor's first row and column in O(n²): if L
// factors the SPD matrix A, the result factors A with its first row and
// column deleted — the "forget the oldest observation" half of a sliding
// window. Partitioning L = [[ℓ₁₁, 0], [v, L₁]], the trailing block of A
// satisfies A₁ = L₁L₁ᵀ + vvᵀ, so the new factor is the rank-1 *update* of
// L₁ by v, computed with the classic LINPACK rotation sweep. Every
// rotation has hypotenuse r = √(d² + vₖ²) ≥ d > 0, so — unlike a rank-1
// *downdate* — the sweep cannot fail on a valid factor; the only error is
// an empty one.
func (t *TriFactor) Downdate() error {
	if t.n == 0 {
		return errors.New("stats: Downdate of an empty factor")
	}
	m := t.n - 1
	if cap(t.dscratch) < m {
		t.dscratch = make([]float64, m)
	}
	v := t.dscratch[:m]
	// Save the deleted row's subdiagonal column v, then repack rows 1..n-1
	// as rows 0..n-2 with their leading entry dropped. Ascending order is
	// in-place safe: row i's destination starts at (i-1)i/2, strictly below
	// its source at i(i+1)/2 + 1.
	for i := 1; i <= m; i++ {
		src := i * (i + 1) / 2
		v[i-1] = t.data[src]
		copy(t.data[(i-1)*i/2:], t.data[src+1:src+i+1])
	}
	t.n = m
	t.data = t.data[:m*(m+1)/2]
	// Rank-1 update: rotate v into the repacked L₁, column by column.
	for k := 0; k < m; k++ {
		diag := k*(k+1)/2 + k
		dkk := t.data[diag]
		r := math.Sqrt(dkk*dkk + v[k]*v[k])
		c, s := r/dkk, v[k]/dkk
		t.data[diag] = r
		for i := k + 1; i < m; i++ {
			idx := i*(i+1)/2 + k
			t.data[idx] = (t.data[idx] + s*v[i]) / c
			v[i] = c*v[i] - s*t.data[idx]
		}
	}
	return nil
}

// PackedData returns a copy of the factor's packed storage (row-major
// lower triangle, n(n+1)/2 entries) — the serialization checkpoints use
// when the factor's construction history can no longer be replayed.
func (t *TriFactor) PackedData() []float64 {
	return append([]float64(nil), t.data...)
}

// SetPacked overwrites the factor with packed storage previously produced
// by PackedData for an n×n factor.
func (t *TriFactor) SetPacked(n int, data []float64) error {
	if n < 0 || len(data) != n*(n+1)/2 {
		return fmt.Errorf("stats: SetPacked got %d entries for dimension %d (want %d)", len(data), n, n*(n+1)/2)
	}
	t.n = n
	t.data = append(t.data[:0], data...)
	return nil
}

// ForwardSolve solves L v = b into dst (len ≥ t.Len()), allocation-free.
func (t *TriFactor) ForwardSolve(b, dst []float64) {
	for i := 0; i < t.n; i++ {
		sum := b[i]
		ri := t.data[i*(i+1)/2:]
		for k := 0; k < i; k++ {
			sum -= ri[k] * dst[k]
		}
		dst[i] = sum / ri[i]
	}
}

// Solve solves (L Lᵀ) x = b into dst via forward then backward
// substitution, allocation-free.
func (t *TriFactor) Solve(b, dst []float64) {
	t.ForwardSolve(b, dst)
	for i := t.n - 1; i >= 0; i-- {
		sum := dst[i]
		for k := i + 1; k < t.n; k++ {
			sum -= t.At(k, i) * dst[k]
		}
		dst[i] = sum / t.At(i, i)
	}
}

// ForwardSolveBatch solves L V = B for an n×m right-hand-side matrix in
// one factor sweep: b and dst are row-major n×m (entry (i,j) at i*m+j and
// dst may alias b). Each column undergoes exactly the scalar
// ForwardSolve's operation sequence — same subtractions in the same k
// order, same final division — so column j of the result is bit-identical
// to ForwardSolve on column j. The k loop is blocked by four, so each
// dst[i][j] is loaded and stored once per four subtractions instead of
// once per subtraction, and each block runs through subRows4, whose AVX2
// kernel updates four columns per instruction under the same per-column
// operation order. Allocation-free.
func (t *TriFactor) ForwardSolveBatch(b, dst []float64, m int) {
	for i := 0; i < t.n; i++ {
		ri := t.data[i*(i+1)/2:]
		di := dst[i*m : i*m+m]
		copy(di, b[i*m:i*m+m])
		k := 0
		for ; k+4 <= i; k += 4 {
			subRows4(di, dst[k*m:], m, ri[k:k+4])
		}
		for ; k < i; k++ {
			lik := ri[k]
			dk := dst[k*m:][:len(di)]
			for j, dkj := range dk {
				di[j] -= lik * dkj
			}
		}
		lii := ri[i]
		for j := range di {
			di[j] /= lii
		}
	}
}

// PearsonCorrelation returns the Pearson correlation coefficient between xs
// and ys, or 0 when either side has zero variance.
func PearsonCorrelation(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 { //wfvet:ignore floateq guards the division; only exactly-zero variance is degenerate
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ArgMax returns the index of the maximum element (first on ties), or -1
// for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the minimum element (first on ties), or -1
// for an empty slice.
func ArgMin(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}
