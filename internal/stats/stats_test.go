package stats

import (
	"math"
	"testing"
	"testing/quick"

	"wayfinder/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Fatalf("Variance = %v, want 4", v)
	}
	if sd := StdDev(xs); sd != 2 {
		t.Fatalf("StdDev = %v, want 2", sd)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty slice moments should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Fatalf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp misbehaves")
	}
}

func TestMinMaxNorm(t *testing.T) {
	out := MinMaxNorm([]float64{10, 20, 30})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Fatalf("MinMaxNorm = %v", out)
		}
	}
}

func TestMinMaxNormConstant(t *testing.T) {
	out := MinMaxNorm([]float64{7, 7, 7})
	for _, v := range out {
		if v != 0 {
			t.Fatalf("constant input should normalize to zeros, got %v", out)
		}
	}
}

func TestMinMaxNormPropertyBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 3+r.Intn(20))
		for i := range xs {
			xs[i] = r.Normal(0, 100)
		}
		for _, v := range MinMaxNorm(xs) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMAE(t *testing.T) {
	got := MAE([]float64{1, 2, 3}, []float64{2, 2, 5})
	if !almostEqual(got, 1, 1e-12) {
		t.Fatalf("MAE = %v, want 1", got)
	}
}

func TestNormalizedMAE(t *testing.T) {
	got := NormalizedMAE([]float64{1, 2}, []float64{0, 10})
	// MAE = (1+8)/2 = 4.5, range = 10 → 0.45
	if !almostEqual(got, 0.45, 1e-12) {
		t.Fatalf("NormalizedMAE = %v, want 0.45", got)
	}
	if NormalizedMAE([]float64{1}, []float64{3}) != 0 {
		t.Fatal("zero-range targets should give 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if p := Percentile(xs, 50); p != 3 {
		t.Fatalf("median = %v, want 3", p)
	}
	if p := Percentile(xs, 0); p != 1 {
		t.Fatalf("p0 = %v, want 1", p)
	}
	if p := Percentile(xs, 100); p != 5 {
		t.Fatalf("p100 = %v, want 5", p)
	}
	if p := Percentile(xs, 25); p != 2 {
		t.Fatalf("p25 = %v, want 2", p)
	}
}

func TestEWMA(t *testing.T) {
	out := EWMA([]float64{1, 1, 1}, 0.5)
	for _, v := range out {
		if v != 1 {
			t.Fatalf("EWMA of constant should be constant: %v", out)
		}
	}
	out = EWMA([]float64{0, 1}, 0.5)
	if out[1] != 0.5 {
		t.Fatalf("EWMA step = %v, want 0.5", out[1])
	}
}

func TestEWMAStaysInRange(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = r.Float64()
		}
		lo, hi := Min(xs), Max(xs)
		for _, v := range EWMA(xs, 0.3) {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestMovingRate(t *testing.T) {
	events := []bool{true, false, true, true}
	out := MovingRate(events, 2)
	want := []float64{1, 0.5, 0.5, 1}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Fatalf("MovingRate = %v, want %v", out, want)
		}
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	r := rng.New(31)
	xs := make([]float64, 500)
	var run Running
	for i := range xs {
		xs[i] = r.Normal(3, 7)
		run.Add(xs[i])
	}
	if !almostEqual(run.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("running mean %v vs batch %v", run.Mean(), Mean(xs))
	}
	if !almostEqual(run.Variance(), Variance(xs), 1e-6) {
		t.Fatalf("running var %v vs batch %v", run.Variance(), Variance(xs))
	}
	if run.N() != 500 {
		t.Fatalf("N = %d", run.N())
	}
}

func TestZScorer(t *testing.T) {
	samples := [][]float64{{0, 10}, {2, 10}, {4, 10}}
	z := FitZScorer(samples)
	out := z.Transform([]float64{2, 10})
	if !almostEqual(out[0], 0, 1e-12) {
		t.Fatalf("centered value should be 0, got %v", out[0])
	}
	// zero-variance dimension passes through centered.
	if !almostEqual(out[1], 0, 1e-12) {
		t.Fatalf("constant dim should map to 0, got %v", out[1])
	}
	hi := z.Transform([]float64{4, 10})
	if hi[0] <= 0 {
		t.Fatalf("above-mean value should be positive, got %v", hi[0])
	}
}

func TestZScorerEmpty(t *testing.T) {
	z := FitZScorer(nil)
	out := z.Transform([]float64{1, 2})
	if out[0] != 1 || out[1] != 2 {
		t.Fatal("empty scorer should pass through")
	}
}

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if Euclidean(a, b) != 5 {
		t.Fatalf("Euclidean = %v", Euclidean(a, b))
	}
	if SquaredDistance(a, b) != 25 {
		t.Fatalf("SquaredDistance = %v", SquaredDistance(a, b))
	}
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	// A = L0 L0ᵀ for a known lower-triangular L0.
	a := NewMatrix(3, 3)
	vals := [][]float64{{4, 2, 2}, {2, 5, 3}, {2, 3, 6}}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Verify L Lᵀ == A.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			sum := 0.0
			for k := 0; k < 3; k++ {
				sum += l.At(i, k) * l.At(j, k)
			}
			if !almostEqual(sum, a.At(i, j), 1e-9) {
				t.Fatalf("LLᵀ(%d,%d) = %v, want %v", i, j, sum, a.At(i, j))
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestSolveCholesky(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x := SolveCholesky(l, []float64{10, 8})
	// Verify A x == b.
	b0 := 4*x[0] + 2*x[1]
	b1 := 2*x[0] + 3*x[1]
	if !almostEqual(b0, 10, 1e-9) || !almostEqual(b1, 8, 1e-9) {
		t.Fatalf("solve wrong: x=%v", x)
	}
}

func TestSolveCholeskyProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(6)
		// Build A = M Mᵀ + n·I which is always SPD.
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = r.Normal(0, 1)
		}
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				sum := 0.0
				for k := 0; k < n; k++ {
					sum += m.At(i, k) * m.At(j, k)
				}
				if i == j {
					sum += float64(n)
				}
				a.Set(i, j, sum)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.Normal(0, 5)
		}
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		x := SolveCholesky(l, b)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				sum += a.At(i, j) * x[j]
			}
			if !almostEqual(sum, b[i], 1e-6) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPearsonCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if c := PearsonCorrelation(xs, ys); !almostEqual(c, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", c)
	}
	neg := []float64{8, 6, 4, 2}
	if c := PearsonCorrelation(xs, neg); !almostEqual(c, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", c)
	}
	if c := PearsonCorrelation(xs, []float64{5, 5, 5, 5}); c != 0 {
		t.Fatalf("zero-variance correlation = %v", c)
	}
}

func TestArgMaxMin(t *testing.T) {
	xs := []float64{3, 9, 1, 9}
	if ArgMax(xs) != 1 {
		t.Fatalf("ArgMax = %d", ArgMax(xs))
	}
	if ArgMin(xs) != 2 {
		t.Fatalf("ArgMin = %d", ArgMin(xs))
	}
	if ArgMax(nil) != -1 || ArgMin(nil) != -1 {
		t.Fatal("empty ArgMax/ArgMin should be -1")
	}
}

func BenchmarkCholesky(b *testing.B) {
	r := rng.New(1)
	n := 50
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Normal(0, 1)
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// randomSPDRows returns the packed lower triangle of a random symmetric
// positive-definite matrix (Gram matrix plus a diagonal boost).
func randomSPDRows(n int, r *rng.RNG) [][]float64 {
	vecs := make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		for j := range vecs[i] {
			vecs[i][j] = r.Normal(0, 1)
		}
	}
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			rows[i][j] = Dot(vecs[i], vecs[j]) / float64(n)
			if i == j {
				rows[i][j] += 1
			}
		}
	}
	return rows
}

func TestTriFactorExtendMatchesFullFactorization(t *testing.T) {
	// Growing the factor one row at a time must reproduce the from-scratch
	// factorization of every leading block.
	r := rng.New(11)
	const n = 24
	rows := randomSPDRows(n, r)
	inc := &TriFactor{}
	for k := 0; k < n; k++ {
		if err := inc.Extend(rows[k][:k], rows[k][k]); err != nil {
			t.Fatalf("extend to %d: %v", k+1, err)
		}
		full := &TriFactor{}
		if err := full.FactorFromRows(rows[:k+1], 0); err != nil {
			t.Fatalf("full factorization at %d: %v", k+1, err)
		}
		for i := 0; i <= k; i++ {
			for j := 0; j <= i; j++ {
				if d := math.Abs(inc.At(i, j) - full.At(i, j)); d > 1e-10 {
					t.Fatalf("n=%d: L[%d][%d] incremental %v vs full %v", k+1, i, j, inc.At(i, j), full.At(i, j))
				}
			}
		}
	}
}

func TestTriFactorSolveMatchesSolveCholesky(t *testing.T) {
	r := rng.New(12)
	const n = 16
	rows := randomSPDRows(n, r)
	tf := &TriFactor{}
	if err := tf.FactorFromRows(rows, 0); err != nil {
		t.Fatal(err)
	}
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			a.Set(i, j, rows[i][j])
			a.Set(j, i, rows[i][j])
		}
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Normal(0, 1)
	}
	want := SolveCholesky(l, b)
	got := make([]float64, n)
	tf.Solve(b, got)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-10 {
			t.Fatalf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// ForwardSolve agrees with the matrix-based substitution too.
	v := make([]float64, n)
	tf.ForwardSolve(b, v)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * v[k]
		}
		if math.Abs(v[i]-sum/l.At(i, i)) > 1e-10 {
			t.Fatalf("forward solve diverged at %d", i)
		}
	}
}

func TestTriFactorTruncateRestoresExactly(t *testing.T) {
	// Extend never rewrites earlier rows, so Truncate must restore the
	// pre-extension factor byte-for-byte — the fantasy-frame contract.
	r := rng.New(13)
	const n = 12
	rows := randomSPDRows(n+3, r)
	tf := &TriFactor{}
	for k := 0; k < n; k++ {
		if err := tf.Extend(rows[k][:k], rows[k][k]); err != nil {
			t.Fatal(err)
		}
	}
	before := append([]float64(nil), tf.data...)
	for k := n; k < n+3; k++ {
		if err := tf.Extend(rows[k][:k], rows[k][k]); err != nil {
			t.Fatal(err)
		}
	}
	tf.Truncate(n)
	if tf.Len() != n {
		t.Fatalf("Len = %d after truncate, want %d", tf.Len(), n)
	}
	if len(tf.data) != len(before) {
		t.Fatalf("data length %d, want %d", len(tf.data), len(before))
	}
	for i := range before {
		if tf.data[i] != before[i] {
			t.Fatalf("data[%d] = %v, want %v (truncate must be exact)", i, tf.data[i], before[i])
		}
	}
}

func TestTriFactorExtendRejectsNonPD(t *testing.T) {
	tf := &TriFactor{}
	if err := tf.Extend(nil, 1); err != nil {
		t.Fatal(err)
	}
	// A second identical row makes the matrix singular: [[1,1],[1,1]].
	if err := tf.Extend([]float64{1}, 1); err != ErrNotPositiveDefinite {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	if tf.Len() != 1 {
		t.Fatalf("failed extend mutated the factor: Len = %d", tf.Len())
	}
	// The clamped variant succeeds, reporting the clamp.
	if !tf.ExtendClamped([]float64{1}, 1, 1e-6) {
		t.Fatal("ExtendClamped should report clamping on a singular extension")
	}
	if tf.Len() != 2 {
		t.Fatalf("Len = %d after clamped extend, want 2", tf.Len())
	}
	if got, want := tf.At(1, 1), math.Sqrt(1e-6); math.Abs(got-want) > 1e-15 {
		t.Fatalf("clamped pivot = %v, want %v", got, want)
	}
}

// reconstruct returns the packed SPD matrix the factor represents:
// A[i][j] = Σ_k L[i][k]·L[j][k]. For a clamped factor this is the
// *effective* matrix — the one the clamp silently substituted — which is
// the matrix a downdate must stay consistent with.
func reconstruct(tf *TriFactor) [][]float64 {
	n := tf.Len()
	rows := make([][]float64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]float64, i+1)
		for j := 0; j <= i; j++ {
			sum := 0.0
			for k := 0; k <= j; k++ {
				sum += tf.At(i, k) * tf.At(j, k)
			}
			rows[i][j] = sum
		}
	}
	return rows
}

// suffixRows drops the first `drop` rows/columns of a packed matrix.
func suffixRows(rows [][]float64, drop int) [][]float64 {
	out := make([][]float64, len(rows)-drop)
	for i := range out {
		out[i] = rows[i+drop][drop : drop+i+1]
	}
	return out
}

func TestTriFactorDowndateMatchesSuffixRefit(t *testing.T) {
	// Downdating the oldest row must reproduce the from-scratch
	// factorization of the matrix with that row and column deleted —
	// repeatedly, across random SPD matrices of varying conditioning.
	for seed := uint64(1); seed <= 6; seed++ {
		r := rng.New(seed)
		const n = 20
		rows := randomSPDRows(n, r)
		tf := &TriFactor{}
		if err := tf.FactorFromRows(rows, 0); err != nil {
			t.Fatal(err)
		}
		for drop := 1; drop < n; drop++ {
			if err := tf.Downdate(); err != nil {
				t.Fatalf("seed %d drop %d: %v", seed, drop, err)
			}
			want := &TriFactor{}
			if err := want.FactorFromRows(suffixRows(rows, drop), 0); err != nil {
				t.Fatalf("seed %d drop %d suffix refit: %v", seed, drop, err)
			}
			m := n - drop
			if tf.Len() != m {
				t.Fatalf("Len = %d after %d downdates, want %d", tf.Len(), drop, m)
			}
			for i := 0; i < m; i++ {
				for j := 0; j <= i; j++ {
					if d := math.Abs(tf.At(i, j) - want.At(i, j)); d > 1e-9 {
						t.Fatalf("seed %d drop %d: L[%d][%d] downdated %v vs refit %v (|Δ|=%g)",
							seed, drop, i, j, tf.At(i, j), want.At(i, j), d)
					}
				}
			}
		}
	}
}

func TestTriFactorDowndateNearSingular(t *testing.T) {
	// A nearly-rank-deficient matrix (tiny diagonal boost): the rotation
	// sweep must still track the suffix refit within tolerance.
	r := rng.New(77)
	const n = 12
	rows := randomSPDRows(n, r)
	for i := range rows {
		rows[i][i] += 1e-7 - 1 // undo the unit boost, leave 1e-7
	}
	tf := &TriFactor{}
	if err := tf.FactorFromRows(rows, 0); err != nil {
		t.Fatal(err)
	}
	for drop := 1; drop <= n/2; drop++ {
		if err := tf.Downdate(); err != nil {
			t.Fatalf("drop %d: %v", drop, err)
		}
		want := &TriFactor{}
		if err := want.FactorFromRows(suffixRows(rows, drop), 0); err != nil {
			t.Fatalf("drop %d suffix refit: %v", drop, err)
		}
		for i := 0; i < tf.Len(); i++ {
			for j := 0; j <= i; j++ {
				if d := math.Abs(tf.At(i, j) - want.At(i, j)); d > 1e-9 {
					t.Fatalf("drop %d: L[%d][%d] off by %g", drop, i, j, d)
				}
			}
		}
	}
}

func TestTriFactorDowndateClampedPivot(t *testing.T) {
	// A factor that went through the clamped-pivot rescue represents an
	// effective matrix slightly different from the requested one; the
	// downdate must stay consistent with *that* matrix's suffix.
	tf := &TriFactor{}
	if err := tf.Extend(nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := tf.Extend([]float64{0.5}, 2); err != nil {
		t.Fatal(err)
	}
	// The third row duplicates the first exactly, so the Schur complement
	// is zero and the clamp must engage.
	if !tf.ExtendClamped([]float64{1, 0.5}, 1, 1e-6) {
		t.Fatal("duplicate row should force the pivot clamp")
	}
	eff := reconstruct(tf)
	if err := tf.Downdate(); err != nil {
		t.Fatal(err)
	}
	want := &TriFactor{}
	if err := want.FactorFromRows(suffixRows(eff, 1), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tf.Len(); i++ {
		for j := 0; j <= i; j++ {
			if d := math.Abs(tf.At(i, j) - want.At(i, j)); d > 1e-9 {
				t.Fatalf("L[%d][%d] off by %g after clamped-factor downdate", i, j, d)
			}
		}
	}
}

func TestTriFactorDowndateEmpty(t *testing.T) {
	tf := &TriFactor{}
	if err := tf.Downdate(); err == nil {
		t.Fatal("Downdate of an empty factor should error")
	}
}

func TestTriFactorPackedRoundTrip(t *testing.T) {
	r := rng.New(21)
	const n = 10
	rows := randomSPDRows(n, r)
	tf := &TriFactor{}
	if err := tf.FactorFromRows(rows, 0); err != nil {
		t.Fatal(err)
	}
	packed := tf.PackedData()
	got := &TriFactor{}
	if err := got.SetPacked(n, packed); err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("Len = %d, want %d", got.Len(), n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if got.At(i, j) != tf.At(i, j) {
				t.Fatalf("L[%d][%d] not restored exactly", i, j)
			}
		}
	}
	if err := got.SetPacked(n, packed[:len(packed)-1]); err == nil {
		t.Fatal("SetPacked should reject a length mismatch")
	}
}

// kernelPaths runs f as one subtest per kernel implementation: the
// portable Go loops always, the AVX2 kernels where the CPU has them. The
// scalar loops f compares against are the same on both.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	paths := []struct {
		name string
		avx2 bool
	}{{"go", false}, {"avx2", true}}
	for _, p := range paths {
		if p.avx2 && !saved {
			t.Logf("AVX2 kernels off (no AVX2 on this CPU, or a race-detector or purego build): the %s path is not exercised", p.name)
			continue
		}
		useAVX2 = p.avx2
		t.Run(p.name, f)
	}
}

// specialFloats are the edge values the bit-identity tests mix in: signed
// zeros, subnormals, infinities, NaN, and a value whose square overflows.
var specialFloats = []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), math.NaN(), 1e154, -3}

// checkBatchSolve asserts that ForwardSolveBatch on the row-major n×m
// right-hand sides b matches the scalar ForwardSolve column by column in
// every bit, with dst both separate from and aliasing b.
func checkBatchSolve(t *testing.T, tf *TriFactor, b []float64, m int) {
	t.Helper()
	n := tf.Len()
	fwd := make([]float64, n*m)
	tf.ForwardSolveBatch(b, fwd, m)
	aliased := append([]float64(nil), b...)
	tf.ForwardSolveBatch(aliased, aliased, m)
	col := make([]float64, n)
	scratch := make([]float64, n)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			col[i] = b[i*m+j]
		}
		tf.ForwardSolve(col, scratch)
		for i := 0; i < n; i++ {
			want := math.Float64bits(scratch[i])
			if math.Float64bits(fwd[i*m+j]) != want || math.Float64bits(aliased[i*m+j]) != want {
				t.Fatalf("n=%d m=%d: ForwardSolveBatch col %d row %d: %v (aliased %v) != scalar %v",
					n, m, j, i, fwd[i*m+j], aliased[i*m+j], scratch[i])
			}
		}
	}
}

func TestTriFactorBatchSolvesBitIdentical(t *testing.T) {
	// Column j of ForwardSolveBatch must be bit-for-bit the scalar
	// ForwardSolve of column j: the batch layout blocks the sweep across
	// columns and k, but never reorders the FP operations within one
	// column. The sizes straddle the four-wide k blocking (n mod 4 = 0..3),
	// the four-lane column blocking (m mod 4) and the pool width the
	// acquisition path uses. Even trials mix special values into the
	// right-hand sides.
	kernelPaths(t, func(t *testing.T) {
		r := rng.New(33)
		for _, n := range []int{0, 1, 3, 4, 5, 18, 33} {
			rows := randomSPDRows(n, r)
			tf := &TriFactor{}
			if err := tf.FactorFromRows(rows, 0); err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 7, 15, 16, 17, 96} {
				for trial := 0; trial < 2; trial++ {
					b := make([]float64, n*m)
					for i := range b {
						if trial == 0 && r.Intn(8) == 0 {
							b[i] = specialFloats[r.Intn(len(specialFloats))]
						} else {
							b[i] = r.Normal(0, 1)
						}
					}
					checkBatchSolve(t, tf, b, m)
				}
			}
		}
		// The magnitudes a GP with a short length scale produces on a wide
		// encoding: unit diagonal plus noise, off-diagonal kernel entries
		// and right-hand sides between 1e-106 and 1e-248, so most products
		// in the k sweep land in the subnormal range or flush to zero.
		tiny := func() float64 { return math.Pow(10, -106-142*r.Float64()) }
		for _, n := range []int{9, 64} {
			rows := make([][]float64, n)
			for i := range rows {
				rows[i] = make([]float64, i+1)
				for j := 0; j < i; j++ {
					rows[i][j] = tiny()
				}
				rows[i][i] = 1
			}
			tf := &TriFactor{}
			if err := tf.FactorFromRows(rows, 1e-3); err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{16, 96} {
				b := make([]float64, n*m)
				for i := range b {
					b[i] = tiny()
				}
				checkBatchSolve(t, tf, b, m)
				fwd := make([]float64, n*m)
				tf.ForwardSolveBatch(b, fwd, m)
				subnormal := 0
				for i := 0; i < n; i++ {
					for k := 0; k < i; k++ {
						if p := tf.At(i, k) * fwd[k*m]; p != 0 && math.Abs(p) < 0x1p-1022 {
							subnormal++
						}
					}
				}
				if subnormal == 0 {
					t.Fatalf("n=%d m=%d: no subnormal product in column 0; the case does not test subnormal rounding", n, m)
				}
			}
		}
	})
}

func TestSquaredDistanceColsBitIdentical(t *testing.T) {
	// Every column of the packed SquaredDistanceCols must be bit-for-bit
	// the scalar SquaredDistance, whichever argument order the scalar call
	// uses — including signed zeros, subnormals, infinities and NaN.
	kernelPaths(t, func(t *testing.T) {
		r := rng.New(44)
		// Odd trials draw finite normals only, so long vectors also compare
		// finite sums, not just the NaN a special value would make of them.
		draw := func(n int, specials bool) []float64 {
			v := make([]float64, n)
			for i := range v {
				if specials && r.Intn(4) == 0 {
					v[i] = specialFloats[r.Intn(len(specialFloats))]
				} else {
					v[i] = r.Normal(0, 1)
				}
			}
			return v
		}
		check := func(what string, n, trial, k int, got float64, c, x []float64) {
			t.Helper()
			for _, want := range []float64{SquaredDistance(c, x), SquaredDistance(x, c)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d trial %d: %s[%d] = %v (%#x), scalar %v (%#x)",
						n, trial, what, k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 397} {
			for _, m := range []int{1, 4, 15, 16, 17, 96} {
				for trial := 0; trial < 4; trial++ {
					sp := trial%2 == 0
					x := draw(n, sp)
					cols := make([][]float64, m)
					for j := range cols {
						cols[j] = draw(n, sp)
					}
					out := make([]float64, m+1)
					out[m] = 7 // past the m columns: must stay untouched
					SquaredDistanceCols(x, PackColumns(nil, cols, n), m, out)
					for j, c := range cols {
						check("SquaredDistanceCols", n, trial, j, out[j], c, x)
					}
					if out[m] != 7 {
						t.Fatalf("n=%d m=%d: SquaredDistanceCols wrote past column m", n, m)
					}
				}
			}
		}
	})
}
