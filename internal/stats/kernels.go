package stats

import "math"

// The kernels below — the GP acquisition's distances and forward-solve
// update, and DeepTune's dense-layer dots, gradient accumulation and Adam
// step — have two implementations: portable Go loops, and AVX2 assembly
// (kernels_amd64.s) that runs one independent result (a candidate
// column, a sample, a gradient index or a parameter) per 64-bit SIMD
// lane. Both keep two rules, so every result is Float64bits-identical to
// the scalar loop it replaces, whichever path runs:
//
//   - Lane per result. A lane holds one result's running value and sees
//     its terms in the scalar order; SIMD runs different results side by
//     side and never splits one result's sum across lanes.
//   - No fused multiply-add. Every product is rounded on its own before
//     the add or subtract that consumes it, as the scalar Go code does
//     (separate VSUBPD, VMULPD and VADDPD; the operand order matches the
//     compiled Go loops, so even NaN payloads agree).
//
// The forward-solve kernel also skips products that underflow where the
// skip provably leaves every bit of the result unchanged; see
// subRows4AVX2.

// useAVX2 selects the assembly kernels. It is decided once, when the
// package initializes, from CPUID and XGETBV: the CPU must report AVX2
// and the operating system must save the YMM registers. Elsewhere the Go
// loops run; tests clear it to run them as the reference. Race-detector
// builds run the Go loops too: instrumentation changes which operand the
// compiled scalar loops add first, so a NaN + NaN sum keeps the other
// payload there, and the assembly (which the detector cannot see anyway)
// would no longer match them bit for bit. So do builds tagged purego,
// which exist to run the Go loops end to end on any host.
var useAVX2 = !goKernels && cpuHasAVX2()

// PackBlock is the number of columns the AVX2 kernels score per pass
// (four panels). A caller with many columns packs and scores them a
// block at a time, keeping its packed scratch small and in cache.
const PackBlock = 16

// PackColumns lays cols (each at least dim long) out as the packed
// kernels (SquaredDistanceCols, DotCols) read them, reusing dst's storage
// when it is large enough: in panels of four columns, panel p holding
// columns 4p..4p+3 in the 4·dim values from (j/4)·4·dim on. Inside a
// panel the layout follows the kernel path. For the AVX2 kernels it is
// dim-major, column j's coordinate d at 4d + j mod 4, so a panel's four
// coordinates d load as one SIMD vector. For the Go loops it is the four
// columns one after another, column j at (j mod 4)·dim, which the
// compiled four-accumulator loops stream fastest: strided panel reads
// cost them a quarter to a third more time. Either way a pass streams
// each panel through memory in order, and the first m columns of a
// packed matrix are themselves a packed m-column matrix. A partial last
// panel's unused columns hold whatever dst held; the kernels compute on
// them and drop the results.
func PackColumns(dst []float64, cols [][]float64, dim int) []float64 {
	need := (len(cols) + 3) / 4 * 4 * dim
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	if !useAVX2 {
		for j, c := range cols {
			copy(dst[j*dim:][:dim], c[:dim])
		}
		return dst
	}
	j := 0
	for ; j+4 <= len(cols); j += 4 {
		panel := dst[j*dim:][:4*dim]
		c0, c1, c2, c3 := cols[j][:dim], cols[j+1][:dim], cols[j+2][:dim], cols[j+3][:dim]
		for d, v := range c0 {
			*(*[4]float64)(panel[4*d:]) = [4]float64{v, c1[d], c2[d], c3[d]}
		}
	}
	for ; j < len(cols); j++ {
		panel := dst[j/4*4*dim:][:4*dim]
		for d, v := range cols[j][:dim] {
			panel[4*d+j%4] = v
		}
	}
	return dst
}

// SquaredDistanceCols writes to out[j] the squared L2 distance from x to
// column j of packed, m columns of len(x) coordinates laid out by
// PackColumns. Each out[j] sums (c[d]−x[d])² in SquaredDistance's index
// order in an accumulator of its own, so it is bit-identical to
// SquaredDistance(column j, x). The AVX2 kernel scores four panels (16
// columns, four 4-lane accumulators) per pass over x, then one; the Go
// loop scores a panel (four columns, four accumulators) per pass. A
// partial last panel runs as a whole one into a stack buffer, so every
// column takes the same path.
func SquaredDistanceCols(x, packed []float64, m int, out []float64) {
	n, full := len(x), m/4
	packed, out = packed[:(m+3)/4*4*n], out[:m]
	sqDistPanels(x, packed[:full*4*n], out[:4*full])
	if 4*full < m {
		var last [4]float64
		sqDistPanels(x, packed[full*4*n:], last[:])
		copy(out[4*full:], last[:])
	}
}

// sqDistPanels is SquaredDistanceCols over len(out)/4 whole panels.
func sqDistPanels(x, packed, out []float64) {
	n, panels := len(x), len(out)/4
	if useAVX2 && n > 0 && panels > 0 {
		sqDistColsAVX2(&x[0], n, &packed[0], &out[0], panels)
		return
	}
	for p := 0; p < panels; p++ {
		c := packed[p*4*n:][:4*n]
		out[4*p], out[4*p+1], out[4*p+2], out[4*p+3] = sqDist4(x, c[:n], c[n:2*n], c[2*n:3*n], c[3*n:])
	}
}

// sqDist4 is the Go loop over one panel: the squared distances from x to
// c0..c3, four independent add chains where one distance is a single
// latency-bound chain. Kept out of line, so its registers (and with
// them each add's operand order: sum first, as in the AVX2 kernel) do
// not depend on the caller.
//
//go:noinline
func sqDist4(x, c0, c1, c2, c3 []float64) (d0, d1, d2, d3 float64) {
	c0, c1, c2, c3 = c0[:len(x)], c1[:len(x)], c2[:len(x)], c3[:len(x)]
	for i, xi := range x {
		e0 := c0[i] - xi
		e1 := c1[i] - xi
		e2 := c2[i] - xi
		e3 := c3[i] - xi
		d0 += e0 * e0
		d1 += e1 * e1
		d2 += e2 * e2
		d3 += e3 * e3
	}
	return d0, d1, d2, d3
}

// DotCols writes to out[j] bias + row·(column j of packed), for the m
// columns of len(row) coordinates laid out by PackColumns: a dense
// layer's output for m samples at once, with row the layer's weight row
// and the samples packed as columns. Each out[j] starts at bias and adds
// column[i]·row[i] in index order in an accumulator of its own, as a
// one-sample dot product does. The paths and the partial last panel are
// SquaredDistanceCols's.
func DotCols(row, packed []float64, m int, bias float64, out []float64) {
	n, full := len(row), m/4
	packed, out = packed[:(m+3)/4*4*n], out[:m]
	dotPanels(row, packed[:full*4*n], bias, out[:4*full])
	if 4*full < m {
		var last [4]float64
		dotPanels(row, packed[full*4*n:], bias, last[:])
		copy(out[4*full:], last[:])
	}
}

// dotPanels is DotCols over len(out)/4 whole panels.
func dotPanels(row, packed []float64, bias float64, out []float64) {
	n, panels := len(row), len(out)/4
	if useAVX2 && n > 0 && panels > 0 {
		dotColsAVX2(&row[0], n, &packed[0], bias, &out[0], panels)
		return
	}
	for p := 0; p < panels; p++ {
		c := packed[p*4*n:][:4*n]
		out[4*p], out[4*p+1], out[4*p+2], out[4*p+3] = dot4(row, c[:n], c[n:2*n], c[2*n:3*n], c[3*n:], bias)
	}
}

// dot4 is the Go loop over one panel: bias + row·c_k for four columns in
// four independent add chains, sqDist4's shape with a product for the
// squared difference.
//
//go:noinline
func dot4(row, c0, c1, c2, c3 []float64, bias float64) (s0, s1, s2, s3 float64) {
	c0, c1, c2, c3 = c0[:len(row)], c1[:len(row)], c2[:len(row)], c3[:len(row)]
	s0, s1, s2, s3 = bias, bias, bias, bias
	for i, r := range row {
		s0 += c0[i] * r
		s1 += c1[i] * r
		s2 += c2[i] * r
		s3 += c3[i] * r
	}
	return s0, s1, s2, s3
}

// AddScaled adds coefs[k]·vecs[k][i] to dst[i] for k in order (each
// vecs[k] at least len(dst) long): the accumulation both dense-layer
// gradients make, one term per nonzero output gradient. Every dst[i]
// receives its terms one at a time in k order, each product rounded on
// its own, in an accumulator of its own: one index per lane. The AVX2
// kernel runs sixteen, then four, consecutive indices per pass over the
// terms; the Go path runs four, then one.
func AddScaled(dst, coefs []float64, vecs [][]float64) {
	vecs = vecs[:len(coefs)]
	for _, v := range vecs {
		_ = v[:len(dst)]
	}
	i := 0
	if useAVX2 && len(dst) >= 4 && len(coefs) > 0 {
		i = len(dst) &^ 3
		addScaledAVX2(&dst[0], i, &coefs[0], &vecs[0], len(coefs))
	}
	for ; i+4 <= len(dst); i += 4 {
		a := (*[4]float64)(dst[i:])
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		for k, g := range coefs {
			v := (*[4]float64)(vecs[k][i:])
			a0 += v[0] * g
			a1 += v[1] * g
			a2 += v[2] * g
			a3 += v[3] * g
		}
		*a = [4]float64{a0, a1, a2, a3}
	}
	for ; i < len(dst); i++ {
		a := dst[i]
		for k, v := range vecs {
			a += v[i] * coefs[k]
		}
		dst[i] = a
	}
}

// AdamCoefs are the constants of one Adam step: β₁ and 1−β₁, β₂ and
// 1−β₂, the bias corrections 1−β₁ᵗ and 1−β₂ᵗ, the learning rate and ε.
type AdamCoefs struct {
	B1, C1, B2, C2, BC1, BC2, LR, Eps float64
}

// AdamUpdate applies one Adam step to the parameters w from their
// gradients grad, updating the first and second moments m and v (each
// at least len(w) long) and clearing grad:
//
//	m = β₁m + (1−β₁)g;  v = β₂v + (1−β₂)g·g
//	w −= lr·(m/(1−β₁ᵗ)) / (√(v/(1−β₂ᵗ)) + ε)
//
// element by element, each operation rounded on its own. The AVX2 kernel
// updates four elements per instruction: VDIVPD and VSQRTPD round
// correctly, as DIVSD and SQRTSD do, so every lane matches the Go loop
// bit for bit. The last len(w) mod 4 elements run in Go.
func AdamUpdate(w, grad, m, v []float64, c *AdamCoefs) {
	grad, m, v = grad[:len(w)], m[:len(w)], v[:len(w)]
	i := 0
	if useAVX2 && len(w) >= 4 {
		i = len(w) &^ 3
		adamAVX2(&w[0], &grad[0], &m[0], &v[0], i, c)
	}
	b1, c1, b2, c2, bc1, bc2, lr, eps := c.B1, c.C1, c.B2, c.C2, c.BC1, c.BC2, c.LR, c.Eps
	for ; i < len(w); i++ {
		g := grad[i]
		mi := b1*m[i] + c1*g
		vi := b2*v[i] + c2*g*g
		m[i], v[i] = mi, vi
		mHat := mi / bc1
		vHat := vi / bc2
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
		grad[i] = 0
	}
}

// subRows4 is one four-wide k block of ForwardSolveBatch's column update:
// for every column j of di,
//
//	di[j] = di[j] − l[0]·d[j] − l[1]·d[m+j] − l[2]·d[2m+j] − l[3]·d[3m+j]
//
// subtracting left to right with each product rounded on its own — the
// scalar ForwardSolve's four consecutive k steps on column j. d holds the
// four solved rows k..k+3 at stride m. The AVX2 kernel updates four
// columns per instruction and skips, provably without effect on the
// result, the products that would underflow (see kernels_amd64.s); the
// last len(di) mod 4 columns, and every column on the Go path, run the Go
// loop.
func subRows4(di, d []float64, m int, l []float64) {
	l0, l1, l2, l3 := l[0], l[1], l[2], l[3]
	d0 := d[:len(di)]
	d1 := d[m:][:len(di)]
	d2 := d[2*m:][:len(di)]
	d3 := d[3*m:][:len(di)]
	j := 0
	if useAVX2 && len(di) >= 4 {
		j = len(di) &^ 3
		tiny := [4]uint64{tinyBound(l0), tinyBound(l1), tinyBound(l2), tinyBound(l3)}
		subRows4AVX2(&di[0], &d0[0], m, &l[0], &tiny[0], j)
	}
	for ; j < len(di); j++ {
		di[j] = di[j] - l0*d0[j] - l1*d1[j] - l2*d2[j] - l3*d3[j]
	}
}

// tinyBound returns the bits of the largest power of two t such that
// |l|·|d| < 2^-1023 for every |d| ≤ t, or 0 when no nonzero d qualifies
// (l's exponent too large, or l infinite or NaN). With l's biased
// exponent e, |l| < 2^(e−1022), so t = 2^(−1−e) works; it is normal for
// e ≤ 1021 and subnormal up to e = 1073.
func tinyBound(l float64) uint64 {
	switch e := math.Float64bits(l) >> 52 & 0x7ff; {
	case e <= 1021:
		return (1022 - e) << 52
	case e <= 1073:
		return 1 << (1073 - e)
	}
	return 0
}
