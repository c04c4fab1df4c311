package stats

import "math"

// The acquisition kernels below have two implementations: portable Go
// loops, and AVX2 assembly (kernels_amd64.s) that runs one candidate
// column per 64-bit SIMD lane. Both keep two rules, so every result is
// Float64bits-identical to the scalar loop it replaces, whichever path
// runs:
//
//   - Lane per column. A lane holds one column's running value and sees
//     that column's terms in the scalar index order; SIMD runs different
//     columns side by side and never splits one column's sum across lanes.
//   - No fused multiply-add. Every product is rounded on its own before
//     the add or subtract that consumes it, as the scalar Go code does
//     (separate VSUBPD, VMULPD and VADDPD; the operand order matches the
//     compiled scalar code, so even NaN payloads agree).
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
// would no longer match them bit for bit.
var useAVX2 = !raceEnabled && cpuHasAVX2()

// PackColumns lays cols (each at least dim long) out as SquaredDistanceCols
// reads them, reusing dst's storage when it is large enough: in panels of
// four columns, panel p holding columns 4p..4p+3 dim-major, so column j's
// coordinate d sits at [(j/4)·4·dim + 4d + j mod 4]. A panel's four
// coordinates d then load as one SIMD vector, and a pass over x streams
// each panel through memory in order. A partial last panel's unused
// lanes are never read.
func PackColumns(dst []float64, cols [][]float64, dim int) []float64 {
	need := (len(cols) + 3) / 4 * 4 * dim
	if cap(dst) < need {
		dst = make([]float64, need)
	}
	dst = dst[:need]
	for j, c := range cols {
		panel := dst[j/4*4*dim:]
		for d, v := range c[:dim] {
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
// path scores a panel per pass. A partial last panel runs column by
// column in Go.
func SquaredDistanceCols(x, packed []float64, m int, out []float64) {
	n, full := len(x), m/4
	packed, out = packed[:(m+3)/4*4*n], out[:m]
	p := 0
	if useAVX2 && n > 0 && full > 0 {
		sqDistColsAVX2(&x[0], n, &packed[0], &out[0], full)
		p = full
	}
	for ; p < full; p++ {
		panel := packed[p*4*n : (p+1)*4*n]
		var s0, s1, s2, s3 float64
		for _, xd := range x {
			c := (*[4]float64)(panel)
			panel = panel[4:]
			e0 := c[0] - xd
			e1 := c[1] - xd
			e2 := c[2] - xd
			e3 := c[3] - xd
			s0 += e0 * e0
			s1 += e1 * e1
			s2 += e2 * e2
			s3 += e3 * e3
		}
		out[4*p], out[4*p+1], out[4*p+2], out[4*p+3] = s0, s1, s2, s3
	}
	panel := packed[full*4*n:]
	for j := full * 4; j < m; j++ {
		sum := 0.0
		for d, xd := range x {
			e := panel[4*d+j%4] - xd
			sum += e * e
		}
		out[j] = sum
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
