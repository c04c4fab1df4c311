package stats

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"wayfinder/internal/rng"
)

func TestTinyBound(t *testing.T) {
	// For every exponent, the bound is 2^(−1−e) (0 once that underflows),
	// and the exact product of the exponent's largest magnitude with the
	// bound stays below 2^-1023.
	limit := new(big.Float).SetMantExp(big.NewFloat(1), -1023)
	for e := uint64(0); e < 2047; e++ {
		l := math.Float64frombits(e<<52 | (1<<52 - 1))
		var want uint64
		if e < 1074 {
			want = math.Float64bits(math.Ldexp(1, -1-int(e)))
		}
		got := tinyBound(l)
		if got != want || tinyBound(-l) != want {
			t.Fatalf("exponent %d: tinyBound = %#x, want %#x", e, got, want)
		}
		p := new(big.Float).SetFloat64(l)
		p.Mul(p, new(big.Float).SetFloat64(math.Float64frombits(got)))
		if p.Cmp(limit) >= 0 {
			t.Fatalf("exponent %d: |l|·bound = %v is not below 2^-1023", e, p)
		}
	}
	for _, l := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := tinyBound(l); got != 0 {
			t.Fatalf("tinyBound(%v) = %#x, want 0", l, got)
		}
	}
}

func TestSubRows4DroppedProductsExact(t *testing.T) {
	// The AVX2 update drops products bounded below 2^-1023 and recomputes
	// a column group whenever a dropping lane met a small v. Aim values at
	// those edges — multipliers and row values whose exponents sum to the
	// drop threshold ±2, v near 2^-969 and 2^-960, zeros, subnormals and
	// specials — and compare every column with the Go loop bit for bit.
	if !useAVX2 {
		t.Skip("AVX2 kernels off (no AVX2 on this CPU, or a race-detector or purego build)")
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	r := rng.New(91)
	sign := func() float64 {
		if r.Bool() {
			return -1
		}
		return 1
	}
	pow := func(e int) float64 { return sign() * math.Ldexp(1+r.Float64(), e) }
	// A second NaN payload, so an operand-order slip in a NaN·NaN product
	// shows.
	specials := append([]float64{math.Float64frombits(0xfff8000000000123)}, specialFloats...)
	special := func() float64 { return specials[r.Intn(len(specials))] }
	const m = 19 // four four-lane groups plus a Go tail
	for trial := 0; trial < 4000; trial++ {
		var l [4]float64
		for i := range l {
			switch r.Intn(8) {
			case 0:
				l[i] = special()
			case 1, 2:
				l[i] = pow(-r.Intn(1075))
			default:
				l[i] = pow(r.Intn(2098) - 1074)
			}
		}
		d := make([]float64, 4*m)
		for k := range d {
			le := int(math.Float64bits(l[k/m])>>52&0x7ff) - 1023
			switch r.Intn(8) {
			case 0:
				d[k] = special()
			case 1:
				d[k] = pow(r.Intn(2098) - 1074)
			default:
				d[k] = pow(-1023 - le + r.Intn(5) - 2)
			}
		}
		di := make([]float64, m)
		for j := range di {
			switch r.Intn(8) {
			case 0:
				di[j] = special()
			case 1:
				di[j] = pow(r.Intn(2098) - 1074)
			default:
				di[j] = pow([]int{-969, -960}[r.Intn(2)] + r.Intn(7) - 3)
			}
		}
		want := append([]float64(nil), di...)
		useAVX2 = false
		subRows4(want, d, m, l[:])
		useAVX2 = true
		subRows4(di, d, m, l[:])
		for j := range di {
			if math.Float64bits(di[j]) != math.Float64bits(want[j]) {
				t.Fatalf("trial %d column %d: AVX2 %v (%#x), Go %v (%#x); l=%v d=%v,%v,%v,%v",
					trial, j, di[j], math.Float64bits(di[j]), want[j], math.Float64bits(want[j]),
					l, d[j], d[m+j], d[2*m+j], d[3*m+j])
			}
		}
	}
}

// The references below spell out each kernel's per-element operation
// order with x86's NaN rule made explicit: an operation with a NaN
// operand returns that NaN, the first operand's when both are NaN. With
// two NaN payloads in the inputs, a kernel that swaps an operand, fuses
// a multiply-add or reads the wrong element then shows in the bits.

func fadd(a, b float64) float64 {
	if a != a {
		return a
	}
	if b != b {
		return b
	}
	return a + b
}

func fsub(a, b float64) float64 {
	if a != a {
		return a
	}
	if b != b {
		return b
	}
	return a - b
}

func fmul(a, b float64) float64 {
	if a != a {
		return a
	}
	if b != b {
		return b
	}
	return a * b
}

func fdiv(a, b float64) float64 {
	if a != a {
		return a
	}
	if b != b {
		return b
	}
	return a / b
}

// kernelSpecials are specialFloats plus a second NaN payload, negative
// and distinct from math.NaN's, so a result shows which NaN operand won.
var kernelSpecials = append([]float64{math.Float64frombits(0xfff8000000000123)}, specialFloats...)

// drawKernel returns n values: normals, with every fourth entry on
// average a kernel special when specials is set.
func drawKernel(r *rng.RNG, n int, specials bool) []float64 {
	v := make([]float64, n)
	for i := range v {
		if specials && r.Intn(4) == 0 {
			v[i] = kernelSpecials[r.Intn(len(kernelSpecials))]
		} else {
			v[i] = r.Normal(0, 1)
		}
	}
	return v
}

// sameBits fails the test unless got and want hold the same bits. In a
// build that forces the Go loops (race, purego) a NaN need only meet a
// NaN: race instrumentation changes which operand the compiled loops
// take first, and with it which NaN payload survives. The plain build
// checks the payloads on both paths.
func sameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if goKernels && got != got && want != want {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), reference %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestDotColsBitIdentical(t *testing.T) {
	// Every column of DotCols must be the one-column dot product
	// bias + Σ c[i]·row[i], summed in index order, in every bit: the
	// partial last panel included, and nothing written past column m.
	kernelPaths(t, func(t *testing.T) {
		r := rng.New(45)
		for _, n := range []int{0, 1, 2, 3, 5, 64, 397} {
			for _, m := range []int{1, 3, 4, 15, 16, 17, 20, 96} {
				for trial := 0; trial < 4; trial++ {
					sp := trial%2 == 0
					row := drawKernel(r, n, sp)
					cols := make([][]float64, m)
					for j := range cols {
						cols[j] = drawKernel(r, n, sp)
					}
					bias := drawKernel(r, 1, sp)[0]
					out := make([]float64, m+1)
					out[m] = 7
					DotCols(row, PackColumns(nil, cols, n), m, bias, out)
					for j, c := range cols {
						want := bias
						for i := range row {
							want = fadd(want, fmul(c[i], row[i]))
						}
						sameBits(t, fmt.Sprintf("n=%d m=%d trial %d: DotCols[%d]", n, m, trial, j), out[j], want)
					}
					if out[m] != 7 {
						t.Fatalf("n=%d m=%d: DotCols wrote past column m", n, m)
					}
				}
			}
		}
	})
}

func TestAddScaledBitIdentical(t *testing.T) {
	// Every dst[i] must receive coefs[k]·vecs[k][i] one term at a time in
	// k order, for term counts around the Go path's blocking and lengths
	// around the four- and sixteen-index kernel blocks.
	kernelPaths(t, func(t *testing.T) {
		r := rng.New(46)
		for _, n := range []int{0, 1, 3, 4, 5, 15, 16, 17, 33, 397} {
			for _, k := range []int{0, 1, 3, 4, 5, 16} {
				for trial := 0; trial < 4; trial++ {
					sp := trial%2 == 0
					dst := drawKernel(r, n, sp)
					coefs := drawKernel(r, k, sp)
					vecs := make([][]float64, k)
					for t := range vecs {
						vecs[t] = drawKernel(r, n+r.Intn(3), sp) // longer vectors are fine
					}
					want := append([]float64(nil), dst...)
					for i := range want {
						for t, g := range coefs {
							want[i] = fadd(want[i], fmul(vecs[t][i], g))
						}
					}
					AddScaled(dst, coefs, vecs)
					for i := range want {
						sameBits(t, fmt.Sprintf("n=%d k=%d trial %d: dst[%d]", n, k, trial, i), dst[i], want[i])
					}
				}
			}
		}
	})
}

func TestAdamUpdateBitIdentical(t *testing.T) {
	// Several consecutive steps over lengths around the four-element
	// block, with specials in the gradients, the moments and the weights
	// (a zero second moment included), so NaN and infinite moments carry
	// into later steps.
	kernelPaths(t, func(t *testing.T) {
		r := rng.New(47)
		for _, n := range []int{1, 3, 4, 5, 8, 37} {
			for trial := 0; trial < 4; trial++ {
				sp := trial%2 == 0
				w, m, v := drawKernel(r, n, sp), drawKernel(r, n, sp), drawKernel(r, n, false)
				for i := range v {
					v[i] = math.Abs(v[i]) * 1e-3
					if sp && r.Intn(3) == 0 {
						v[i] = 0
					}
				}
				ww, wm, wv := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
				for step := 1; step <= 4; step++ {
					c := AdamCoefs{B1: 0.9, C1: 1 - 0.9, B2: 0.999, C2: 1 - 0.999,
						BC1: 1 - math.Pow(0.9, float64(step)), BC2: 1 - math.Pow(0.999, float64(step)), LR: 2e-3, Eps: 1e-8}
					g := drawKernel(r, n, sp)
					grad := append([]float64(nil), g...)
					AdamUpdate(w, grad, m, v, &c)
					for i := range ww {
						wm[i] = fadd(fmul(c.C1, g[i]), fmul(wm[i], c.B1))
						wv[i] = fadd(fmul(fmul(c.C2, g[i]), g[i]), fmul(wv[i], c.B2))
						step := fdiv(fmul(fdiv(wm[i], c.BC1), c.LR), fadd(math.Sqrt(fdiv(wv[i], c.BC2)), c.Eps))
						ww[i] = fsub(ww[i], step)
					}
					for i := range ww {
						what := fmt.Sprintf("n=%d trial %d step %d: ", n, trial, step)
						sameBits(t, what+fmt.Sprintf("m[%d]", i), m[i], wm[i])
						sameBits(t, what+fmt.Sprintf("v[%d]", i), v[i], wv[i])
						sameBits(t, what+fmt.Sprintf("w[%d]", i), w[i], ww[i])
						sameBits(t, what+fmt.Sprintf("grad[%d]", i), grad[i], 0)
					}
				}
			}
		}
	})
}

// benchPaths runs f as a /go sub-benchmark and, where the CPU has AVX2,
// an /avx2 one.
func benchPaths(b *testing.B, f func(b *testing.B)) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = false
	b.Run("go", f)
	if saved {
		useAVX2 = true
		b.Run("avx2", f)
	}
}

// BenchmarkSquaredDistanceCols is one batch-EI distance pass: 128 window
// rows against a 96-candidate pool of 397 coordinates (the runtime-only
// Linux encoding). The loop4 sub-benchmark is the same pass as the
// packed kernel replaced it: the four-column Go loop over the unpacked
// columns, as SquaredDistance4 ran it.
func BenchmarkSquaredDistanceCols(b *testing.B) {
	const rows, m, n = 128, 96, 397
	r := rng.New(1)
	xs := make([][]float64, rows)
	for i := range xs {
		xs[i] = drawKernel(r, n, false)
	}
	cols := make([][]float64, m)
	for j := range cols {
		cols[j] = drawKernel(r, n, false)
	}
	packed := PackColumns(nil, cols, n)
	out := make([]float64, m)
	benchPaths(b, func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for _, x := range xs {
				SquaredDistanceCols(x, packed, m, out)
			}
		}
	})
	b.Run("loop4", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for _, x := range xs {
				for j := 0; j < m; j += 4 {
					out[j], out[j+1], out[j+2], out[j+3] = sqDist4(x, cols[j], cols[j+1], cols[j+2], cols[j+3])
				}
			}
		}
	})
}

// BenchmarkDotCols is one forward pass of the DTM's first dense layer
// over a 128-candidate pool: 64 weight rows of 397 inputs. The dot4
// sub-benchmark is the same pass as the packed kernel replaced it: the
// four-sample Go loop over the unpacked samples, as the dense layer ran
// it.
func BenchmarkDotCols(b *testing.B) {
	const outs, m, n = 64, 128, 397
	r := rng.New(2)
	w := make([][]float64, outs)
	for o := range w {
		w[o] = drawKernel(r, n, false)
	}
	xs := make([][]float64, m)
	for j := range xs {
		xs[j] = drawKernel(r, n, false)
	}
	packed := PackColumns(nil, xs, n)
	out := make([]float64, m)
	benchPaths(b, func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for _, row := range w {
				DotCols(row, packed, m, 0.5, out)
			}
		}
	})
	b.Run("dot4", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for _, row := range w {
				for j := 0; j < m; j += 4 {
					out[j], out[j+1], out[j+2], out[j+3] = dot4(row, xs[j], xs[j+1], xs[j+2], xs[j+3], 0.5)
				}
			}
		}
	})
}
