package stats

import (
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
		t.Skip("AVX2 kernels off (no AVX2 on this CPU, or a race-detector build)")
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
