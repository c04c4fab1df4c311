package nn

import (
	"math"
	"testing"

	"wayfinder/internal/rng"
)

// special holds the values the batch kernels must carry exactly as the
// per-sample methods do: signed zeros, subnormals, infinities and NaN.
var special = []float64{math.Copysign(0, -1), 5e-324, -2.5e-310, math.Inf(1), math.Inf(-1), math.NaN()}

// sameBitsSlice fails the test unless got and want hold identical bits.
func sameBitsSlice(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), want %v (%#x)", label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// randRows returns m rows of n values in [-1, 1), with every fifth row
// seeded with the special values when specials is set.
func randRows(r *rng.RNG, m, n int, specials bool) [][]float64 {
	rows := make([][]float64, m)
	for j := range rows {
		rows[j] = make([]float64, n)
		for i := range rows[j] {
			rows[j][i] = 2*r.Float64() - 1
		}
		if specials && j%5 == 2 {
			for k, v := range special {
				rows[j][(k*7)%n] = v
			}
		}
	}
	return rows
}

// cloneDense returns a dense layer with d's weights and gradients.
func cloneDense(d *Dense) *Dense {
	c := NewDense(d.In, d.Out, rng.New(1))
	copy(c.Weight.W, d.Weight.W)
	copy(c.Weight.G, d.Weight.G)
	copy(c.Bias.W, d.Bias.W)
	copy(c.Bias.G, d.Bias.G)
	return c
}

// TestDenseBatchBitIdentical pins the blocked ForwardBatch and
// BackwardBatch to m per-sample Forward/Backward calls, bit for bit, at
// batch sizes around the four-sample block and widths from 2 to 397,
// with special values in the inputs and output gradients, exactly-zero
// gradients (single entries and whole rows) so the sparsity skip runs,
// and input gradients on and off.
func TestDenseBatchBitIdentical(t *testing.T) {
	for _, in := range []int{2, 32, 64, 397} {
		for _, m := range []int{0, 1, 3, 4, 5, 16, 17} {
			r := rng.New(uint64(in*100 + m))
			ref := NewDense(in, 7, r)
			for i := range ref.Weight.G {
				ref.Weight.G[i] = r.Float64() // gradients accumulate onto what is there
			}
			// Specials in two weight rows: 0·Inf is NaN, so an input
			// gradient that adds a skipped output's term shows.
			ref.Weight.W[1] = math.Inf(1)
			ref.Weight.W[3*in+in/2] = math.NaN()
			xs := randRows(r, m, in, true)
			gys := randRows(r, m, ref.Out, m > 3)
			for j, gy := range gys {
				switch j % 4 {
				case 0:
					gy[j%ref.Out] = 0
				case 1:
					gy[(j+3)%ref.Out] = math.Copysign(0, -1)
				case 3:
					clear(gy)
				}
			}
			batch, noInput := cloneDense(ref), cloneDense(ref)

			ys := randRows(r, m, ref.Out, false)
			batch.ForwardBatch(xs, ys)
			wantGx := make([][]float64, m)
			for j, x := range xs {
				sameBitsSlice(t, "forward", ys[j], ref.Forward(x, true))
				wantGx[j] = append([]float64(nil), ref.Backward(gys[j])...)
			}

			gxs := randRows(r, m, in, false) // stale contents must be overwritten
			batch.BackwardBatch(xs, gys, gxs)
			noInput.BackwardBatch(xs, gys, nil)
			for j := range xs {
				sameBitsSlice(t, "input grad", gxs[j], wantGx[j])
			}
			for _, l := range []*Dense{batch, noInput} {
				sameBitsSlice(t, "weight grad", l.Weight.G, ref.Weight.G)
				sameBitsSlice(t, "bias grad", l.Bias.G, ref.Bias.G)
			}
		}
	}
}

// TestReLUBatchBitIdentical pins the in-place batch ReLU to the
// per-sample Forward/Backward, signed zeros and NaN included.
func TestReLUBatchBitIdentical(t *testing.T) {
	r := rng.New(5)
	const m, dim = 6, 11
	xs := randRows(r, m, dim, true)
	gs := randRows(r, m, dim, true)
	l := NewReLU(dim)
	ys := make([][]float64, m)
	for j := range xs {
		ys[j] = append([]float64(nil), xs[j]...)
	}
	l.ForwardBatch(ys)
	gotG := make([][]float64, m)
	for j := range gs {
		gotG[j] = append([]float64(nil), gs[j]...)
	}
	l.BackwardBatch(ys, gotG)
	for j, x := range xs {
		sameBitsSlice(t, "relu forward", ys[j], l.Forward(x, true))
		sameBitsSlice(t, "relu backward", gotG[j], l.Backward(gs[j]))
	}
}

// TestDropoutBatchBitIdentical pins batch dropout to the per-sample
// layer: the same masks drawn in the same order (the RNG ends in the same
// state), the same outputs and the same gradients.
func TestDropoutBatchBitIdentical(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5} {
		r := rng.New(9)
		const m, dim = 7, 13
		xs := randRows(r, m, dim, true)
		gs := randRows(r, m, dim, true)
		ref := NewDropout(dim, p, rng.New(21))
		batch := NewDropout(dim, p, rng.New(21))
		ys := randRows(r, m, dim, false)
		batch.ForwardBatch(xs, ys)
		gotG := make([][]float64, m)
		for j := range gs {
			gotG[j] = append([]float64(nil), gs[j]...)
		}
		batch.BackwardBatch(gotG)
		for j, x := range xs {
			sameBitsSlice(t, "dropout forward", ys[j], ref.Forward(x, true))
			sameBitsSlice(t, "dropout backward", gotG[j], ref.Backward(gs[j]))
		}
		if batch.RNGState() != ref.RNGState() {
			t.Fatalf("p=%v: batch masks left the stream at %v, per-sample at %v", p, batch.RNGState(), ref.RNGState())
		}
	}
}

// scalarForward is the one-centroid-at-a-time RBF activation scan the
// blocked distances must reproduce.
func scalarForward(b *RBFBank, z []float64) []float64 {
	inv := 1 / (2 * b.Gamma * b.Gamma)
	phi := make([]float64, b.K)
	for j := range phi {
		c := b.Centroids.W[j*b.In : (j+1)*b.In]
		d2 := 0.0
		for i, zi := range z {
			d := zi - c[i]
			d2 += d * d
		}
		phi[j] = math.Exp(-d2 * inv)
	}
	return phi
}

// scalarChamfer is the one-centroid-at-a-time Chamfer loss and gradient
// scan the blocked distances must reproduce.
func scalarChamfer(b *RBFBank, batch [][]float64) float64 {
	loss := 0.0
	invZ := 1 / float64(len(batch))
	nearestToC := make([]int, b.K)
	bestForC := make([]float64, b.K)
	for j := range bestForC {
		bestForC[j] = math.Inf(1)
	}
	for zi, z := range batch {
		best, bestJ := math.Inf(1), 0
		for j := 0; j < b.K; j++ {
			c := b.Centroids.W[j*b.In : (j+1)*b.In]
			d2 := 0.0
			for i := range z {
				d := z[i] - c[i]
				d2 += d * d
			}
			if d2 < best {
				best, bestJ = d2, j
			}
			if d2 < bestForC[j] {
				bestForC[j] = d2
				nearestToC[j] = zi
			}
		}
		loss += best * invZ
		c := b.Centroids.W[bestJ*b.In : (bestJ+1)*b.In]
		gc := b.Centroids.G[bestJ*b.In : (bestJ+1)*b.In]
		for i := range z {
			gc[i] += 2 * (c[i] - z[i]) * invZ
		}
	}
	invC := 1 / float64(b.K)
	for j := 0; j < b.K; j++ {
		z := batch[nearestToC[j]]
		c := b.Centroids.W[j*b.In : (j+1)*b.In]
		gc := b.Centroids.G[j*b.In : (j+1)*b.In]
		loss += bestForC[j] * invC
		for i := range z {
			gc[i] += 2 * (c[i] - z[i]) * invC
		}
	}
	return loss
}

// TestRBFBlockedMatchesScalarScan pins Forward, MaxActivation and
// ChamferLoss, which measure distances four centroids at a time, to the
// scalar scan, for bank sizes around the four-centroid block. Inputs
// include signed zeros, subnormals and infinities; NaN is left out
// because the blocked distance subtracts in the opposite operand order,
// which may carry a different NaN payload when both operands are NaN.
func TestRBFBlockedMatchesScalarScan(t *testing.T) {
	for _, k := range []int{1, 3, 4, 5, 24} {
		r := rng.New(uint64(k))
		const in = 9
		b := NewRBFBank(in, k, 1.5, r)
		ref := NewRBFBank(in, k, 1.5, rng.New(1))
		copy(ref.Centroids.W, b.Centroids.W)
		zs := randRows(r, 12, in, false)
		zs[3][2], zs[4][0], zs[5][8] = math.Copysign(0, -1), 5e-324, -2.5e-310
		zs[7][1], zs[8][4] = math.Inf(1), math.Inf(-1)
		copy(zs[9], b.Centroids.W[:in]) // a point on a centroid: φ = 1
		// Exact ties, which the strict < must break toward the earlier
		// index: centroid 0 at 1 and centroid 1 at 2 in every dimension;
		// a point at 1.5 is equidistant from both, and points at 1.5 and
		// 0.5 are equidistant from centroid 0.
		for i := 0; i < in; i++ {
			b.Centroids.W[i], zs[10][i], zs[11][i] = 1, 1.5, 0.5
			if k > 1 {
				b.Centroids.W[in+i] = 2
			}
		}
		copy(ref.Centroids.W, b.Centroids.W)
		for i, z := range zs {
			sameBitsSlice(t, "rbf forward", b.Forward(z, false), scalarForward(ref, z))
			want := 0.0
			for _, p := range scalarForward(ref, z) {
				if p > want {
					want = p
				}
			}
			if got := b.MaxActivation(z); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("K=%d z %d: MaxActivation %v, scalar %v", k, i, got, want)
			}
		}
		for _, batch := range [][][]float64{zs[:1], zs[:6], zs} {
			got, want := b.ChamferLoss(batch), scalarChamfer(ref, batch)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("K=%d: Chamfer loss %v, scalar %v", k, got, want)
			}
			sameBitsSlice(t, "chamfer grad", b.Centroids.G, ref.Centroids.G)
		}
	}
}

// TestAdamStepMatchesReference pins Adam.Step to the textbook update
// written out in full, bit for bit, over several steps.
func TestAdamStepMatchesReference(t *testing.T) {
	r := rng.New(4)
	p := &Param{W: make([]float64, 37), G: make([]float64, 37)}
	for i := range p.W {
		p.W[i] = r.NormFloat64()
	}
	w := append([]float64(nil), p.W...)
	m, v := make([]float64, len(w)), make([]float64, len(w))
	opt := NewAdam(3e-3)
	for step := 1; step <= 5; step++ {
		for i := range p.G {
			p.G[i] = r.NormFloat64()
		}
		p.G[step] = 0
		g := append([]float64(nil), p.G...)
		opt.Step([]*Param{p})
		bc1 := 1 - math.Pow(opt.Beta1, float64(step))
		bc2 := 1 - math.Pow(opt.Beta2, float64(step))
		for i := range w {
			m[i] = opt.Beta1*m[i] + (1-opt.Beta1)*g[i]
			v[i] = opt.Beta2*v[i] + (1-opt.Beta2)*g[i]*g[i]
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			w[i] -= opt.LR * mHat / (math.Sqrt(vHat) + opt.Epsilon)
		}
		sameBitsSlice(t, "adam weights", p.W, w)
		sameBitsSlice(t, "adam zeroed grads", p.G, make([]float64, len(w)))
	}
}
