// Package nn is a small, dependency-free neural-network library built for
// the DeepTune Model (§3.2 of the paper): dense layers with ReLU and
// dropout, Gaussian RBF layers for the uncertainty branch, the Adam and SGD
// optimizers, and the three losses the DTM trains with — categorical
// cross-entropy for crash prediction, Kendall & Gal's heteroscedastic
// regression loss for performance-with-uncertainty, and the Chamfer
// distance regularizer that fits RBF centroids to the data distribution.
//
// The library works on flat []float64 vectors. The DTM trains and predicts
// through the batch kernels — Dense.ForwardBatch/BackwardBatch and the
// ReLU and Dropout batch helpers — which run a whole minibatch or
// candidate pool layer by layer, several samples per weight pass. The
// per-sample Layer methods are their reference: every batch kernel
// performs each sample's floating-point operations in the same order as
// the Layer method, so the two agree bit for bit.
package nn

import (
	"math"

	"wayfinder/internal/rng"
)

// Param is one trainable tensor, stored flat, with its gradient
// accumulator.
type Param struct {
	W []float64 // weights
	G []float64 // accumulated gradients
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is a differentiable computation stage.
type Layer interface {
	// Forward computes the layer output for input x. When train is true,
	// stochastic layers (dropout) sample a fresh mask. The layer caches
	// what Backward needs; Forward/Backward pairs must not be interleaved
	// across samples.
	Forward(x []float64, train bool) []float64
	// Backward consumes dL/d(output) and returns dL/d(input), adding
	// parameter gradients to the layer's Params.
	Backward(grad []float64) []float64
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutDim returns the layer's output width.
	OutDim() int
}

// Dense is a fully-connected layer: y = W·x + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out×In, row-major
	Bias    *Param // Out

	x []float64 // cached input
	y []float64
	g []float64 // reusable input-grad buffer

	// BackwardBatch scratch: the nonzero gradient terms of one output
	// (or one sample) and the vectors they scale.
	coefs []float64
	vecs  [][]float64
}

// NewDense returns a dense layer with He-uniform initialization, the
// standard choice ahead of ReLU activations.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		In:     in,
		Out:    out,
		Weight: &Param{W: make([]float64, in*out), G: make([]float64, in*out)},
		Bias:   &Param{W: make([]float64, out), G: make([]float64, out)},
		y:      make([]float64, out),
		g:      make([]float64, in),
	}
	limit := math.Sqrt(6.0 / float64(in))
	for i := range d.Weight.W {
		d.Weight.W[i] = (2*r.Float64() - 1) * limit
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64, _ bool) []float64 {
	d.x = x
	for o := 0; o < d.Out; o++ {
		sum := d.Bias.W[o]
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			sum += row[i] * xi
		}
		d.y[o] = sum
	}
	return d.y
}

// ForwardBatch computes y = W·x + b for a whole batch of inputs, writing
// row j of ys for row j of xs (each at least In, resp. Out, wide). It is
// register-blocked: each pass over a weight row serves four samples, with
// four independent accumulators, and a scalar tail takes the last m mod 4
// samples. Each per-sample dot still starts at the bias and adds
// row[i]*x[i] in index order, exactly as Forward does, so the results are
// bit-identical to len(xs) Forward calls. The layer's per-sample caches
// are untouched: the batch and per-sample paths can be interleaved.
func (d *Dense) ForwardBatch(xs, ys [][]float64) {
	in, w, b := d.In, d.Weight.W, d.Bias.W
	j := 0
	for ; j+4 <= len(xs); j += 4 {
		x0, x1, x2, x3 := xs[j][:in], xs[j+1][:in], xs[j+2][:in], xs[j+3][:in]
		y0, y1, y2, y3 := ys[j], ys[j+1], ys[j+2], ys[j+3]
		for o := 0; o < d.Out; o++ {
			y0[o], y1[o], y2[o], y3[o] = dot4(w[o*in:(o+1)*in], x0, x1, x2, x3, b[o])
		}
	}
	for ; j < len(xs); j++ {
		x, y := xs[j][:in], ys[j]
		for o := 0; o < d.Out; o++ {
			row := w[o*in : (o+1)*in]
			sum := b[o]
			for i, r := range row {
				sum += r * x[i]
			}
			y[o] = sum
		}
	}
}

// dot4 returns bias + row·x_k for four vectors x_k at least len(row)
// long, each summed in index order in its own accumulator — four
// independent add chains where one dot product is a single
// latency-bound chain. It is kept out of line: inlined into
// ForwardBatch's loop nest, its pointers and loop counter spill to the
// stack and the loop runs at a fraction of the speed.
//
//go:noinline
func dot4(row, x0, x1, x2, x3 []float64, bias float64) (s0, s1, s2, s3 float64) {
	x0, x1, x2, x3 = x0[:len(row)], x1[:len(row)], x2[:len(row)], x3[:len(row)]
	s0, s1, s2, s3 = bias, bias, bias, bias
	for i, r := range row {
		s0 += r * x0[i]
		s1 += r * x1[i]
		s2 += r * x2[i]
		s3 += r * x3[i]
	}
	return s0, s1, s2, s3
}

// BackwardBatch is Backward over a batch: row j of gys is dL/d(output) for
// input row xs[j]. It adds every sample's weight and bias gradients to
// the layer's Params in sample order — each gradient element receives
// exactly the additions a Backward loop over the batch would make, in the
// same order, skipping a (sample, output) pair whose gradient is exactly
// zero as Backward does — and, when gxs is non-nil, writes dL/d(input)
// for sample j into gxs[j] (at least In wide). A nil gxs skips the input
// gradients, for a first layer whose input needs none.
func (d *Dense) BackwardBatch(xs, gys, gxs [][]float64) {
	in := d.In
	if cap(d.coefs) < max(len(xs), d.Out) {
		d.coefs = make([]float64, 0, max(len(xs), d.Out))
		d.vecs = make([][]float64, 0, max(len(xs), d.Out))
	}
	for o := 0; o < d.Out; o++ {
		coefs, vecs := d.coefs[:0], d.vecs[:0]
		for j, gy := range gys {
			g := gy[o]
			if g == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
				continue
			}
			coefs, vecs = append(coefs, g), append(vecs, xs[j][:in])
			d.Bias.G[o] += g
		}
		addScaled(d.Weight.G[o*in:(o+1)*in], coefs, vecs)
	}
	if gxs != nil {
		for j, gy := range gys {
			coefs, vecs := d.coefs[:0], d.vecs[:0]
			for o, g := range gy[:d.Out] {
				if g == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
					continue
				}
				coefs, vecs = append(coefs, g), append(vecs, d.Weight.W[o*in:(o+1)*in])
			}
			gx := gxs[j][:in]
			clear(gx)
			addScaled(gx, coefs, vecs)
		}
	}
	clear(d.vecs[:cap(d.vecs)]) // drop the references to the caller's rows
}

// addScaled adds coefs[k]*vecs[k][i] to dst[i] for k in order — the
// accumulation both Dense gradients make, one term per nonzero output
// gradient (per sample for a weight row, per output for an input
// gradient). Four terms share each pass over dst (dst[i] is loaded and
// stored once per four additions), and every dst[i] still receives its
// additions one at a time in k order, so the result is bit-identical to
// adding the terms one pass each.
func addScaled(dst, coefs []float64, vecs [][]float64) {
	k := 0
	for ; k+4 <= len(coefs); k += 4 {
		g0, g1, g2, g3 := coefs[k], coefs[k+1], coefs[k+2], coefs[k+3]
		v0, v1, v2, v3 := vecs[k][:len(dst)], vecs[k+1][:len(dst)], vecs[k+2][:len(dst)], vecs[k+3][:len(dst)]
		for i, a := range dst {
			a += g0 * v0[i]
			a += g1 * v1[i]
			a += g2 * v2[i]
			a += g3 * v3[i]
			dst[i] = a
		}
	}
	for ; k < len(coefs); k++ {
		g, v := coefs[k], vecs[k][:len(dst)]
		for i := range dst {
			dst[i] += g * v[i]
		}
	}
}

// Backward implements Layer.
func (d *Dense) Backward(grad []float64) []float64 {
	for i := range d.g {
		d.g[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		go_ := grad[o]
		if go_ == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
			continue
		}
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		grow := d.Weight.G[o*d.In : (o+1)*d.In]
		for i, xi := range d.x {
			grow[i] += go_ * xi
			d.g[i] += go_ * row[i]
		}
		d.Bias.G[o] += go_
	}
	return d.g
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// OutDim implements Layer.
func (d *Dense) OutDim() int { return d.Out }

// ReLU is the rectified linear activation.
type ReLU struct {
	dim int
	y   []float64
	g   []float64
}

// NewReLU returns a ReLU over dim features.
func NewReLU(dim int) *ReLU {
	return &ReLU{dim: dim, y: make([]float64, dim), g: make([]float64, dim)}
}

// Forward implements Layer.
func (l *ReLU) Forward(x []float64, _ bool) []float64 {
	for i, v := range x {
		if v > 0 {
			l.y[i] = v
		} else {
			l.y[i] = 0
		}
	}
	return l.y
}

// Backward implements Layer.
func (l *ReLU) Backward(grad []float64) []float64 {
	for i := range grad {
		if l.y[i] > 0 {
			l.g[i] = grad[i]
		} else {
			l.g[i] = 0
		}
	}
	return l.g
}

// ForwardBatch applies the ReLU to every row in place, writing +0 where
// Forward does (every entry that is not positive, NaN included). It
// caches nothing: BackwardBatch takes the activations back explicitly.
func (l *ReLU) ForwardBatch(rows [][]float64) {
	for _, row := range rows {
		for i, v := range row {
			if !(v > 0) {
				row[i] = 0
			}
		}
	}
}

// BackwardBatch is Backward over a batch, in place: gs[j][i] becomes +0
// wherever the ForwardBatch output ys[j][i] is not positive, and is kept
// elsewhere.
func (l *ReLU) BackwardBatch(ys, gs [][]float64) {
	for j, g := range gs {
		y := ys[j][:len(g)]
		for i, v := range y {
			if !(v > 0) {
				g[i] = 0
			}
		}
	}
}

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// OutDim implements Layer.
func (l *ReLU) OutDim() int { return l.dim }

// Dropout zeroes each activation with probability P during training and
// scales the survivors by 1/(1-P) (inverted dropout), so inference needs
// no rescaling.
type Dropout struct {
	P   float64
	rng *rng.RNG

	dim  int
	mask []float64
	y    []float64
	g    []float64

	masks [][]float64 // ForwardBatch's masks, one row per sample
}

// NewDropout returns a dropout layer with drop probability p.
func NewDropout(dim int, p float64, r *rng.RNG) *Dropout {
	return &Dropout{
		P: p, rng: r, dim: dim,
		mask: make([]float64, dim),
		y:    make([]float64, dim),
		g:    make([]float64, dim),
	}
}

// Forward implements Layer.
func (l *Dropout) Forward(x []float64, train bool) []float64 {
	if !train || l.P <= 0 {
		copy(l.y, x)
		for i := range l.mask {
			l.mask[i] = 1
		}
		return l.y
	}
	keep := 1 - l.P
	for i, v := range x {
		if l.rng.Float64() < l.P {
			l.mask[i] = 0
			l.y[i] = 0
		} else {
			l.mask[i] = 1 / keep
			l.y[i] = v / keep
		}
	}
	return l.y
}

// RNGState captures the position of the layer's mask stream, which every
// training Forward advances.
func (l *Dropout) RNGState() [4]uint64 { return l.rng.State() }

// SetRNGState restores a mask-stream position captured by RNGState.
func (l *Dropout) SetRNGState(st [4]uint64) { l.rng.SetState(st) }

// Backward implements Layer.
func (l *Dropout) Backward(grad []float64) []float64 {
	for i := range grad {
		l.g[i] = grad[i] * l.mask[i]
	}
	return l.g
}

// ForwardBatch is the training-mode Forward over a batch: row j of ys is
// Forward(xs[j], true). Masks are drawn sample by sample, feature by
// feature, from the layer's own stream — the draws a Forward loop over the
// batch makes — and each survivor is v/keep, as in Forward. The masks are
// cached for BackwardBatch.
func (l *Dropout) ForwardBatch(xs, ys [][]float64) {
	l.masks = GrowMatrix(l.masks, len(xs), l.dim)
	keep := 1 - l.P
	for j, x := range xs {
		y, mask := ys[j][:len(x)], l.masks[j][:len(x)]
		if l.P <= 0 {
			copy(y, x)
			for i := range mask {
				mask[i] = 1
			}
			continue
		}
		for i, v := range x {
			if l.rng.Float64() < l.P {
				mask[i] = 0
				y[i] = 0
			} else {
				mask[i] = 1 / keep
				y[i] = v / keep
			}
		}
	}
}

// BackwardBatch is Backward over the batch of the last ForwardBatch, in
// place: gs[j][i] becomes gs[j][i]·mask.
func (l *Dropout) BackwardBatch(gs [][]float64) {
	for j, g := range gs {
		mask := l.masks[j][:len(g)]
		for i, m := range mask {
			g[i] *= m
		}
	}
}

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// OutDim implements Layer.
func (l *Dropout) OutDim() int { return l.dim }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer
}

// Forward runs the chain.
func (s *Sequential) Forward(x []float64, train bool) []float64 {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward back-propagates through the chain.
func (s *Sequential) Backward(grad []float64) []float64 {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params collects all trainable parameters.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Sigmoid returns 1/(1+e^-x) computed stably.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// GrowMatrix ensures buf has at least rows rows of cols columns each,
// keeping the rows it already has, so batch scratch grown once is reused
// by every later call without allocating.
func GrowMatrix(buf [][]float64, rows, cols int) [][]float64 {
	for len(buf) < rows {
		buf = append(buf, make([]float64, cols))
	}
	return buf
}
