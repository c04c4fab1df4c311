// Package nn is a small, dependency-free neural-network library built for
// the DeepTune Model (§3.2 of the paper): dense layers with ReLU and
// dropout, Gaussian RBF layers for the uncertainty branch, the Adam and SGD
// optimizers, and the three losses the DTM trains with — categorical
// cross-entropy for crash prediction, Kendall & Gal's heteroscedastic
// regression loss for performance-with-uncertainty, and the Chamfer
// distance regularizer that fits RBF centroids to the data distribution.
//
// The library works on flat []float64 vectors, sample-at-a-time, which is
// the right operating point for the DTM's small incremental-update batches.
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

// ForwardBatch computes y = W·x + b for a whole batch of inputs in one
// matrix-shaped pass, writing row j of ys for row j of xs. The sweep is
// sample-major — the weight matrix (small, L1-resident) is rescanned per
// sample while each batch row is streamed exactly once, which beats the
// output-major order once the batch outgrows L1 — and each per-sample dot
// accumulates in the identical order to Forward, so the results are
// bit-identical to len(xs) scalar Forward calls. The layer's Backward
// caches are untouched: ForwardBatch is inference-only and safe to
// interleave with training Forward/Backward pairs.
func (d *Dense) ForwardBatch(xs, ys [][]float64) {
	for j, x := range xs {
		y := ys[j]
		for o := 0; o < d.Out; o++ {
			sum := d.Bias.W[o]
			row := d.Weight.W[o*d.In : (o+1)*d.In]
			for i, xi := range x {
				sum += row[i] * xi
			}
			y[o] = sum
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
