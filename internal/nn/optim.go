package nn

import (
	"fmt"
	"math"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update to every parameter and clears the gradients.
	Step(params []*Param)
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity map[*Param][]float64
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: map[*Param][]float64{}}
}

// Step implements Optimizer.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if o.Momentum > 0 {
			v := o.velocity[p]
			if v == nil {
				v = make([]float64, len(p.W))
				o.velocity[p] = v
			}
			for i := range p.W {
				v[i] = o.Momentum*v[i] - o.LR*p.G[i]
				p.W[i] += v[i]
			}
		} else {
			for i := range p.W {
				p.W[i] -= o.LR * p.G[i]
			}
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer (Kingma & Ba), the DTM's default: incremental
// updates on a stream of new observations need per-parameter step-size
// adaptation to stay stable.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns Adam with the conventional β₁=0.9, β₂=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: map[*Param][]float64{}, v: map[*Param][]float64{},
	}
}

// Step implements Optimizer.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	b1, b2, lr, eps := o.Beta1, o.Beta2, o.LR, o.Epsilon
	c1, c2 := 1-b1, 1-b2
	for _, p := range params {
		m := o.m[p]
		if m == nil {
			m = make([]float64, len(p.W))
			o.m[p] = m
		}
		v := o.v[p]
		if v == nil {
			v = make([]float64, len(p.W))
			o.v[p] = v
		}
		w := p.W
		grad, m, v := p.G[:len(w)], m[:len(w)], v[:len(w)]
		for i := range w {
			g := grad[i]
			m[i] = b1*m[i] + c1*g
			v[i] = b2*v[i] + c2*g*g
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
			grad[i] = 0
		}
	}
}

// AdamState is the dynamic state of an Adam optimizer over an ordered
// parameter list: the step count and each parameter's first and second
// moments, in parameter order. A parameter the optimizer has never
// stepped has nil moments.
type AdamState struct {
	T int   `json:"t"`
	M []Vec `json:"m"`
	V []Vec `json:"v"`
}

// State captures the optimizer's state over params, which must be the
// list its Steps run on. The moments alias the optimizer's buffers:
// serialize the state before the next Step.
func (o *Adam) State(params []*Param) AdamState {
	st := AdamState{T: o.t, M: make([]Vec, len(params)), V: make([]Vec, len(params))}
	for i, p := range params {
		st.M[i], st.V[i] = o.m[p], o.v[p]
	}
	return st
}

// SetState overwrites the optimizer's state with a copy of st, captured
// by State over the corresponding parameter list. Every moment must be nil
// or match its parameter's length; on error the optimizer is unchanged.
func (o *Adam) SetState(params []*Param, st AdamState) error {
	if st.T < 0 {
		return fmt.Errorf("nn: adam step count %d is negative", st.T)
	}
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam state has %d/%d moments for %d params", len(st.M), len(st.V), len(params))
	}
	for i, p := range params {
		for _, mv := range []Vec{st.M[i], st.V[i]} {
			if mv != nil && len(mv) != len(p.W) {
				return fmt.Errorf("nn: adam moment %d has %d entries, parameter wants %d", i, len(mv), len(p.W))
			}
		}
	}
	o.t = st.T
	o.m = make(map[*Param][]float64, len(params))
	o.v = make(map[*Param][]float64, len(params))
	for i, p := range params {
		if st.M[i] != nil {
			o.m[p] = append([]float64(nil), st.M[i]...)
		}
		if st.V[i] != nil {
			o.v[p] = append([]float64(nil), st.V[i]...)
		}
	}
	return nil
}

// ClipGradients scales gradients down so their global L2 norm is at most
// maxNorm, stabilizing incremental updates on small, skewed batches.
func ClipGradients(params []*Param, maxNorm float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.G {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 { //wfvet:ignore floateq guards the division; only an exactly-zero norm is degenerate
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
}
