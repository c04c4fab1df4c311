package nn

import (
	"math"

	"wayfinder/internal/rng"
	"wayfinder/internal/stats"
)

// RBFBank is a Gaussian Radial Basis Function layer (§3.2, Eq. 1): a set of
// K centroids c_j in the input space, each emitting
//
//	φ_j(z) = exp(−‖z − c_j‖² / (2γ²)).
//
// The centroids are learned prototypes of the training distribution; far
// from every prototype all activations collapse toward zero, which is what
// lets the DTM flag outliers and novel configurations with high
// uncertainty. The paper finds γ = 0.1 appropriate for z-scored features.
type RBFBank struct {
	In, K     int
	Gamma     float64
	Centroids *Param // K×In, row-major

	z   []float64 // cached input
	phi []float64

	// ChamferLoss scratch, one entry per centroid: the squared distances
	// from the current data point, and each centroid's nearest data point
	// so far (index and squared distance).
	dist       []float64
	nearestToC []int
	bestForC   []float64

	// Batch scratch: the centroids as rows and packed by
	// stats.PackColumns, repacked by every ChamferLoss and
	// MaxActivationBatch.
	rows   [][]float64
	packed []float64
}

// NewRBFBank creates a bank of k centroids drawn from a standard normal,
// matching z-scored inputs.
func NewRBFBank(in, k int, gamma float64, r *rng.RNG) *RBFBank {
	b := &RBFBank{
		In: in, K: k, Gamma: gamma,
		Centroids:  &Param{W: make([]float64, k*in), G: make([]float64, k*in)},
		phi:        make([]float64, k),
		dist:       make([]float64, k),
		nearestToC: make([]int, k),
		bestForC:   make([]float64, k),
	}
	for i := range b.Centroids.W {
		b.Centroids.W[i] = r.NormFloat64()
	}
	return b
}

// Forward computes the K activations for input z.
func (b *RBFBank) Forward(z []float64, _ bool) []float64 {
	b.z = z
	inv := 1 / (2 * b.Gamma * b.Gamma)
	b.sqDists(z, b.phi)
	for j, d2 := range b.phi {
		b.phi[j] = math.Exp(-d2 * inv)
	}
	return b.phi
}

// sqDists writes ‖z − c_j‖² into out[j] for every centroid, one centroid
// at a time. Every distance sums (c_j − z)² in index order, as the packed
// batch passes do (z−c squares alike; only a NaN payload can tell them
// apart).
func (b *RBFBank) sqDists(z, out []float64) {
	w, in := b.Centroids.W, b.In
	for j := range out[:b.K] {
		out[j] = stats.SquaredDistance(w[j*in:(j+1)*in], z)
	}
}

// pack lays the centroids out for stats.SquaredDistanceCols in the
// bank's scratch.
func (b *RBFBank) pack() {
	w, in := b.Centroids.W, b.In
	if len(b.rows) != b.K {
		b.rows = make([][]float64, b.K)
	}
	for j := range b.rows {
		b.rows[j] = w[j*in : (j+1)*in]
	}
	b.packed = stats.PackColumns(b.packed, b.rows, in)
}

// Backward propagates dL/dφ to the centroids and the input.
func (b *RBFBank) Backward(grad []float64) []float64 {
	g := make([]float64, b.In)
	inv := 1 / (b.Gamma * b.Gamma)
	for j := 0; j < b.K; j++ {
		if grad[j] == 0 { //wfvet:ignore floateq sparsity skip; only exactly-zero gradients are safe to skip
			continue
		}
		c := b.Centroids.W[j*b.In : (j+1)*b.In]
		gc := b.Centroids.G[j*b.In : (j+1)*b.In]
		// dφ/dz_i = φ · (c_i − z_i)/γ² ; dφ/dc_i = −dφ/dz_i.
		scale := grad[j] * b.phi[j] * inv
		for i, zi := range b.z {
			d := c[i] - zi
			g[i] += scale * d
			gc[i] -= scale * d
		}
	}
	return g
}

// Params implements Layer.
func (b *RBFBank) Params() []*Param { return []*Param{b.Centroids} }

// OutDim implements Layer.
func (b *RBFBank) OutDim() int { return b.K }

// MaxActivation returns the largest activation for input z — the bank's
// confidence that z resembles a known prototype. 1−MaxActivation is the
// novelty/uncertainty signal.
func (b *RBFBank) MaxActivation(z []float64) float64 {
	phi := b.Forward(z, false)
	best := 0.0
	for _, p := range phi {
		if p > best {
			best = p
		}
	}
	return best
}

// MaxActivationBatch writes MaxActivation(zs[j]) into out[j] for every
// row of zs, bit for bit: the centroids are packed once, and each row's
// distances come from one stats.SquaredDistanceCols pass. It caches
// nothing for Backward.
func (b *RBFBank) MaxActivationBatch(zs [][]float64, out []float64) {
	if len(zs) == 0 {
		return
	}
	b.pack()
	inv := 1 / (2 * b.Gamma * b.Gamma)
	dist := b.dist[:b.K]
	for i, z := range zs {
		stats.SquaredDistanceCols(z[:b.In], b.packed, b.K, dist)
		best := 0.0
		for _, d2 := range dist {
			if p := math.Exp(-d2 * inv); p > best {
				best = p
			}
		}
		out[i] = best
	}
}

// ChamferLoss computes the Chamfer distance (§3.2, L_Cham) between the
// bank's centroid set C and a batch of latent vectors Z:
//
//	L = (1/|Z|) Σ_z min_c ‖z−c‖² + (1/|C|) Σ_c min_z ‖c−z‖²
//
// and accumulates its gradient into the centroid parameter. Minimizing it
// spreads the centroids over the data distribution so that the prototypes
// fit the training data (the paper's stated purpose).
func (b *RBFBank) ChamferLoss(batch [][]float64) float64 {
	if len(batch) == 0 || b.K == 0 {
		return 0
	}
	loss := 0.0
	// Term 1: each data point pulls its nearest centroid.
	invZ := 1 / float64(len(batch))
	nearestToC, bestForC := b.nearestToC[:b.K], b.bestForC[:b.K] // nearest z per centroid
	for j := range bestForC {
		bestForC[j] = math.Inf(1)
	}
	b.pack()
	for zi, z := range batch {
		stats.SquaredDistanceCols(z[:b.In], b.packed, b.K, b.dist)
		best, bestJ := math.Inf(1), 0
		for j, d2 := range b.dist[:b.K] {
			if d2 < best {
				best, bestJ = d2, j
			}
			if d2 < bestForC[j] {
				bestForC[j] = d2
				nearestToC[j] = zi
			}
		}
		loss += best * invZ
		// ∂/∂c of ‖z−c‖² is 2(c−z), applied to the winning centroid only.
		c := b.Centroids.W[bestJ*b.In : (bestJ+1)*b.In]
		gc := b.Centroids.G[bestJ*b.In : (bestJ+1)*b.In]
		for i := range z {
			gc[i] += 2 * (c[i] - z[i]) * invZ
		}
	}
	// Term 2: each centroid is pulled toward its nearest data point.
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
