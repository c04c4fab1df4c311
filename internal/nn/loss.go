package nn

import "math"

// The DTM trains end-to-end on L = L_CCE + L_Reg + L_Cham (§3.2). L_Cham
// lives on RBFBank; the other two are here. Each loss returns its value
// and the gradient with respect to the network outputs, so the caller can
// backpropagate through the producing branch.

// CrossEntropyLogits computes the categorical cross-entropy (L_CCE) over
// raw logits against a one-hot target class, returning the loss and
// writing dL/dlogits (softmax(z) − onehot) into grad, which must hold
// len(logits) entries (it may alias logits). For the DTM the classes are
// {runs, crashes}.
func CrossEntropyLogits(logits []float64, class int, grad []float64) float64 {
	// Stable softmax.
	max := logits[0]
	for _, z := range logits[1:] {
		if z > max {
			max = z
		}
	}
	probs := grad[:len(logits)]
	sum := 0.0
	for i, z := range logits {
		probs[i] = math.Exp(z - max)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	loss := -math.Log(math.Max(probs[class], 1e-12))
	probs[class] -= 1
	return loss
}

// BinaryCrossEntropyLogit computes BCE on a single logit against target
// t∈{0,1} using the numerically-stable log-sum-exp form, returning loss and
// dL/dlogit = σ(z) − t. It is the two-class special case of L_CCE, used by
// the crash head.
func BinaryCrossEntropyLogit(logit, t float64) (float64, float64) {
	// loss = max(z,0) − z·t + log(1 + exp(−|z|))
	loss := math.Max(logit, 0) - logit*t + math.Log1p(math.Exp(-math.Abs(logit)))
	return loss, Sigmoid(logit) - t
}

// HeteroscedasticLoss is Kendall & Gal's regression loss with predicted
// aleatoric uncertainty (L_Reg, §3.2): the network outputs a mean μ and a
// log-variance s := log σ², and
//
//	L = ½·exp(−s)·(y−μ)² + ½·s.
//
// It returns the loss and the gradients (dL/dμ, dL/ds). Predicting s lets
// the model attenuate the loss on intrinsically-noisy samples while being
// penalized for blanket pessimism — the mechanism that gives the DTM its
// per-prediction error estimate.
func HeteroscedasticLoss(mu, logVar, y float64) (loss, dMu, dLogVar float64) {
	// Clamp s to keep exp(−s) finite during early training.
	s := logVar
	if s > 20 {
		s = 20
	}
	if s < -20 {
		s = -20
	}
	inv := math.Exp(-s)
	diff := mu - y
	loss = 0.5*inv*diff*diff + 0.5*s
	dMu = inv * diff
	dLogVar = -0.5*inv*diff*diff + 0.5
	if logVar != s { //wfvet:ignore floateq detects whether the clamp fired; s is either logVar itself or the bound
		// outside the clamp the gradient w.r.t. logVar vanishes
		dLogVar = 0
	}
	return loss, dMu, dLogVar
}

// MSELoss is the plain squared-error loss, ½(μ−y)², returning loss and
// dL/dμ. Used by baselines and tests.
func MSELoss(mu, y float64) (float64, float64) {
	d := mu - y
	return 0.5 * d * d, d
}
