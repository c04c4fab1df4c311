package nn

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"wayfinder/internal/rng"
)

// numericalGrad estimates dL/dw for one weight by central differences.
func numericalGrad(w *float64, loss func() float64) float64 {
	const h = 1e-5
	orig := *w
	*w = orig + h
	lp := loss()
	*w = orig - h
	lm := loss()
	*w = orig
	return (lp - lm) / (2 * h)
}

func TestDenseForward(t *testing.T) {
	d := NewDense(2, 1, rng.New(1))
	copy(d.Weight.W, []float64{2, 3})
	d.Bias.W[0] = 1
	y := d.Forward([]float64{4, 5}, false)
	if y[0] != 2*4+3*5+1 {
		t.Fatalf("forward = %v", y[0])
	}
}

func TestDenseGradientCheck(t *testing.T) {
	r := rng.New(2)
	d := NewDense(3, 2, r)
	x := []float64{0.5, -1.2, 2.0}
	target := []float64{1.0, -0.5}
	loss := func() float64 {
		y := d.Forward(x, false)
		sum := 0.0
		for i := range y {
			l, _ := MSELoss(y[i], target[i])
			sum += l
		}
		return sum
	}
	// Analytical gradients.
	y := d.Forward(x, false)
	grad := make([]float64, 2)
	for i := range y {
		_, g := MSELoss(y[i], target[i])
		grad[i] = g
	}
	gx := d.Backward(grad)
	for i := range d.Weight.W {
		want := numericalGrad(&d.Weight.W[i], loss)
		if math.Abs(d.Weight.G[i]-want) > 1e-6 {
			t.Fatalf("weight grad[%d] = %v, numerical %v", i, d.Weight.G[i], want)
		}
	}
	for i := range d.Bias.W {
		want := numericalGrad(&d.Bias.W[i], loss)
		if math.Abs(d.Bias.G[i]-want) > 1e-6 {
			t.Fatalf("bias grad[%d] = %v, numerical %v", i, d.Bias.G[i], want)
		}
	}
	// Input gradient via perturbing x.
	for i := range x {
		want := numericalGrad(&x[i], loss)
		if math.Abs(gx[i]-want) > 1e-6 {
			t.Fatalf("input grad[%d] = %v, numerical %v", i, gx[i], want)
		}
	}
}

func TestReLU(t *testing.T) {
	l := NewReLU(3)
	y := l.Forward([]float64{-1, 0, 2}, false)
	if y[0] != 0 || y[1] != 0 || y[2] != 2 {
		t.Fatalf("relu forward = %v", y)
	}
	g := l.Backward([]float64{5, 5, 5})
	if g[0] != 0 || g[1] != 0 || g[2] != 5 {
		t.Fatalf("relu backward = %v", g)
	}
}

func TestDropoutEval(t *testing.T) {
	l := NewDropout(4, 0.5, rng.New(3))
	x := []float64{1, 2, 3, 4}
	y := l.Forward(x, false)
	for i := range x {
		if y[i] != x[i] {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
}

func TestDropoutTrainScaling(t *testing.T) {
	r := rng.New(4)
	l := NewDropout(1, 0.5, r)
	sum, n := 0.0, 20000
	for i := 0; i < n; i++ {
		y := l.Forward([]float64{1}, true)
		sum += y[0]
	}
	// Inverted dropout keeps E[y] = x.
	if mean := sum / float64(n); math.Abs(mean-1) > 0.05 {
		t.Fatalf("dropout expectation = %v, want ~1", mean)
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	r := rng.New(5)
	l := NewDropout(8, 0.5, r)
	y := l.Forward([]float64{1, 1, 1, 1, 1, 1, 1, 1}, true)
	g := l.Backward([]float64{1, 1, 1, 1, 1, 1, 1, 1})
	for i := range y {
		if (y[i] == 0) != (g[i] == 0) {
			t.Fatal("backward mask differs from forward mask")
		}
	}
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("sigmoid(0) != 0.5")
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("sigmoid(-100) = %v", s)
	}
}

func TestCrossEntropyLogits(t *testing.T) {
	grad := make([]float64, 2)
	loss := CrossEntropyLogits([]float64{0, 0}, 0, grad)
	if math.Abs(loss-math.Log(2)) > 1e-9 {
		t.Fatalf("uniform CE = %v", loss)
	}
	if math.Abs(grad[0]+0.5) > 1e-9 || math.Abs(grad[1]-0.5) > 1e-9 {
		t.Fatalf("CE grad = %v", grad)
	}
	// Confident correct prediction → near-zero loss.
	loss = CrossEntropyLogits([]float64{10, -10}, 0, grad)
	if loss > 1e-6 {
		t.Fatalf("confident CE = %v", loss)
	}
}

func TestBCEMatchesGradient(t *testing.T) {
	for _, tc := range []struct{ z, t float64 }{{0.3, 1}, {-2, 0}, {5, 0}, {-5, 1}} {
		z := tc.z
		loss := func() float64 {
			l, _ := BinaryCrossEntropyLogit(z, tc.t)
			return l
		}
		_, g := BinaryCrossEntropyLogit(z, tc.t)
		want := numericalGrad(&z, loss)
		if math.Abs(g-want) > 1e-6 {
			t.Fatalf("BCE grad(z=%v,t=%v) = %v, numerical %v", tc.z, tc.t, g, want)
		}
	}
}

func TestHeteroscedasticGradients(t *testing.T) {
	mu, s, y := 1.3, -0.4, 2.0
	lossMu := func() float64 { l, _, _ := HeteroscedasticLoss(mu, s, y); return l }
	_, dMu, dS := HeteroscedasticLoss(mu, s, y)
	if want := numericalGrad(&mu, lossMu); math.Abs(dMu-want) > 1e-6 {
		t.Fatalf("dMu = %v, numerical %v", dMu, want)
	}
	lossS := func() float64 { l, _, _ := HeteroscedasticLoss(mu, s, y); return l }
	if want := numericalGrad(&s, lossS); math.Abs(dS-want) > 1e-6 {
		t.Fatalf("dLogVar = %v, numerical %v", dS, want)
	}
}

func TestHeteroscedasticAttenuation(t *testing.T) {
	// Larger predicted variance must shrink the residual penalty.
	lLow, _, _ := HeteroscedasticLoss(0, -2, 3)
	lHigh, _, _ := HeteroscedasticLoss(0, 2, 3)
	if lHigh >= lLow {
		t.Fatalf("high-variance loss %v should be below low-variance %v for a large residual", lHigh, lLow)
	}
}

func TestRBFForwardRange(t *testing.T) {
	r := rng.New(6)
	b := NewRBFBank(3, 5, 0.5, r)
	phi := b.Forward([]float64{0.1, -0.3, 0.7}, false)
	for _, p := range phi {
		if p < 0 || p > 1 {
			t.Fatalf("activation out of range: %v", p)
		}
	}
}

func TestRBFPeakAtCentroid(t *testing.T) {
	r := rng.New(7)
	b := NewRBFBank(2, 1, 0.1, r)
	copy(b.Centroids.W, []float64{0.5, -0.5})
	phi := b.Forward([]float64{0.5, -0.5}, false)
	if phi[0] != 1 {
		t.Fatalf("activation at centroid = %v, want 1", phi[0])
	}
	far := b.Forward([]float64{5, 5}, false)
	if far[0] > 1e-10 {
		t.Fatalf("activation far away = %v, want ~0", far[0])
	}
}

func TestRBFGradientCheck(t *testing.T) {
	r := rng.New(8)
	b := NewRBFBank(2, 3, 0.7, r)
	x := []float64{0.2, -0.1}
	loss := func() float64 {
		phi := b.Forward(x, false)
		sum := 0.0
		for _, p := range phi {
			sum += p * p // arbitrary downstream loss ½Σφ² ·2
		}
		return sum
	}
	phi := b.Forward(x, false)
	grad := make([]float64, len(phi))
	for i, p := range phi {
		grad[i] = 2 * p
	}
	gx := b.Backward(grad)
	for i := range b.Centroids.W {
		want := numericalGrad(&b.Centroids.W[i], loss)
		if math.Abs(b.Centroids.G[i]-want) > 1e-5 {
			t.Fatalf("centroid grad[%d] = %v, numerical %v", i, b.Centroids.G[i], want)
		}
	}
	for i := range x {
		want := numericalGrad(&x[i], loss)
		if math.Abs(gx[i]-want) > 1e-5 {
			t.Fatalf("input grad[%d] = %v, numerical %v", i, gx[i], want)
		}
	}
}

func TestRBFOutlierSignal(t *testing.T) {
	// After fitting centroids to a cluster, a far-away sample must produce a
	// much lower max activation — the DTM's uncertainty mechanism.
	r := rng.New(9)
	b := NewRBFBank(2, 4, 0.5, r)
	var batch [][]float64
	for i := 0; i < 50; i++ {
		batch = append(batch, []float64{r.Normal(0, 0.3), r.Normal(0, 0.3)})
	}
	opt := NewSGD(0.05, 0)
	for epoch := 0; epoch < 200; epoch++ {
		b.ChamferLoss(batch)
		opt.Step(b.Params())
	}
	inlier := b.MaxActivation([]float64{0, 0})
	outlier := b.MaxActivation([]float64{6, 6})
	if inlier < 0.5 {
		t.Fatalf("inlier activation = %v, centroids did not fit data", inlier)
	}
	if outlier > 0.01 {
		t.Fatalf("outlier activation = %v, should be near zero", outlier)
	}
}

func TestChamferDecreases(t *testing.T) {
	r := rng.New(10)
	b := NewRBFBank(2, 3, 0.5, r)
	var batch [][]float64
	for i := 0; i < 30; i++ {
		batch = append(batch, []float64{r.Normal(2, 0.5), r.Normal(-1, 0.5)})
	}
	first := b.ChamferLoss(batch)
	for i := range b.Centroids.G {
		b.Centroids.G[i] = 0
	}
	opt := NewSGD(0.05, 0)
	for epoch := 0; epoch < 100; epoch++ {
		b.ChamferLoss(batch)
		opt.Step(b.Params())
	}
	last := b.ChamferLoss(batch)
	if last >= first/2 {
		t.Fatalf("Chamfer loss %v did not substantially decrease from %v", last, first)
	}
}

func TestChamferEmptyBatch(t *testing.T) {
	b := NewRBFBank(2, 3, 0.5, rng.New(11))
	if l := b.ChamferLoss(nil); l != 0 {
		t.Fatalf("empty-batch Chamfer = %v", l)
	}
}

// trainXOR trains a tiny network on XOR with the given optimizer and
// returns the final accuracy.
func trainXOR(t *testing.T, opt Optimizer) float64 {
	t.Helper()
	r := rng.New(12)
	net := &Sequential{Layers: []Layer{
		NewDense(2, 8, r),
		NewReLU(8),
		NewDense(8, 1, r),
	}}
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		for i, x := range xs {
			out := net.Forward(x, true)
			_, g := BinaryCrossEntropyLogit(out[0], ys[i])
			net.Backward([]float64{g})
		}
		opt.Step(net.Params())
	}
	correct := 0
	for i, x := range xs {
		out := net.Forward(x, false)
		if (Sigmoid(out[0]) > 0.5) == (ys[i] > 0.5) {
			correct++
		}
	}
	return float64(correct) / 4
}

func TestXORWithAdam(t *testing.T) {
	if acc := trainXOR(t, NewAdam(0.01)); acc != 1 {
		t.Fatalf("Adam XOR accuracy = %v", acc)
	}
}

func TestXORWithSGDMomentum(t *testing.T) {
	if acc := trainXOR(t, NewSGD(0.1, 0.9)); acc != 1 {
		t.Fatalf("SGD XOR accuracy = %v", acc)
	}
}

func TestHeteroscedasticRegressionLearnsNoise(t *testing.T) {
	// Fit y = 2x with input-dependent noise; the model should learn a
	// higher predicted variance in the noisy region.
	r := rng.New(13)
	net := &Sequential{Layers: []Layer{
		NewDense(1, 16, r),
		NewReLU(16),
		NewDense(16, 2, r), // [mu, logVar]
	}}
	opt := NewAdam(0.005)
	for epoch := 0; epoch < 3000; epoch++ {
		x := r.Float64() // [0,1)
		noise := 0.02
		if x > 0.5 {
			noise = 0.5
		}
		y := 2*x + r.Normal(0, noise)
		out := net.Forward([]float64{x}, true)
		_, dMu, dS := HeteroscedasticLoss(out[0], out[1], y)
		net.Backward([]float64{dMu, dS})
		opt.Step(net.Params())
	}
	quiet := net.Forward([]float64{0.25}, false)[1]
	noisy := net.Forward([]float64{0.75}, false)[1]
	if noisy <= quiet {
		t.Fatalf("predicted logVar: quiet=%v noisy=%v — should be larger in noisy region", quiet, noisy)
	}
	mu := net.Forward([]float64{0.25}, false)[0]
	if math.Abs(mu-0.5) > 0.15 {
		t.Fatalf("mean prediction at 0.25 = %v, want ~0.5", mu)
	}
}

func TestClipGradients(t *testing.T) {
	p := &Param{W: make([]float64, 2), G: []float64{3, 4}} // norm 5
	ClipGradients([]*Param{p}, 1)
	norm := math.Hypot(p.G[0], p.G[1])
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("clipped norm = %v", norm)
	}
	// Below threshold: untouched.
	p2 := &Param{W: make([]float64, 1), G: []float64{0.5}}
	ClipGradients([]*Param{p2}, 1)
	if p2.G[0] != 0.5 {
		t.Fatal("under-norm gradients should be unchanged")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	r := rng.New(14)
	d := NewDense(3, 2, r)
	snap := NewSnapshot()
	snap.Meta["app"] = "redis"
	if err := snap.Save([]string{"w", "b"}, d.Params()); err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap2, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap2.Meta["app"] != "redis" {
		t.Fatal("meta lost")
	}
	d2 := NewDense(3, 2, rng.New(99))
	if err := snap2.Restore([]string{"w", "b"}, d2.Params()); err != nil {
		t.Fatal(err)
	}
	for i := range d.Weight.W {
		if d.Weight.W[i] != d2.Weight.W[i] {
			t.Fatal("weights differ after restore")
		}
	}
}

// TestSnapshotEncodeIsPlainJSON: Encode writes exactly what encoding/json
// writes for a plain struct of the same fields, HTML escapes, U+2028,
// negative zero and exponent forms included.
func TestSnapshotEncodeIsPlainJSON(t *testing.T) {
	type mirror struct {
		Meta    map[string]string    `json:"meta,omitempty"`
		Tensors map[string][]float64 `json:"tensors"`
	}
	for _, snap := range []*Snapshot{
		NewSnapshot(),
		{
			Meta: map[string]string{"app": "<nginx> & redis", "line\u2028sep": "a\u2028b", "b": ""},
			Tensors: map[string][]float64{
				"w": {math.Copysign(0, -1), 1e-7, 1e21, -2.5, 0},
				"b": {},
				"<": nil,
			},
		},
	} {
		got, err := snap.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(mirror{Meta: snap.Meta, Tensors: snap.Tensors})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Encode:\n%s\nencoding/json:\n%s", got, want)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	d := NewDense(2, 2, rng.New(15))
	snap := NewSnapshot()
	if err := snap.Save([]string{"only-one"}, d.Params()); err == nil {
		t.Fatal("mismatched name count should fail")
	}
	if err := snap.Restore([]string{"w", "b"}, d.Params()); err == nil {
		t.Fatal("restore of missing tensors should fail")
	}
	snap.Tensors["w"] = []float64{1}
	snap.Tensors["b"] = []float64{1, 2}
	if err := snap.Restore([]string{"w", "b"}, d.Params()); err == nil {
		t.Fatal("wrong-length tensor should fail")
	}
	if _, err := DecodeSnapshot([]byte("{bad")); err == nil {
		t.Fatal("bad JSON should fail")
	}
}

func BenchmarkDenseForward(b *testing.B) {
	r := rng.New(1)
	d := NewDense(512, 64, r)
	x := make([]float64, 512)
	for i := range x {
		x[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Forward(x, false)
	}
}

func BenchmarkAdamStep(b *testing.B) {
	r := rng.New(1)
	d := NewDense(512, 64, r)
	opt := NewAdam(0.001)
	for i := range d.Weight.G {
		d.Weight.G[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(d.Params())
	}
}
