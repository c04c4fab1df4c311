package deeptune

import (
	"fmt"
	"math"
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/nn"
	"wayfinder/internal/rng"
	"wayfinder/internal/stats"
)

// synthProblem builds a labelled dataset over dim features: performance
// depends on features 0 and 1, crashes on feature 2 being high.
func synthProblem(n, dim int, seed uint64) (xs [][]float64, ys []float64, crashed []bool) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		cr := x[2] > 0.8 && r.Chance(0.9)
		y := 100 + 40*x[0] - 25*x[1] + r.Normal(0, 1)
		if cr {
			y = 0
		}
		xs = append(xs, x)
		ys = append(ys, y)
		crashed = append(crashed, cr)
	}
	return
}

func trainedDTM(t *testing.T, n int) (*DTM, [][]float64, []float64, []bool) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Epochs = 40
	dtm := New(8, cfg)
	xs, ys, crashed := synthProblem(n, 8, 1)
	if err := dtm.Update(xs, ys, crashed); err != nil {
		t.Fatal(err)
	}
	return dtm, xs, ys, crashed
}

func TestUpdateValidation(t *testing.T) {
	dtm := New(4, DefaultConfig())
	if err := dtm.Update([][]float64{{1, 2, 3, 4}}, []float64{1, 2}, []bool{false}); err == nil {
		t.Fatal("mismatched lengths should fail")
	}
	if err := dtm.Update(nil, nil, nil); err != nil {
		t.Fatal("empty update should be a no-op")
	}
	if dtm.Trained() != 0 {
		t.Fatal("empty update should not count as training")
	}
}

func TestCrashPrediction(t *testing.T) {
	dtm, _, _, _ := trainedDTM(t, 400)
	// Configurations deep in the crash region vs far from it.
	crashy := []float64{0.5, 0.5, 0.95, 0.5, 0.5, 0.5, 0.5, 0.5}
	safe := []float64{0.5, 0.5, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5}
	pc := dtm.Predict(crashy).CrashProb
	ps := dtm.Predict(safe).CrashProb
	if pc <= ps {
		t.Fatalf("crash-region prob %v should exceed safe-region %v", pc, ps)
	}
	if pc < 0.5 {
		t.Fatalf("crash-region prob = %v, want >0.5", pc)
	}
	if ps > 0.4 {
		t.Fatalf("safe-region prob = %v, want <0.4", ps)
	}
}

func TestPerformancePrediction(t *testing.T) {
	dtm, _, _, _ := trainedDTM(t, 400)
	hi := []float64{0.95, 0.05, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5} // y ≈ 136
	lo := []float64{0.05, 0.95, 0.1, 0.5, 0.5, 0.5, 0.5, 0.5} // y ≈ 78
	ph := dtm.Predict(hi).Perf
	pl := dtm.Predict(lo).Perf
	if ph <= pl {
		t.Fatalf("predicted perf ordering wrong: hi=%v lo=%v", ph, pl)
	}
	if math.Abs(ph-136) > 25 || math.Abs(pl-78) > 25 {
		t.Fatalf("predictions too far off: hi=%v (want ~136) lo=%v (want ~78)", ph, pl)
	}
}

func TestUncertaintyHighForOutliers(t *testing.T) {
	dtm, xs, _, _ := trainedDTM(t, 300)
	inlier := dtm.Predict(xs[0]).Uncertainty
	outlier := make([]float64, 8)
	for i := range outlier {
		outlier[i] = 50 // far outside [0,1] training cube
	}
	uOut := dtm.Predict(outlier).Uncertainty
	if uOut <= inlier {
		t.Fatalf("outlier uncertainty %v should exceed inlier %v", uOut, inlier)
	}
	if uOut < 0.9 {
		t.Fatalf("outlier uncertainty = %v, want ≈1", uOut)
	}
}

func TestSigmaPositive(t *testing.T) {
	dtm, xs, _, _ := trainedDTM(t, 200)
	for _, x := range xs[:20] {
		if s := dtm.Predict(x).Sigma; s <= 0 || math.IsNaN(s) {
			t.Fatalf("sigma = %v", s)
		}
	}
}

func TestIncrementalUpdateCostFlat(t *testing.T) {
	// The defining contrast with GP/causal baselines: per-update cost is
	// bounded by epochs × history, and with fixed epochs the cost per
	// sample stays flat — no superlinear blow-up. We verify update works
	// repeatedly and Trained() counts.
	cfg := DefaultConfig()
	cfg.Epochs = 2
	dtm := New(8, cfg)
	xs, ys, crashed := synthProblem(100, 8, 2)
	for i := 10; i <= 100; i += 10 {
		if err := dtm.Update(xs[:i], ys[:i], crashed[:i]); err != nil {
			t.Fatal(err)
		}
	}
	if dtm.Trained() != 10 {
		t.Fatalf("Trained = %d, want 10", dtm.Trained())
	}
}

func TestDissimilarity(t *testing.T) {
	x := []float64{0.5, 0.5}
	if d := Dissimilarity(x, nil); d != 1 {
		t.Fatalf("empty-history dissimilarity = %v, want 1", d)
	}
	same := Dissimilarity(x, [][]float64{{0.5, 0.5}})
	far := Dissimilarity(x, [][]float64{{10, -10}})
	if same != 0 {
		t.Fatalf("identical-point dissimilarity = %v, want 0", same)
	}
	if far <= same || far > 1 {
		t.Fatalf("far dissimilarity = %v", far)
	}
	// Nearest point governs.
	mixed := Dissimilarity(x, [][]float64{{10, -10}, {0.5, 0.5}})
	if mixed != 0 {
		t.Fatalf("nearest-point rule broken: %v", mixed)
	}
}

// TestDissimilarityBlockedBitIdentical: scanning the explored set four
// points at a time must give bit-for-bit the one-point-at-a-time scan,
// for explored sets below, at and past the block width.
func TestDissimilarityBlockedBitIdentical(t *testing.T) {
	reference := func(x []float64, explored [][]float64) float64 {
		if len(explored) == 0 {
			return 1
		}
		best := math.Inf(1)
		for _, e := range explored {
			if d2 := stats.SquaredDistance(x, e); d2 < best {
				best = d2
			}
		}
		best /= float64(len(x))
		return 1 - 1/(1+best*float64(len(x))/4)
	}
	r := rng.New(9)
	vec := func(dim int) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = r.Float64()
		}
		return v
	}
	for _, dim := range []int{6, 397} {
		for _, n := range []int{0, 1, 5, 64} {
			explored := make([][]float64, n)
			for i := range explored {
				explored[i] = vec(dim)
			}
			for trial := 0; trial < 20; trial++ {
				x := vec(dim)
				if n > 0 && trial%4 == 0 {
					x = append([]float64(nil), explored[r.Intn(n)]...) // an exact hit: distance 0
				}
				got, want := Dissimilarity(x, explored), reference(x, explored)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("dim %d |explored| %d trial %d: Dissimilarity %v != reference %v", dim, n, trial, got, want)
				}
			}
		}
	}
}

func TestScoreBlendsAlphaCorrectly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Alpha = 1 // pure dissimilarity
	dtm := New(4, cfg)
	xs, ys, crashed := synthProblem(50, 4, 3)
	if err := dtm.Update(xs, ys, crashed); err != nil {
		t.Fatal(err)
	}
	explored := [][]float64{{0.5, 0.5, 0.5, 0.5}}
	near := dtm.Score([]float64{0.5, 0.5, 0.5, 0.5}, explored)
	far := dtm.Score([]float64{30, 30, 30, 30}, explored)
	if far <= near {
		t.Fatalf("alpha=1 score should follow dissimilarity: near=%v far=%v", near, far)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	dtm, xs, _, _ := trainedDTM(t, 200)
	snap, err := dtm.Snapshot(map[string]string{"app": "redis"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Meta["app"] != "redis" || snap.Meta["dim"] != "8" {
		t.Fatalf("meta = %v", snap.Meta)
	}
	fresh := New(8, DefaultConfig())
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Restored model needs the z-scorer refit before predictions match;
	// feed it one update with the same data distribution.
	// Weight-level equality is the contract:
	namesA, paramsA := dtm.named()
	_, paramsB := fresh.named()
	for i := range paramsA {
		for j := range paramsA[i].W {
			if paramsA[i].W[j] != paramsB[i].W[j] {
				t.Fatalf("tensor %s differs after restore", namesA[i])
			}
		}
	}
	_ = xs
}

func TestRestoreDimensionMismatch(t *testing.T) {
	dtm := New(8, DefaultConfig())
	snap, err := dtm.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	other := New(16, DefaultConfig())
	if err := other.Restore(snap); err == nil {
		t.Fatal("dimension mismatch should fail")
	}
}

func TestTransferLearningWarmStart(t *testing.T) {
	// A model pre-trained on the problem should predict crashes on fresh
	// samples better than an untrained model (the §3.3 mechanism).
	cfg := DefaultConfig()
	cfg.Epochs = 40
	source := New(8, cfg)
	xs, ys, crashed := synthProblem(400, 8, 4)
	if err := source.Update(xs, ys, crashed); err != nil {
		t.Fatal(err)
	}
	snap, err := source.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	warm := New(8, cfg)
	if err := warm.Restore(snap); err != nil {
		t.Fatal(err)
	}
	// Prime normalization with a tiny related-history update.
	xs2, ys2, crashed2 := synthProblem(20, 8, 5)
	cfgWarm := cfg
	cfgWarm.Epochs = 1
	_ = cfgWarm
	if err := warm.Update(xs2, ys2, crashed2); err != nil {
		t.Fatal(err)
	}
	cold := New(8, cfg)
	if err := cold.Update(xs2, ys2, crashed2); err != nil {
		t.Fatal(err)
	}
	// Evaluate crash classification on held-out data.
	testXs, _, testCrashed := synthProblem(300, 8, 6)
	accOf := func(m *DTM) float64 {
		correct := 0
		for i, x := range testXs {
			if (m.Predict(x).CrashProb > 0.5) == testCrashed[i] {
				correct++
			}
		}
		return float64(correct) / float64(len(testXs))
	}
	warmAcc, coldAcc := accOf(warm), accOf(cold)
	if warmAcc < coldAcc-0.02 {
		t.Fatalf("transfer learning hurt: warm=%v cold=%v", warmAcc, coldAcc)
	}
	if warmAcc < 0.8 {
		t.Fatalf("warm accuracy = %v, want >0.8", warmAcc)
	}
}

// selectorSpace builds a small space with one impactful int, one crashy
// int, and filler.
func selectorSpace() *configspace.Space {
	s := configspace.NewSpace("sel")
	s.MustAdd(&configspace.Param{Name: "good", Type: configspace.Int, Class: configspace.Runtime,
		Min: 0, Max: 100, Default: configspace.IntValue(10)})
	s.MustAdd(&configspace.Param{Name: "danger", Type: configspace.Int, Class: configspace.Runtime,
		Min: 0, Max: 100, Default: configspace.IntValue(10)})
	for i := 0; i < 6; i++ {
		s.MustAdd(&configspace.Param{Name: string(rune('a' + i)), Type: configspace.Int,
			Class: configspace.Runtime, Min: 0, Max: 100, Default: configspace.IntValue(50)})
	}
	return s
}

func TestSelectorEndToEnd(t *testing.T) {
	// DeepTune should outperform pure random on a toy objective with a
	// crash region, within a modest budget.
	space := selectorSpace()
	cfg := DefaultConfig()
	cfg.Epochs = 4
	cfg.Seed = 9
	sel := NewSelector(space, true, cfg)
	enc := sel.Encoder()
	r := rng.New(10)

	objective := func(c *configspace.Config) (float64, bool) {
		g := float64(c.GetInt("good", 0))
		d := float64(c.GetInt("danger", 0))
		crashed := d > 80 && r.Chance(0.9)
		return 50 + g, crashed
	}

	var xs [][]float64
	var ys []float64
	var crashes []bool
	best := 0.0
	crashCount := 0
	const iters = 60
	for i := 0; i < iters; i++ {
		var c *configspace.Config
		if i < 10 {
			c = space.Random(r)
		} else {
			c = sel.Propose()
		}
		y, crashed := objective(c)
		if crashed {
			crashCount++
			y = 0
		} else if y > best {
			best = y
		}
		x := enc.Encode(c)
		xs = append(xs, x)
		ys = append(ys, y)
		crashes = append(crashes, crashed)
		if err := sel.Observe(c, x, y, crashed, xs, ys, crashes); err != nil {
			t.Fatal(err)
		}
	}
	if best < 130 {
		t.Fatalf("selector found best=%v, want near 150", best)
	}
	// Crash avoidance: later proposals should rarely hit the danger zone.
	lateCrashes := 0
	for i := 0; i < 30; i++ {
		c := sel.Propose()
		if c.GetInt("danger", 0) > 80 {
			lateCrashes++
		}
	}
	if lateCrashes > 12 {
		t.Fatalf("selector still proposing danger-zone configs: %d/30", lateCrashes)
	}
}

func TestSelectorColdStartIsRandomish(t *testing.T) {
	space := selectorSpace()
	sel := NewSelector(space, true, DefaultConfig())
	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		seen[sel.Propose().Hash()] = true
	}
	if len(seen) < 5 {
		t.Fatalf("cold-start proposals not diverse: %d unique of 10", len(seen))
	}
}

func TestPredictBatchBitIdentical(t *testing.T) {
	dtm, _, _, _ := trainedDTM(t, 200)
	r := rng.New(21)
	cands := make([][]float64, 96)
	for i := range cands {
		x := make([]float64, 8)
		for d := range x {
			x[d] = 4*r.Float64() - 1 // includes out-of-distribution points
		}
		cands[i] = x
	}
	batch := make([]Prediction, len(cands))
	dtm.PredictBatch(cands, batch)
	for i, x := range cands {
		want := oraclePredict(dtm, x)
		if got := batch[i]; !samePrediction(got, want) {
			t.Fatalf("cand %d: batch %+v != per-sample %+v", i, got, want)
		}
		if got := dtm.Predict(x); !samePrediction(got, want) {
			t.Fatalf("cand %d: Predict %+v != per-sample %+v", i, got, want)
		}
	}
}

func TestPredictBatchUntrainedModel(t *testing.T) {
	// Before the first Update there is no z-scorer and no target stats; the
	// batch path must mirror the scalar path (raw features, sd = 1).
	dtm := New(4, DefaultConfig())
	xs := [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.9, 0.8, 0.7, 0.6}}
	out := make([]Prediction, len(xs))
	dtm.PredictBatch(xs, out)
	for i, x := range xs {
		if want := oraclePredict(dtm, x); !samePrediction(out[i], want) {
			t.Fatalf("cand %d: untrained batch %+v != per-sample %+v", i, out[i], want)
		}
	}
	dtm.PredictBatch(nil, nil) // empty batch is a no-op, not a panic
}

func TestPredictBatchNoAllocsSteadyState(t *testing.T) {
	dtm, xs, _, _ := trainedDTM(t, 100)
	out := make([]Prediction, len(xs))
	dtm.PredictBatch(xs, out) // grow scratch
	allocs := testing.AllocsPerRun(50, func() {
		dtm.PredictBatch(xs, out)
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScorePoolReusesFeatureMatrix pins that pool scoring encodes its
// candidates into the selector-owned matrix: a steady-state pass makes a
// handful of per-pool allocations, none per candidate, and ranks exactly
// as freshly encoded vectors would.
func TestScorePoolReusesFeatureMatrix(t *testing.T) {
	space := selectorSpace()
	cfg := DefaultConfig()
	cfg.Epochs = 2
	sel := NewSelector(space, true, cfg)
	r := rng.New(4)
	var xs [][]float64
	var ys []float64
	var crashes []bool
	for i := 0; i < 6; i++ {
		c := sel.Propose()
		x := sel.Encoder().Encode(c)
		xs, ys, crashes = append(xs, x), append(ys, r.Float64()), append(crashes, false)
		if err := sel.Observe(c, x, ys[i], false, xs, ys, crashes); err != nil {
			t.Fatal(err)
		}
	}
	pool := sel.generatePool()
	ps := sel.scorePool(pool) // grow the matrix
	for i, c := range pool {
		want := sel.Encoder().Encode(c)
		for d := range want {
			if math.Float64bits(ps.xs[i][d]) != math.Float64bits(want[d]) {
				t.Fatalf("candidate %d feature %d: %v, want %v", i, d, ps.xs[i][d], want[d])
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() { sel.scorePool(pool) })
	t.Logf("scorePool: %.0f allocations per pass", allocs)
	if allocs >= float64(len(pool)) {
		t.Fatalf("scorePool allocates %.0f objects per pass of %d candidates: a per-candidate allocation is back", allocs, len(pool))
	}
	if allocs > 8 {
		t.Fatalf("scorePool allocates %.0f objects per pass, want at most 8", allocs)
	}
}

func BenchmarkDTMUpdate(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Epochs = 4
	xs, ys, crashed := synthProblem(250, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtm := New(64, cfg)
		if err := dtm.Update(xs, ys, crashed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDTMPredict(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Epochs = 2
	dtm := New(64, cfg)
	xs, ys, crashed := synthProblem(100, 64, 1)
	if err := dtm.Update(xs, ys, crashed); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtm.Predict(xs[i%len(xs)])
	}
}

// oracleUpdate is the per-sample reference for Update: the training loop
// run one sample at a time through the layers' per-sample Forward and
// Backward, with an optimizer step at each minibatch boundary. Update's
// batch passes must leave the model bit-identical to it.
func oracleUpdate(d *DTM, xs [][]float64, ys []float64, crashed []bool) {
	d.zscorer = stats.FitZScorer(xs)
	d.yStats = stats.Running{}
	for i, y := range ys {
		if !crashed[i] {
			d.yStats.Add(y)
		}
	}
	zcache := make([][]float64, len(xs))
	for i, x := range xs {
		zcache[i] = d.zscorer.Transform(x)
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	trunk, rbf := d.trunkParams(), d.rbfParams()
	var h1batch [][]float64
	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		d.rng.ShuffleInts(idx)
		h1batch = h1batch[:0]
		for bi, i := range idx {
			h1 := d.drop1.Forward(d.relu1.Forward(d.trunk1.Forward(zcache[i], true), true), true)
			h2 := d.drop2.Forward(d.relu2.Forward(d.trunk2.Forward(h1, true), true), true)
			crashLogits := d.crash.Forward(h2, true)
			perfOut := d.perf.Forward(h2, true)
			class := 0
			if crashed[i] {
				class = 1
			}
			gCrash := make([]float64, 2)
			nn.CrossEntropyLogits(crashLogits, class, gCrash)
			gPerf := []float64{0, 0}
			if !crashed[i] {
				_, dMu, dLogVar := nn.HeteroscedasticLoss(perfOut[0], perfOut[1], d.normalizeY(ys[i]))
				gPerf[0], gPerf[1] = dMu, dLogVar
			}
			gh2 := make([]float64, d.cfg.Hidden2)
			for k, g := range d.crash.Backward(gCrash) {
				gh2[k] += g
			}
			for k, g := range d.perf.Backward(gPerf) {
				gh2[k] += g
			}
			g := d.drop2.Backward(gh2)
			g = d.relu2.Backward(g)
			g = d.trunk2.Backward(g)
			g = d.drop1.Backward(g)
			g = d.relu1.Backward(g)
			d.trunk1.Backward(g)
			h1batch = append(h1batch, append([]float64(nil), h1...))
			if (bi+1)%d.cfg.BatchSize == 0 || bi == len(idx)-1 {
				nn.ClipGradients(trunk[:], 5)
				d.opt.Step(trunk[:])
			}
		}
		d.rbfIn.ChamferLoss(zcache)
		d.rbfHid.ChamferLoss(h1batch)
		d.rbfOpt.Step(rbf[:])
	}
	d.trained++
}

// oraclePredict is the per-sample reference for Predict: the eval-mode
// layer chain through the per-sample Forward methods.
func oraclePredict(d *DTM, x []float64) Prediction {
	z := x
	if d.zscorer != nil {
		z = d.zscorer.Transform(x)
	}
	h1 := d.drop1.Forward(d.relu1.Forward(d.trunk1.Forward(z, false), false), false)
	h2 := d.drop2.Forward(d.relu2.Forward(d.trunk2.Forward(h1, false), false), false)
	crashLogits := d.crash.Forward(h2, false)
	perfOut := d.perf.Forward(h2, false)
	sd := d.yStats.StdDev()
	if sd < 1e-9 {
		sd = 1
	}
	u := 1 - 0.5*(d.rbfIn.MaxActivation(z)+d.rbfHid.MaxActivation(h1))
	return Prediction{
		CrashProb:   nn.Sigmoid(crashLogits[1] - crashLogits[0]),
		Perf:        d.denormalizeY(perfOut[0]),
		Sigma:       math.Exp(0.5*stats.Clamp(perfOut[1], -20, 20)) * sd,
		Uncertainty: stats.Clamp(u, 0, 1),
	}
}

// sameVecBits reports whether a and b hold the same float64 bit patterns.
func sameVecBits(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// requireSameModel fails unless the two models' complete dynamic state —
// every tensor, both optimizers' moments and step counts, the shuffle
// and dropout streams, the z-scorer, the target stats and the update
// count — is identical bit for bit.
func requireSameModel(t *testing.T, label string, got, want *DTM) {
	t.Helper()
	g, w := got.State(), want.State()
	names, _ := want.named()
	for _, name := range names {
		if !sameVecBits(g.Tensors[name], w.Tensors[name]) {
			t.Fatalf("%s: tensor %s differs from the per-sample oracle", label, name)
		}
	}
	for _, opt := range []struct {
		name string
		g, w nn.AdamState
	}{{"opt", g.Opt, w.Opt}, {"rbf_opt", g.RBFOpt, w.RBFOpt}} {
		if opt.g.T != opt.w.T {
			t.Fatalf("%s: %s step count %d, oracle %d", label, opt.name, opt.g.T, opt.w.T)
		}
		for i := range opt.w.M {
			if !sameVecBits(opt.g.M[i], opt.w.M[i]) || !sameVecBits(opt.g.V[i], opt.w.V[i]) {
				t.Fatalf("%s: %s moments of parameter %d differ from the oracle", label, opt.name, i)
			}
		}
	}
	if g.RNG != w.RNG || g.Drop1RNG != w.Drop1RNG || g.Drop2RNG != w.Drop2RNG {
		t.Fatalf("%s: RNG streams differ from the oracle", label)
	}
	if (g.ZScorer == nil) != (w.ZScorer == nil) ||
		(g.ZScorer != nil && (!sameVecBits(g.ZScorer.Mean, w.ZScorer.Mean) || !sameVecBits(g.ZScorer.Std, w.ZScorer.Std))) {
		t.Fatalf("%s: z-scorer differs from the oracle", label)
	}
	if !sameVecBits(g.YStats, w.YStats) || g.Trained != w.Trained {
		t.Fatalf("%s: target stats or update count differ from the oracle", label)
	}
}

// TestUpdateMatchesPerSampleOracle trains twin models — one through
// Update's batch passes, one through the per-sample oracle — over a
// sliding history with crashed rows and windows that are not a multiple
// of the batch size, and requires them to agree bit for bit after every
// update, then to predict alike.
func TestUpdateMatchesPerSampleOracle(t *testing.T) {
	const dim = 7
	xsAll, ysAll, crashedAll := synthProblem(90, dim, 11)
	dropless := DefaultConfig()
	dropless.Dropout = 0
	small := DefaultConfig()
	small.BatchSize, small.Epochs, small.Centroids = 5, 3, 5
	donor := New(dim, DefaultConfig())
	if err := donor.Update(xsAll[:40], ysAll[:40], crashedAll[:40]); err != nil {
		t.Fatal(err)
	}
	warmSnap, err := donor.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		warm bool
	}{
		{"default", DefaultConfig(), false},
		{"no-dropout", dropless, false},
		{"batch-5", small, false},
		{"corpus-warm", DefaultConfig(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batch, oracle := New(dim, tc.cfg), New(dim, tc.cfg)
			if tc.warm {
				for _, d := range []*DTM{batch, oracle} {
					if err := d.Restore(warmSnap); err != nil {
						t.Fatal(err)
					}
				}
			}
			// A window of up to 37 observations slides over the stream:
			// 1, 4, …, 37, then full windows at shifting offsets.
			for end := 1; end <= len(xsAll); end += 3 {
				lo := max(0, end-37)
				xs, ys, crashed := xsAll[lo:end], ysAll[lo:end], crashedAll[lo:end]
				if err := batch.Update(xs, ys, crashed); err != nil {
					t.Fatal(err)
				}
				oracleUpdate(oracle, xs, ys, crashed)
				requireSameModel(t, tc.name, batch, oracle)
			}
			probe, _, _ := synthProblem(9, dim, 12)
			probe = append(probe, []float64{40, -3, 0, 1e6, -1e-300, 0, 5})
			out := make([]Prediction, len(probe))
			batch.PredictBatch(probe, out)
			for i, x := range probe {
				if !samePrediction(out[i], oraclePredict(oracle, x)) {
					t.Fatalf("probe %d: batch prediction %+v differs from the oracle's %+v", i, out[i], oraclePredict(oracle, x))
				}
			}
		})
	}
}

func samePrediction(a, b Prediction) bool {
	return math.Float64bits(a.CrashProb) == math.Float64bits(b.CrashProb) &&
		math.Float64bits(a.Perf) == math.Float64bits(b.Perf) &&
		math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma) &&
		math.Float64bits(a.Uncertainty) == math.Float64bits(b.Uncertainty)
}

// TestUpdateSteadyStateAllocations pins that a steady-state Update at a
// fixed window allocates only the z-scorer refit, whatever the epochs and
// the history length.
func TestUpdateSteadyStateAllocations(t *testing.T) {
	for _, n := range []int{5, 17, 64} {
		xs, ys, crashed := synthProblem(n, 12, 3)
		for _, epochs := range []int{1, 6} {
			cfg := DefaultConfig()
			cfg.Epochs = epochs
			d := New(12, cfg)
			if err := d.Update(xs, ys, crashed); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(5, func() { _ = d.Update(xs, ys, crashed) })
			if allocs > 3 {
				t.Fatalf("n=%d epochs=%d: steady-state Update allocates %.0f times, want at most 3 (the z-scorer refit)", n, epochs, allocs)
			}
		}
	}
}

// TestRestoreRejectsMalformedSnapshots mutates one field of a trained
// model's transfer snapshot per row. Each mutation must fail Restore with
// an error and leave the model untouched, instead of restoring into a
// model whose first Predict panics or whose ranking runs backwards.
func TestRestoreRejectsMalformedSnapshots(t *testing.T) {
	const dim = 6
	xs, ys, crashed := synthProblem(40, dim, 2)
	src := New(dim, DefaultConfig())
	if err := src.Update(xs, ys, crashed); err != nil {
		t.Fatal(err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		mutate func(tensors map[string][]float64)
	}{
		{"short zscorer", func(ts map[string][]float64) {
			ts["zscorer.mean"], ts["zscorer.std"] = ts["zscorer.mean"][:2], ts["zscorer.std"][:2]
		}},
		{"zscorer mean only", func(ts map[string][]float64) { delete(ts, "zscorer.std") }},
		{"zscorer std zero", func(ts map[string][]float64) { ts["zscorer.std"][3] = 0 }},
		{"zscorer std negative", func(ts map[string][]float64) { ts["zscorer.std"][0] = -1 }},
		{"zscorer std NaN", func(ts map[string][]float64) { ts["zscorer.std"][1] = nan }},
		{"zscorer std Inf", func(ts map[string][]float64) { ts["zscorer.std"][1] = inf }},
		{"zscorer mean Inf", func(ts map[string][]float64) { ts["zscorer.mean"][5] = -inf }},
		{"trained negative", func(ts map[string][]float64) { ts["trained"] = []float64{-1e9} }},
		{"trained fractional", func(ts map[string][]float64) { ts["trained"] = []float64{2.5} }},
		{"trained NaN", func(ts map[string][]float64) { ts["trained"] = []float64{nan} }},
		{"trained Inf", func(ts map[string][]float64) { ts["trained"] = []float64{inf} }},
		{"trained two fields", func(ts map[string][]float64) { ts["trained"] = []float64{1, 2} }},
		{"ystats n negative", func(ts map[string][]float64) { ts["ystats"][0] = -3 }},
		{"ystats n NaN", func(ts map[string][]float64) { ts["ystats"][0] = nan }},
		{"ystats variance negative", func(ts map[string][]float64) { ts["ystats"][2] = -1 }},
		{"ystats variance NaN", func(ts map[string][]float64) { ts["ystats"][2] = nan }},
		{"ystats variance Inf", func(ts map[string][]float64) { ts["ystats"][2] = inf }},
		{"ystats mean NaN", func(ts map[string][]float64) { ts["ystats"][1] = nan }},
		{"ystats short", func(ts map[string][]float64) { ts["ystats"] = ts["ystats"][:2] }},
		{"tensor short", func(ts map[string][]float64) { ts["perf.b"] = ts["perf.b"][:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := src.Snapshot(nil)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(snap.Tensors)
			dst, twin := New(dim, DefaultConfig()), New(dim, DefaultConfig())
			if err := dst.Restore(snap); err == nil {
				t.Fatal("malformed snapshot restored without error")
			}
			requireSameModel(t, tc.name, dst, twin)
		})
	}
	snap, err := src.Snapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(dim, DefaultConfig())
	if err := dst.Restore(snap); err != nil {
		t.Fatalf("well-formed snapshot: %v", err)
	}
	if got, want := dst.Predict(xs[0]), src.Predict(xs[0]); !samePrediction(got, want) {
		t.Fatalf("restored model predicts %+v, source %+v", got, want)
	}
}

// TestPoolCandidatesHandedOutStayPut pins the pool's in-place redraw: a
// steady-state generatePool allocates nothing, in uniform and in
// mutate-from-default mode, and a configuration a proposal handed out is
// never overwritten by later proposals.
func TestPoolCandidatesHandedOutStayPut(t *testing.T) {
	for _, mutateK := range []int{0, 4} {
		t.Run(fmt.Sprintf("PoolMutateK=%d", mutateK), func(t *testing.T) {
			checkPoolHandedOutStayPut(t, mutateK)
		})
	}
}

func checkPoolHandedOutStayPut(t *testing.T, mutateK int) {
	cfg := DefaultConfig()
	cfg.Epochs = 1
	cfg.PoolMutateK = mutateK
	sel := NewSelector(selectorSpace(), true, cfg)
	r := rng.New(6)
	var xs [][]float64
	var ys []float64
	var crashes []bool
	type held struct {
		c  *configspace.Config
		kv string
	}
	var handedOut []held
	for i := 0; i < 12; i++ {
		for _, c := range sel.ProposeBatch(1+i%3, nil) {
			handedOut = append(handedOut, held{c, c.String()})
		}
		c := handedOut[len(handedOut)-1].c
		x := sel.Encoder().Encode(c)
		xs, ys, crashes = append(xs, x), append(ys, r.Float64()), append(crashes, i%5 == 4)
		if err := sel.Observe(c, x, ys[i], crashes[i], xs, ys, crashes); err != nil {
			t.Fatal(err)
		}
	}
	for i, h := range handedOut {
		if got := h.c.String(); got != h.kv {
			t.Fatalf("proposal %d changed after it was handed out: %s, was %s", i, got, h.kv)
		}
	}
	sel.generatePool() // refill the slots handed out last
	if allocs := testing.AllocsPerRun(10, func() { sel.generatePool() }); allocs != 0 {
		t.Fatalf("steady-state generatePool allocates %.0f times, want 0", allocs)
	}
}

// TestPoolMutateKStream: the in-place mutate-from-default pool draws the
// same candidates from the same RNG stream as mutating a fresh Default,
// and follows the space's default when SetDefaultsFrom rebases it.
func TestPoolMutateKStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PoolMutateK = 3
	space := selectorSpace()
	sel := NewSelector(space, true, cfg)
	ref := rng.New(0)
	for round := 0; round < 3; round++ {
		if round == 2 {
			if err := space.SetDefaultsFrom(space.Random(rng.New(4))); err != nil {
				t.Fatal(err)
			}
		}
		ref.SetState(sel.rng.State())
		for i, c := range sel.generatePool() {
			want := space.Mutate(space.Default(), 1+ref.Intn(cfg.PoolMutateK), ref)
			if !c.Equal(want) {
				t.Fatalf("round %d candidate %d: %s, want %s", round, i, c, want)
			}
		}
		if ref.State() != sel.rng.State() {
			t.Fatalf("round %d: the pool consumed the RNG differently", round)
		}
	}
}
