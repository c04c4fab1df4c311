package deeptune

import (
	"math"
	"testing"

	"wayfinder/internal/configspace"
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
	if dtm.LastUpdateCost() <= 0 {
		t.Fatal("update cost not recorded")
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
		want := dtm.Predict(x)
		got := batch[i]
		if math.Float64bits(got.CrashProb) != math.Float64bits(want.CrashProb) ||
			math.Float64bits(got.Perf) != math.Float64bits(want.Perf) ||
			math.Float64bits(got.Sigma) != math.Float64bits(want.Sigma) ||
			math.Float64bits(got.Uncertainty) != math.Float64bits(want.Uncertainty) {
			t.Fatalf("cand %d: batch %+v != scalar %+v", i, got, want)
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
		want := dtm.Predict(x)
		if math.Float64bits(out[i].Perf) != math.Float64bits(want.Perf) ||
			math.Float64bits(out[i].CrashProb) != math.Float64bits(want.CrashProb) {
			t.Fatalf("cand %d: untrained batch %+v != scalar %+v", i, out[i], want)
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
