package experiments

import (
	"fmt"
	"math"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/core"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/gp"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
)

// streamRepeats is how often each GP add stream is timed on identical
// data. Load on the host only ever adds time to an add, so the per-add
// minimum over the repeats strips it.
const streamRepeats = 3

// minPerAdd runs stream streamRepeats times and keeps each add's minimum
// time.
func minPerAdd(stream func() ([]float64, error)) ([]float64, error) {
	var best []float64
	for r := 0; r < streamRepeats; r++ {
		perAdd, err := stream()
		if err != nil {
			return nil, err
		}
		if best == nil {
			best = perAdd
			continue
		}
		for i, d := range perAdd {
			best[i] = min(best[i], d)
		}
	}
	return best, nil
}

// timeAdds streams n random dim-dimensional observations (seed 1, so
// every call sees the same data) into g and returns each add's host time
// in seconds.
func timeAdds(g *gp.GP, n, dim int) ([]float64, error) {
	r := rng.New(1)
	probe := make([]float64, dim)
	for d := range probe {
		probe[d] = 0.5
	}
	perAdd := make([]float64, n)
	for i := 0; i < n; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		y := r.Float64()
		start := time.Now()
		g.Add(x, y)
		// Predict forces the factor update — the add's real cost.
		if _, _, err := g.Predict(probe); err != nil {
			return nil, err
		}
		perAdd[i] = time.Since(start).Seconds()
	}
	return perAdd, nil
}

// Searcherscale charts the model-side decision cost of the learned
// searchers before and after the incremental surrogate layer (the §2.3
// scalability argument, measured on our own implementation):
//
//   - A Gaussian-process surrogate absorbing SurrogateObs observations
//     one at a time, once with from-scratch O(n³) refactorization per add
//     (the pre-incremental behavior, Θ(T⁴) per session) and once with the
//     O(n²) in-place Cholesky extension (Θ(T³) per session) — the
//     decision-cost-vs-observations curves.
//   - A full Bayesian search session per mode, so the saving is visible
//     in the Fig 8 accounting (per-iteration DecisionCost) and in host
//     wall-clock.
//   - A machine-readable hot-path snapshot (ns/op for the surrogate add
//     paths, native batch proposal, and the DeepTune observe path, plus
//     the end-to-end quick-session wall-clock) — the perf trajectory
//     wfbench -json captures into BENCH_PR4.json-style artifacts.
func Searcherscale(scale Scale) (*Result, error) {
	res := &Result{ID: "searcherscale", Title: "Incremental surrogates: decision cost vs observations"}
	n := scale.SurrogateObs
	if n <= 0 {
		n = 256
	}
	const dim = 6

	// --- GP add-cost curves: refit vs incremental on identical data. ---
	runGP := func(refit bool) (perAdd []float64, total float64, err error) {
		perAdd, err = minPerAdd(func() ([]float64, error) {
			g := gp.New(0.5, 1, 1e-3)
			g.SetForceRefit(refit)
			return timeAdds(g, n, dim)
		})
		if err != nil {
			return nil, 0, err
		}
		for _, d := range perAdd {
			total += d
		}
		return perAdd, total, nil
	}
	refitCurve, refitTotal, err := runGP(true)
	if err != nil {
		return nil, err
	}
	incCurve, incTotal, err := runGP(false)
	if err != nil {
		return nil, err
	}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	res.Series = append(res.Series,
		Series{Name: "gp-add-refit-s", X: xs, Y: refitCurve},
		Series{Name: "gp-add-incremental-s", X: xs, Y: incCurve},
	)
	// Tail cost: mean over the last decile, where the asymptotics dominate.
	tail := func(ys []float64) float64 {
		k := len(ys) / 10
		if k == 0 {
			k = 1
		}
		return meanOf(ys[len(ys)-k:])
	}
	speedup := 0.0
	if t := tail(incCurve); t > 0 {
		speedup = tail(refitCurve) / t
	}
	res.Tables = append(res.Tables, Table{
		Title:   fmt.Sprintf("Surrogate update cost over %d observations (dim %d)", n, dim),
		Columns: []string{"surrogate", "session s", "tail µs/add", "tail speedup"},
		Rows: [][]string{
			{"full-refit", fmtF(refitTotal, 3), fmtF(tail(refitCurve)*1e6, 1), "1.00x"},
			{"incremental", fmtF(incTotal, 3), fmtF(tail(incCurve)*1e6, 1), fmtF(speedup, 2) + "x"},
		},
	})

	// --- Full Bayesian sessions: Fig 8 decision-cost accounting. ---
	app := apps.Nginx()
	runSession := func(refit bool) (*core.Report, float64, error) {
		m := newLinuxRuntimeFavored(scale, 1)
		s := search.NewBayesian(m.Space, true, 1)
		s.SetSurrogateRefit(refit)
		start := time.Now()
		rep, err := session(m, app, &core.PerfMetric{App: app}, s,
			core.Options{Iterations: scale.Iterations, Seed: 1})
		return rep, time.Since(start).Seconds(), err
	}
	refitRep, refitWall, err := runSession(true)
	if err != nil {
		return nil, err
	}
	incRep, incWall, err := runSession(false)
	if err != nil {
		return nil, err
	}
	decisions := func(rep *core.Report) Series {
		s := Series{X: make([]float64, len(rep.History)), Y: make([]float64, len(rep.History))}
		for i, h := range rep.History {
			s.X[i] = float64(i)
			s.Y[i] = h.DecisionCost.Seconds()
		}
		return s
	}
	dRefit := decisions(refitRep)
	dRefit.Name = "bayesian-decision-refit-s"
	dInc := decisions(incRep)
	dInc.Name = "bayesian-decision-incremental-s"
	res.Series = append(res.Series, dRefit, dInc)
	sessionRow := func(label string, rep *core.Report, wall float64) []string {
		best := 0.0
		if rep.Best != nil {
			best = rep.Best.Metric
		}
		total := 0.0
		for _, h := range rep.History {
			total += h.DecisionCost.Seconds()
		}
		return []string{label, fmtF(total, 3), fmtF(wall, 2), fmtF(best, 0)}
	}
	res.Tables = append(res.Tables, Table{
		Title:   fmt.Sprintf("Bayesian session (%d iterations, sequential)", scale.Iterations),
		Columns: []string{"surrogate", "decision s", "host wall s", "best req/s"},
		Rows: [][]string{
			sessionRow("full-refit", refitRep, refitWall),
			sessionRow("incremental", incRep, incWall),
		},
	})

	// --- Hot-path snapshot: the machine-readable perf trajectory. ---
	snapshot := Table{
		Title:   "Hot-path snapshot",
		Columns: []string{"path", "ns/op", "note"},
	}
	snapshot.Rows = append(snapshot.Rows,
		[]string{"gp-add-incremental", fmtF(tail(incCurve)*1e9, 0), fmt.Sprintf("per add at n≈%d", n)},
		[]string{"gp-add-refit", fmtF(tail(refitCurve)*1e9, 0), fmt.Sprintf("per add at n≈%d", n)},
	)
	// Native batch proposal on a warm surrogate: pool scoring + constant-
	// liar fantasization for 8 slots.
	{
		m := newLinuxRuntimeFavored(scale, 1)
		s := search.NewBayesian(m.Space, true, 2)
		r := rng.New(2)
		for i := 0; i < 96; i++ {
			c := m.Space.Random(r)
			s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
		}
		const reps = 8
		start := time.Now()
		for i := 0; i < reps; i++ {
			batch := s.ProposeBatch(8)
			for _, c := range batch {
				s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
			}
		}
		perOp := time.Since(start).Seconds() / reps
		snapshot.Rows = append(snapshot.Rows,
			[]string{"bayesian-propose-batch8", fmtF(perOp*1e9, 0), "8-slot batch + observes, 96-obs surrogate"})
	}
	// DeepTune observe: the incremental DTM retrain (already flat-cost).
	{
		m := newLinuxRuntimeFavored(scale, 1)
		cfg := deeptune.DefaultConfig()
		cfg.Seed = 3
		s := search.NewDeepTune(m.Space, true, cfg)
		r := rng.New(3)
		for i := 0; i < 32; i++ {
			c := m.Space.Random(r)
			s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
		}
		c := m.Space.Random(r)
		start := time.Now()
		s.Observe(search.Observation{Config: c, Metric: 50, Stage: "ok"})
		snapshot.Rows = append(snapshot.Rows,
			[]string{"deeptune-observe", fmtF(time.Since(start).Seconds()*1e9, 0), "incremental DTM retrain, 32-obs history"})
	}
	snapshot.Rows = append(snapshot.Rows,
		[]string{"bayesian-session-incremental", fmtF(incWall*1e9, 0), "end-to-end quick session host wall-clock"},
		[]string{"bayesian-session-refit", fmtF(refitWall*1e9, 0), "end-to-end quick session host wall-clock"})
	res.Tables = append(res.Tables, snapshot)

	res.Notes = append(res.Notes,
		fmt.Sprintf("incremental Cholesky extension makes the surrogate add O(n²) instead of O(n³): tail per-add speedup %.1fx at %d observations", speedup, n),
		"decision cost is host wall-clock (the Fig 8 'update time'); evaluation costs are virtual and unchanged",
	)
	return res, nil
}

// SearcherscaleWindow extends the searcherscale argument to unbounded
// sessions: with a sliding-window surrogate (rank-1 Cholesky downdates)
// the per-decision cost stays flat no matter how long the stream runs,
// where the unbounded surrogate grows as Θ(n²) per add. It also verifies
// — bit for bit — that the batched acquisition paths (one kernel-matrix
// build + one batch solve for the whole candidate pool, and the DTM's
// matrix-shaped pool pass) compute exactly what the scalar loops did,
// and measures what the batching buys.
func SearcherscaleWindow(scale Scale) (*Result, error) {
	res := &Result{ID: "searcherscale-window", Title: "Sliding-window surrogates: flat decision cost on unbounded streams"}
	stream := scale.SurrogateStream
	if stream <= 0 {
		stream = 2500
	}
	window := scale.SurrogateWindow
	if window < 8 {
		window = 256
	}
	// The tail decile must sit well past the 2×window steady-state
	// reference band for the flat-cost comparison to mean anything.
	if stream < 4*window {
		stream = 4 * window
	}
	const dim = 6

	// --- GP add-cost: unbounded vs windowed over a long stream. ---
	runStream := func(n, win int) (perAdd []float64, err error) {
		return minPerAdd(func() ([]float64, error) {
			g := gp.New(0.5, 1, 1e-3)
			if win > 0 {
				if err := g.SetWindow(win); err != nil {
					return nil, err
				}
			}
			return timeAdds(g, n, dim)
		})
	}
	// The unbounded baseline stops at 4×window: its per-add cost keeps
	// growing as Θ(n²) — which is exactly the pathology under test — so
	// streaming it the full distance would measure nothing new, slowly.
	baseN := 4 * window
	if baseN > stream {
		baseN = stream
	}
	unbounded, err := runStream(baseN, 0)
	if err != nil {
		return nil, err
	}
	windowed, err := runStream(stream, window)
	if err != nil {
		return nil, err
	}
	// band averages per-add cost over [center−h, center+h] — single adds
	// are too noisy to pin a ratio on.
	band := func(ys []float64, center int) float64 {
		h := window / 8
		lo, hi := center-h, center+h
		if lo < 0 {
			lo = 0
		}
		if hi > len(ys) {
			hi = len(ys)
		}
		return meanOf(ys[lo:hi])
	}
	tail := func(ys []float64) float64 {
		k := len(ys) / 10
		if k == 0 {
			k = 1
		}
		return meanOf(ys[len(ys)-k:])
	}
	// The flat-cost reference point sits at 2×window, the first band where
	// every add pays the full steady-state extend + rank-1 downdate; a band
	// at the window boundary itself would average in pre-window adds that
	// never downdate and understate the baseline.
	wAtWindow := band(windowed, 2*window)
	wTail := tail(windowed)
	uAtWindow := band(unbounded, 2*window)
	uTail := tail(unbounded)
	flatRatio := 0.0
	if wAtWindow > 0 {
		flatRatio = wTail / wAtWindow
	}
	growthRatio := 0.0
	if uAtWindow > 0 {
		growthRatio = uTail / uAtWindow
	}
	decimate := func(ys []float64) Series {
		stride := len(ys) / 512
		if stride < 1 {
			stride = 1
		}
		var s Series
		for i := 0; i < len(ys); i += stride {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, ys[i])
		}
		return s
	}
	sU := decimate(unbounded)
	sU.Name = "gp-add-unbounded-s"
	sW := decimate(windowed)
	sW.Name = "gp-add-windowed-s"
	res.Series = append(res.Series, sU, sW)
	res.Tables = append(res.Tables, Table{
		Title:   fmt.Sprintf("Surrogate add cost over a %d-observation stream (window %d, dim %d)", stream, window, dim),
		Columns: []string{"surrogate", "obs", fmt.Sprintf("µs/add at %d", 2*window), "µs/add at tail", "tail ratio"},
		Rows: [][]string{
			{"unbounded", fmt.Sprint(baseN), fmtF(uAtWindow*1e6, 1), fmtF(uTail*1e6, 1), fmtF(growthRatio, 2) + "x"},
			{"windowed", fmt.Sprint(stream), fmtF(wAtWindow*1e6, 1), fmtF(wTail*1e6, 1), fmtF(flatRatio, 2) + "x"},
		},
	})

	// --- Batched acquisition: one matrix build + one batch solve for the
	// whole pool, verified bit-identical to the scalar EI loop. ---
	const pool = 96
	var eiLoopNs, eiBatchNs float64
	{
		g := gp.New(0.5, 1, 1e-3)
		if err := g.SetWindow(window); err != nil {
			return nil, err
		}
		r := rng.New(2)
		best := math.Inf(-1)
		for i := 0; i < window+window/2; i++ {
			x := make([]float64, dim)
			for d := range x {
				x[d] = r.Float64()
			}
			y := r.Float64() * 100
			if y > best {
				best = y
			}
			g.Add(x, y)
		}
		cands := make([][]float64, pool)
		for j := range cands {
			cands[j] = make([]float64, dim)
			for d := range cands[j] {
				cands[j][d] = r.Float64()
			}
		}
		const xi = 0.01
		loopEIs := make([]float64, pool)
		batchEIs := make([]float64, pool)
		// Warm both paths so factor sync and scratch growth are not billed.
		if err := g.ExpectedImprovementBatch(cands, best, xi, batchEIs); err != nil {
			return nil, err
		}
		const reps = 64
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for j, c := range cands {
				ei, err := g.ExpectedImprovement(c, best, xi)
				if err != nil {
					return nil, err
				}
				loopEIs[j] = ei
			}
		}
		eiLoopNs = time.Since(start).Seconds() * 1e9 / reps
		start = time.Now()
		for rep := 0; rep < reps; rep++ {
			if err := g.ExpectedImprovementBatch(cands, best, xi, batchEIs); err != nil {
				return nil, err
			}
		}
		eiBatchNs = time.Since(start).Seconds() * 1e9 / reps
		for j := range cands {
			if math.Float64bits(loopEIs[j]) != math.Float64bits(batchEIs[j]) {
				return nil, fmt.Errorf("searcherscale-window: batched EI diverged from the scalar loop at candidate %d: %v != %v",
					j, batchEIs[j], loopEIs[j])
			}
		}
	}

	// --- DTM pool scoring: one matrix-shaped forward pass, verified
	// bit-identical to per-candidate Predict. ---
	var dtmLoopNs, dtmBatchNs float64
	{
		cfg := deeptune.DefaultConfig()
		cfg.Seed = 5
		d := deeptune.New(dim, cfg)
		r := rng.New(5)
		const hist = 64
		xs := make([][]float64, hist)
		ys := make([]float64, hist)
		crashed := make([]bool, hist)
		for i := range xs {
			xs[i] = make([]float64, dim)
			for k := range xs[i] {
				xs[i][k] = r.Float64()
			}
			ys[i] = r.Float64() * 100
			crashed[i] = i%7 == 0
		}
		if err := d.Update(xs, ys, crashed); err != nil {
			return nil, err
		}
		cands := make([][]float64, pool)
		for j := range cands {
			cands[j] = make([]float64, dim)
			for k := range cands[j] {
				cands[j][k] = r.Float64()
			}
		}
		loopPreds := make([]deeptune.Prediction, pool)
		batchPreds := make([]deeptune.Prediction, pool)
		// Warm the batch scratch so the one-time growth is not billed.
		d.PredictBatch(cands, batchPreds)
		const reps = 64
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for j, c := range cands {
				loopPreds[j] = d.Predict(c)
			}
		}
		dtmLoopNs = time.Since(start).Seconds() * 1e9 / reps
		start = time.Now()
		for rep := 0; rep < reps; rep++ {
			d.PredictBatch(cands, batchPreds)
		}
		dtmBatchNs = time.Since(start).Seconds() * 1e9 / reps
		for j := range cands {
			l, b := loopPreds[j], batchPreds[j]
			if math.Float64bits(l.CrashProb) != math.Float64bits(b.CrashProb) ||
				math.Float64bits(l.Perf) != math.Float64bits(b.Perf) ||
				math.Float64bits(l.Sigma) != math.Float64bits(b.Sigma) ||
				math.Float64bits(l.Uncertainty) != math.Float64bits(b.Uncertainty) {
				return nil, fmt.Errorf("searcherscale-window: batched DTM prediction diverged from Predict at candidate %d", j)
			}
		}
	}
	eiSpeedup, dtmSpeedup := 0.0, 0.0
	if eiBatchNs > 0 {
		eiSpeedup = eiLoopNs / eiBatchNs
	}
	if dtmBatchNs > 0 {
		dtmSpeedup = dtmLoopNs / dtmBatchNs
	}
	res.Tables = append(res.Tables, Table{
		Title:   fmt.Sprintf("Batched acquisition over a %d-candidate pool (bit-identical to the scalar loops)", pool),
		Columns: []string{"path", "loop ns/pool", "batch ns/pool", "speedup"},
		Rows: [][]string{
			{"gp-expected-improvement", fmtF(eiLoopNs, 0), fmtF(eiBatchNs, 0), fmtF(eiSpeedup, 2) + "x"},
			{"dtm-score-pool", fmtF(dtmLoopNs, 0), fmtF(dtmBatchNs, 0), fmtF(dtmSpeedup, 2) + "x"},
		},
	})

	// --- End-to-end: the window engaged through Options.SurrogateWindow.
	// The session window is sized to the iteration budget so the sliding
	// window actually slides within the session. ---
	sessWin := scale.Iterations / 2
	if sessWin < 8 {
		sessWin = 8
	}
	app := apps.Nginx()
	runSession := func(win int) (*core.Report, float64, error) {
		m := newLinuxRuntimeFavored(scale, 1)
		s := search.NewBayesian(m.Space, true, 1)
		start := time.Now()
		rep, err := session(m, app, &core.PerfMetric{App: app}, s,
			core.Options{Iterations: scale.Iterations, Seed: 1, SurrogateWindow: win})
		return rep, time.Since(start).Seconds(), err
	}
	unbRep, unbWall, err := runSession(0)
	if err != nil {
		return nil, err
	}
	winRep, winWall, err := runSession(sessWin)
	if err != nil {
		return nil, err
	}
	sessionRow := func(label string, rep *core.Report, wall float64) []string {
		best := 0.0
		if rep.Best != nil {
			best = rep.Best.Metric
		}
		total := 0.0
		for _, h := range rep.History {
			total += h.DecisionCost.Seconds()
		}
		return []string{label, fmtF(total, 3), fmtF(wall, 2), fmtF(best, 0)}
	}
	res.Tables = append(res.Tables, Table{
		Title:   fmt.Sprintf("Bayesian session (%d iterations, window %d, sequential)", scale.Iterations, sessWin),
		Columns: []string{"surrogate", "decision s", "host wall s", "best req/s"},
		Rows: [][]string{
			sessionRow("unbounded", unbRep, unbWall),
			sessionRow(fmt.Sprintf("window-%d", sessWin), winRep, winWall),
		},
	})

	verdict := "PASS"
	if flatRatio > 1.5 {
		verdict = "FAIL"
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("flat-cost check: windowed tail µs/add at obs %d is %.2fx the steady-state cost at obs %d (acceptance ≤ 1.50x): %s",
			stream, flatRatio, 2*window, verdict),
		fmt.Sprintf("unbounded surrogate grew %.2fx over the same span it was allowed to run (%d obs)", growthRatio, baseN),
		"batched EI and batched DTM pool scoring verified bit-identical to the scalar loops before timing them",
	)
	return res, nil
}
