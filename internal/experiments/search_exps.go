package experiments

import (
	"math"
	"runtime"
	"time"
	"wayfinder/internal/apps"
	"wayfinder/internal/causal"
	"wayfinder/internal/core"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/nn"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/stats"
)

// linuxSessions runs the §4.1 sessions for one application: random,
// DeepTune, and DeepTune+TL (pretrained on Redis), each Seeds times.
type linuxSessions struct {
	app      *simos.App
	random   []*core.Report
	deeptune []*core.Report
	transfer []*core.Report
	// deeptuneSearchers retains one DeepTune searcher per seed for
	// post-hoc audits (Table 3, high-impact parameters).
	deeptuneSearchers []*search.DeepTune
}

// pretrainRedis trains a DeepTune model on Redis and returns its snapshot
// (§4.2: "we trained a model with DeepTune on Redis for 250 iterations").
func pretrainRedis(scale Scale, seed uint64) (*nn.Snapshot, error) {
	m := newLinuxRuntimeFavored(scale, seed)
	app := apps.Redis()
	cfg := deeptune.DefaultConfig()
	cfg.Seed = seed ^ 0x7e15
	s := search.NewDeepTune(m.Space, app.Maximize, cfg)
	if _, err := session(m, app, &core.PerfMetric{App: app}, s,
		core.Options{Iterations: scale.Iterations, Seed: seed ^ 0x7e15}); err != nil {
		return nil, err
	}
	return s.Selector().Model().Snapshot(map[string]string{"app": "redis"})
}

// runLinuxSessions executes the Fig 6 protocol for one application.
func runLinuxSessions(scale Scale, app *simos.App, redisSnap *nn.Snapshot) (*linuxSessions, error) {
	out := &linuxSessions{app: app}
	metric := func() core.Metric { return &core.PerfMetric{App: app} }
	for seed := uint64(1); seed <= uint64(scale.Seeds); seed++ {
		{
			m := newLinuxRuntimeFavored(scale, seed)
			rep, err := session(m, app, metric(), search.NewRandom(m.Space, seed),
				core.Options{Iterations: scale.Iterations, Seed: seed})
			if err != nil {
				return nil, err
			}
			out.random = append(out.random, rep)
		}
		{
			m := newLinuxRuntimeFavored(scale, seed)
			cfg := deeptune.DefaultConfig()
			cfg.Seed = seed
			s := search.NewDeepTune(m.Space, app.Maximize, cfg)
			rep, err := session(m, app, metric(), s,
				core.Options{Iterations: scale.Iterations, Seed: seed})
			if err != nil {
				return nil, err
			}
			out.deeptune = append(out.deeptune, rep)
			out.deeptuneSearchers = append(out.deeptuneSearchers, s)
		}
		if redisSnap != nil {
			m := newLinuxRuntimeFavored(scale, seed)
			cfg := deeptune.DefaultConfig()
			cfg.Seed = seed + 1000
			s := search.NewDeepTune(m.Space, app.Maximize, cfg)
			if err := s.Selector().Model().Restore(redisSnap); err != nil {
				return nil, err
			}
			rep, err := session(m, app, metric(), s,
				core.Options{Iterations: scale.Iterations, Seed: seed + 1000})
			if err != nil {
				return nil, err
			}
			out.transfer = append(out.transfer, rep)
		}
	}
	return out, nil
}

// maxElapsed returns the largest virtual duration across reports.
func maxElapsed(groups ...[]*core.Report) float64 {
	max := 0.0
	for _, g := range groups {
		for _, rep := range g {
			if rep.ElapsedSec > max {
				max = rep.ElapsedSec
			}
		}
	}
	return max
}

// sessionSeries appends the smoothed-metric and crash-rate curves of one
// searcher's runs.
func sessionSeries(res *Result, label string, runs []*core.Report, xMax float64) {
	const gridN = 120
	perf := averageRuns(runs, func(r *core.Report) []float64 {
		return r.SmoothedMetricSeries(0.15)
	}, xMax, gridN)
	perf.Name = label
	crash := averageRuns(runs, func(r *core.Report) []float64 {
		return r.CrashRateSeries(40)
	}, xMax, gridN)
	crash.Name = label + "-crash"
	res.Series = append(res.Series, perf, crash)
}

// Fig6 reproduces Figure 6: for each of the four applications, the
// evolution of configuration performance and crash rate over a search
// session for random search, DeepTune, and DeepTune with transfer
// learning from Redis.
func Fig6(scale Scale) (*Result, error) {
	res := &Result{ID: "fig6", Title: "Search sessions: random vs DeepTune vs DeepTune+TL"}
	redisSnap, err := pretrainRedis(scale, 0x99)
	if err != nil {
		return nil, err
	}
	for _, app := range apps.All() {
		sess, err := runLinuxSessions(scale, app, redisSnap)
		if err != nil {
			return nil, err
		}
		xMax := maxElapsed(sess.random, sess.deeptune, sess.transfer)
		sessionSeries(res, app.Name+"/random", sess.random, xMax)
		sessionSeries(res, app.Name+"/deeptune", sess.deeptune, xMax)
		sessionSeries(res, app.Name+"/deeptune+tl", sess.transfer, xMax)
		res.Tables = append(res.Tables, fig6Summary(app, sess))
	}
	res.Notes = append(res.Notes,
		"paper shape: DeepTune overtakes random after a warm-up; crash rate falls from ~0.3 toward 0.1; TL starts higher and crashes <10%")
	return res, nil
}

func fig6Summary(app *simos.App, sess *linuxSessions) Table {
	row := func(label string, runs []*core.Report) []string {
		var best, lateCrash, overall []float64
		for _, rep := range runs {
			if rep.Best != nil {
				best = append(best, rep.Best.Metric)
			}
			cr := rep.CrashRateSeries(40)
			lateCrash = append(lateCrash, cr[len(cr)-1])
			overall = append(overall, rep.CrashRate())
		}
		return []string{
			label,
			fmtF(meanOf(best), 0),
			fmtF(meanOf(best)/app.Base, 3),
			fmtF(meanOf(overall), 3),
			fmtF(meanOf(lateCrash), 3),
		}
	}
	t := Table{
		Title:   app.Name + " session summary (mean over runs)",
		Columns: []string{"searcher", "best " + app.Unit, "vs default", "crash rate", "late crash rate"},
	}
	t.Rows = append(t.Rows, row("random", sess.random))
	t.Rows = append(t.Rows, row("deeptune", sess.deeptune))
	if len(sess.transfer) > 0 {
		t.Rows = append(t.Rows, row("deeptune+tl", sess.transfer))
	}
	return t
}

// timeToReach returns the virtual time at which a run's metric first came
// within 2% of (or beat) a fixed target — the operationalization of
// Table 2's "avg. time to find". Using one target per application makes
// the TL and no-TL columns directly comparable.
func timeToReach(rep *core.Report, target float64) float64 {
	for _, h := range rep.History {
		if h.Crashed {
			continue
		}
		within := math.Abs(h.Metric-target) <= 0.02*math.Abs(target)
		better := (rep.Maximize && h.Metric >= target) || (!rep.Maximize && h.Metric <= target)
		if within || better {
			return h.EndSec
		}
	}
	return rep.ElapsedSec
}

// Table2 reproduces Table 2: the best configurations found per
// application, their improvement over the default (Lupine-Linux) metric,
// and the average time to find them with and without transfer learning.
func Table2(scale Scale) (*Result, error) {
	res := &Result{ID: "table2", Title: "Best configurations found (Linux, 250-iteration sessions)"}
	redisSnap, err := pretrainRedis(scale, 0x99)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title: "Best-performing configurations",
		Columns: []string{"app", "default", "wayfinder", "unit", "relative",
			"time to find (no TL)", "time to find (TL)"},
	}
	for _, app := range apps.All() {
		sess, err := runLinuxSessions(scale, app, redisSnap)
		if err != nil {
			return nil, err
		}
		var best []float64
		for _, rep := range sess.deeptune {
			if rep.Best != nil {
				best = append(best, rep.Best.Metric)
			}
		}
		// The per-app target is the halfway point between the default and
		// the cold-started sessions' mean best: "time to find a specialized
		// configuration". TL's speedup is how much sooner it gets there —
		// the paper's Fig 6 observation that the transferred model's first
		// configurations already perform far above default.
		coldBest := meanOf(best)
		target := app.Base + 0.5*(coldBest-app.Base)
		if !app.Maximize {
			target = app.Base - 0.5*(app.Base-coldBest)
		}
		var ttfNo, ttfTL []float64
		for _, rep := range sess.deeptune {
			ttfNo = append(ttfNo, timeToReach(rep, target))
		}
		for _, rep := range sess.transfer {
			ttfTL = append(ttfTL, timeToReach(rep, target))
		}
		rel := meanOf(best) / app.Base
		if !app.Maximize {
			rel = app.Base / meanOf(best)
		}
		t.Rows = append(t.Rows, []string{
			app.Name, fmtF(app.Base, 0), fmtF(meanOf(best), 0), app.Unit,
			fmtF(rel, 2) + "x",
			fmtF(meanOf(ttfNo), 0) + "s", fmtF(meanOf(ttfTL), 0) + "s",
		})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"paper: nginx 1.24x, redis 1.14x, sqlite 1.00x, npb 1.02x; TL speeds time-to-find 3.2-4.5x")
	return res, nil
}

// Fig7 reproduces Figure 7: the per-iteration memory consumption and
// execution time of DeepTune vs the Unicorn-style causal optimizer on a
// synthetic dataset with known optima, over a run of the search process.
func Fig7(scale Scale) (*Result, error) {
	res := &Result{ID: "fig7", Title: "Scalability: DeepTune vs Unicorn (causal inference)"}
	const dim = 24
	objective := func(x []float64, r *rng.RNG) float64 {
		// Known global optimum at x0=1, x1=0 with a local optimum ridge.
		return 10*x[0] - 6*x[1] + 3*math.Sin(3*x[2]) + r.Normal(0, 0.2)
	}
	r := rng.New(0xf167)
	// heapBytes is the live-heap size after a fit or update: the
	// accumulated model storage the figure's memory panel plots.
	heapBytes := func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}

	// Unicorn run.
	uni := causal.New(dim, true)
	var uniTime, uniMem, uniWork, uniX []float64
	for i := 0; i < scale.SynthIters; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r.Float64()
		}
		uni.Observe(x, objective(x, r))
		start := time.Now()
		uni.Fit()
		uniX = append(uniX, float64(i))
		uniTime = append(uniTime, time.Since(start).Seconds())
		uniMem = append(uniMem, heapBytes())
		uniWork = append(uniWork, float64(uni.LastStats().Work))
	}

	// DeepTune run: incremental updates on the same growing history.
	cfg := deeptune.DefaultConfig()
	cfg.Epochs = 2
	dtm := deeptune.New(dim, cfg)
	var dtTime, dtMem, dtX []float64
	var xs [][]float64
	var ys []float64
	var crashes []bool
	r2 := rng.New(0xf168)
	for i := 0; i < scale.SynthIters; i++ {
		x := make([]float64, dim)
		for d := range x {
			x[d] = r2.Float64()
		}
		xs = append(xs, x)
		ys = append(ys, objective(x, r2))
		crashes = append(crashes, false)
		// Incremental: train on the most recent window only, the DTM's
		// update policy for unbounded histories.
		lo := 0
		if len(xs) > 128 {
			lo = len(xs) - 128
		}
		start := time.Now()
		if err := dtm.Update(xs[lo:], ys[lo:], crashes[lo:]); err != nil {
			return nil, err
		}
		dtX = append(dtX, float64(i))
		dtTime = append(dtTime, time.Since(start).Seconds())
		dtMem = append(dtMem, heapBytes())
	}
	res.Series = append(res.Series,
		Series{Name: "unicorn-time-s", X: uniX, Y: uniTime},
		Series{Name: "unicorn-work", X: uniX, Y: uniWork},
		Series{Name: "deeptune-time-s", X: dtX, Y: dtTime},
		Series{Name: "unicorn-mem-bytes", X: uniX, Y: uniMem},
		Series{Name: "deeptune-mem-bytes", X: dtX, Y: dtMem},
	)
	// Growth factors: last-decile mean over first-decile mean.
	growth := func(ys []float64) float64 {
		n := len(ys) / 10
		if n == 0 {
			n = 1
		}
		head, tail := meanOf(ys[:n]), meanOf(ys[len(ys)-n:])
		if head <= 0 {
			return math.Inf(1)
		}
		return tail / head
	}
	res.Tables = append(res.Tables, Table{
		Title:   "Per-iteration cost growth (last decile / first decile)",
		Columns: []string{"algorithm", "time growth", "work growth", "memory growth"},
		Rows: [][]string{
			{"unicorn", fmtF(growth(uniTime), 1) + "x", fmtF(float64(uni.LastStats().Work)/1e6, 1) + "M touches (final)", fmtF(growth(uniMem), 1) + "x"},
			{"deeptune", fmtF(growth(dtTime), 1) + "x", "bounded window", fmtF(growth(dtMem), 1) + "x"},
		},
	})
	res.Notes = append(res.Notes,
		"paper shape: Unicorn's per-iteration time and memory grow without bound; DeepTune stays flat")
	return res, nil
}

// Fig8 reproduces Figure 8: the average DeepTune update time vs the
// average configuration-evaluation (test) time for each application.
func Fig8(scale Scale) (*Result, error) {
	res := &Result{ID: "fig8", Title: "DeepTune update time vs configuration test time"}
	t := Table{
		Title:   "Search-loop breakdown (averages per iteration)",
		Columns: []string{"component", "seconds", "kind"},
	}
	var updateCosts []float64
	for _, app := range apps.All() {
		m := newLinuxRuntimeFavored(scale, 1)
		cfg := deeptune.DefaultConfig()
		cfg.Seed = 0xf8
		s := search.NewDeepTune(m.Space, app.Maximize, cfg)
		rep, err := session(m, app, &core.PerfMetric{App: app}, s,
			core.Options{Iterations: scale.Iterations / 2, Seed: 0xf8})
		if err != nil {
			return nil, err
		}
		var testTimes []float64
		for _, h := range rep.History {
			testTimes = append(testTimes, h.EndSec-h.StartSec)
			updateCosts = append(updateCosts, h.DecisionCost.Seconds())
		}
		t.Rows = append(t.Rows, []string{
			app.Name + " test time", fmtF(meanOf(testTimes), 1), "virtual (per evaluation)",
		})
	}
	t.Rows = append([][]string{{
		"DeepTune update", fmtF(meanOf(updateCosts), 3), "wall-clock (per iteration)",
	}}, t.Rows...)
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"paper: update 0.85±0.10 s vs 60-80 s evaluations — the evaluation dominates; "+
			"our update cost is wall-clock on the host, evaluations are virtual seconds")
	return res, nil
}

// Table3 reproduces Table 3: DeepTune's base prediction accuracy — recall
// on failing configurations, recall on running configurations, and the
// normalized MAE of performance predictions — audited on fresh random
// configurations after a training session.
func Table3(scale Scale) (*Result, error) {
	res := &Result{ID: "table3", Title: "DeepTune base prediction accuracy"}
	t := Table{
		Title:   "Prediction accuracy on held-out random configurations",
		Columns: []string{"application", "failure accuracy", "run accuracy", "perf normalized MAE"},
	}
	for ai, app := range apps.All() {
		m := newLinuxRuntimeFavored(scale, 1)
		cfg := deeptune.DefaultConfig()
		cfg.Seed = uint64(0x7a3) + uint64(ai)
		s := search.NewDeepTune(m.Space, app.Maximize, cfg)
		if _, err := session(m, app, &core.PerfMetric{App: app}, s,
			core.Options{Iterations: scale.Iterations, Seed: uint64(0x7a3) + uint64(ai)}); err != nil {
			return nil, err
		}
		model := s.Selector().Model()
		enc := s.Selector().Encoder()
		r := rng.New(uint64(0x7a4) + uint64(ai))
		var failHit, failTot, runHit, runTot float64
		var preds, actual []float64
		for i := 0; i < 400; i++ {
			c := m.Space.Random(r)
			st, _ := m.CrashOutcome(c)
			p := model.Predict(enc.Encode(c))
			if st != simos.StageOK {
				failTot++
				if p.CrashProb > 0.5 {
					failHit++
				}
				continue
			}
			runTot++
			if p.CrashProb <= 0.5 {
				runHit++
			}
			preds = append(preds, p.Perf)
			actual = append(actual, m.Performance(c, app, r))
		}
		nmae := stats.NormalizedMAE(preds, actual)
		t.Rows = append(t.Rows, []string{
			app.Name,
			fmtF(failHit/math.Max(failTot, 1), 3),
			fmtF(runHit/math.Max(runTot, 1), 3),
			fmtF(nmae, 3),
		})
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"paper: failure accuracy 0.74-0.80, run accuracy 0.31-0.46, normalized MAE 0.11-0.36; "+
			"our simulator's crash regions are cleaner than a real kernel's, so run accuracy lands higher")
	return res, nil
}
