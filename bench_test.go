// Benchmarks regenerating every table and figure in the paper's
// evaluation (one benchmark per exhibit), plus ablation benchmarks for the
// design choices DESIGN.md calls out. Each benchmark runs its experiment
// at quick scale and reports the key headline number via b.ReportMetric,
// so `go test -bench=. -benchmem` doubles as a miniature reproduction run.
//
// This is an external test package (wayfinder_test): it needs nothing
// unexported from the root package and drives every package it measures
// through exported names only.
package wayfinder_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/experiments"
	"wayfinder/internal/gp"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// benchScale shrinks the experiments so a full -bench=. run stays in CPU
// minutes.
func benchScale() experiments.Scale {
	s := experiments.QuickScale()
	s.Seeds = 1
	s.Iterations = 80
	s.RandomConfigs = 150
	s.PerAppConfigs = 250
	s.TimeBudgetSec = 1800
	s.SynthIters = 40
	s.Workers = 8
	return s
}

// runExp executes an experiment b.N times, reporting the first numeric
// cell of the named column as a custom metric.
func runExp(b *testing.B, id string, metricTable int, metricCol, metricName string) {
	b.Helper()
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, scale)
		if err != nil {
			b.Fatal(err)
		}
		if metricCol != "" && len(res.Tables) > metricTable {
			tab := res.Tables[metricTable]
			for ci, col := range tab.Columns {
				if col != metricCol || len(tab.Rows) == 0 {
					continue
				}
				raw := strings.TrimRight(tab.Rows[0][ci], "x%s")
				if v, err := strconv.ParseFloat(raw, 64); err == nil {
					b.ReportMetric(v, metricName)
				}
			}
		}
	}
}

func BenchmarkFig1KconfigCensus(b *testing.B)   { runExp(b, "fig1", 0, "", "") }
func BenchmarkTable1SpaceCensus(b *testing.B)   { runExp(b, "table1", 0, "runtime", "runtime-options") }
func BenchmarkFig2RandomNginx(b *testing.B)     { runExp(b, "fig2", 0, "max/default", "best-vs-default") }
func BenchmarkFig5CrossSimilarity(b *testing.B) { runExp(b, "fig5", 0, "", "") }
func BenchmarkFig7Scalability(b *testing.B)     { runExp(b, "fig7", 0, "", "") }
func BenchmarkFig8LoopBreakdown(b *testing.B)   { runExp(b, "fig8", 0, "seconds", "update-seconds") }
func BenchmarkTable3PredictionAccuracy(b *testing.B) {
	runExp(b, "table3", 0, "failure accuracy", "failure-accuracy")
}
func BenchmarkFig9Unikraft(b *testing.B)         { runExp(b, "fig9", 0, "", "") }
func BenchmarkFig10MemoryFootprint(b *testing.B) { runExp(b, "fig10", 0, "best MB", "best-mb") }
func BenchmarkFig11CozartSynergy(b *testing.B)   { runExp(b, "fig11", 0, "best score", "best-score") }
func BenchmarkTable4TopScores(b *testing.B)      { runExp(b, "table4", 0, "", "") }

// BenchmarkScalingWorkers runs the worker-scaling study, reporting the
// 1-worker wall-clock (row 0) as the headline metric; the experiment's own
// table carries the speedup curve.
func BenchmarkScalingWorkers(b *testing.B) { runExp(b, "scaling", 0, "wall s", "seq-wall-s") }

// BenchmarkStragglerRecovery runs the straggler study (sync barrier vs
// async bounded-staleness scheduler under a 4x-slow worker), reporting the
// recovered wall-clock fraction.
func BenchmarkStragglerRecovery(b *testing.B) { runExp(b, "straggler", 1, "recovery", "recovery-pct") }

// BenchmarkCacheHitDedup runs the artifact-cache study (shared
// content-addressed store vs per-worker build caches at W=8), reporting
// the duplicate builds the store avoided.
func BenchmarkCacheHitDedup(b *testing.B) { runExp(b, "cachehit", 1, "avoided", "builds-avoided") }

// BenchmarkFleetTopology runs the multi-host study (one fresh image per
// round fanned across the fleet), reporting the wall-clock the all-remote
// topology pays in cross-host transfers.
func BenchmarkFleetTopology(b *testing.B) { runExp(b, "fleet", 1, "transfer cost s", "transfer-s") }

// --- Searcher hot-path benchmarks (the incremental surrogate layer) ---

// BenchmarkGPAddIncremental measures a full 256-observation surrogate
// session: Add one point, force the factor update with a prediction,
// repeat — the model-side loop a Bayesian search session drives. Each add
// extends the Cholesky factor in place (O(n²) per add, Θ(T³) per
// session); internal/gp's BenchmarkGPRefit shows the O(n³)
// refactorization this avoids.
func BenchmarkGPAddIncremental(b *testing.B) {
	const obs = 256
	for i := 0; i < b.N; i++ {
		g := gp.New(0.5, 1, 1e-3)
		r := rng.New(1)
		probe := []float64{0.5, 0.5, 0.5, 0.5}
		for j := 0; j < obs; j++ {
			g.Add([]float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}, r.Float64())
			if _, _, err := g.Predict(probe); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*obs), "ns/add")
}

// BenchmarkGPWindowedAdd streams 512 observations through a 128-window
// surrogate — four windows past the bound, where every add is an extend
// plus a rank-1 downdate. The ns/add figure is the flat steady-state cost
// an unbounded session pays forever; compare BenchmarkGPAddIncremental,
// whose per-add cost is still growing when its session ends.
func BenchmarkGPWindowedAdd(b *testing.B) {
	const obs, window = 512, 128
	for i := 0; i < b.N; i++ {
		g := gp.New(0.5, 1, 1e-3)
		if err := g.SetWindow(window); err != nil {
			b.Fatal(err)
		}
		r := rng.New(1)
		probe := []float64{0.5, 0.5, 0.5, 0.5}
		for j := 0; j < obs; j++ {
			g.Add([]float64{r.Float64(), r.Float64(), r.Float64(), r.Float64()}, r.Float64())
			if _, _, err := g.Predict(probe); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*obs), "ns/add")
}

// linuxEncodings returns n encodings of random runtime-only Linux
// configurations — the 397-wide, mostly one-hot vectors a Bayesian search
// of the Linux space scores — drawn from seed.
func linuxEncodings(n int, seed uint64) [][]float64 {
	m := simos.NewLinux(simos.DefaultLinuxOptions())
	m.Space.Favor(configspace.CompileTime, 0)
	enc := configspace.NewEncoder(m.Space)
	r := rng.New(seed)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = enc.Encode(m.Space.Random(r))
	}
	return xs
}

// The steady-state allocation gates of the search hot paths live in the
// Test…Allocs functions below, which `go test ./...` runs, not in the
// benchmarks that share their fixtures: testing.AllocsPerRun counts every
// allocation in the process, and under -test.cpuprofile the profile
// writer's own allocations land in a benchmark's count. The benchmarks
// keep b.ReportAllocs.

// eiBatchFixture is a warm 128-window surrogate over Linux-space
// encodings and a 96-candidate pool, primed so its batch scratch has
// grown; score runs one steady-state batch EI over the pool.
func eiBatchFixture(tb testing.TB) (score func(), pool int) {
	const window = 128
	pool = 96
	g := gp.New(0.5, 1, 1e-3)
	if err := g.SetWindow(window); err != nil {
		tb.Fatal(err)
	}
	r := rng.New(2)
	best := 0.0
	for _, x := range linuxEncodings(window+window/2, 3) {
		y := r.Float64() * 100
		if y > best {
			best = y
		}
		g.Add(x, y)
	}
	cands := linuxEncodings(pool, 4)
	out := make([]float64, pool)
	score = func() {
		if err := g.ExpectedImprovementBatch(cands, best, 0.01, out); err != nil {
			tb.Fatal(err)
		}
	}
	score()
	return score, pool
}

// TestEIBatchAllocs: a steady-state batch EI allocates nothing; the
// batch scratch is owned by the surrogate.
func TestEIBatchAllocs(t *testing.T) {
	score, _ := eiBatchFixture(t)
	if allocs := testing.AllocsPerRun(8, score); allocs != 0 {
		t.Fatalf("steady-state batch EI allocated %.0f times per op, want 0", allocs)
	}
}

// BenchmarkEIBatch scores a 96-candidate pool against a warm 128-window
// surrogate with one kernel-matrix build and one batched triangular solve
// per op — the acquisition inner loop of every Bayesian proposal — over
// Linux-space encodings, where the kernel-matrix build dominates.
func BenchmarkEIBatch(b *testing.B) {
	score, pool := eiBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pool), "ns/candidate")
}

// dtmScorePoolFixture is a DTM trained on a 64-observation history and a
// 96-candidate pool, primed so the batch scratch has grown; score runs
// one steady-state batch prediction over the pool.
func dtmScorePoolFixture(tb testing.TB) (score func(), pool int) {
	const dim, hist = 6, 64
	pool = 96
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 1
	d := deeptune.New(dim, cfg)
	r := rng.New(3)
	vec := func() []float64 {
		x := make([]float64, dim)
		for k := range x {
			x[k] = r.Float64()
		}
		return x
	}
	xs := make([][]float64, hist)
	ys := make([]float64, hist)
	crashed := make([]bool, hist)
	for i := range xs {
		xs[i], ys[i], crashed[i] = vec(), r.Float64()*100, i%7 == 0
	}
	if err := d.Update(xs, ys, crashed); err != nil {
		tb.Fatal(err)
	}
	cands := make([][]float64, pool)
	for j := range cands {
		cands[j] = vec()
	}
	out := make([]deeptune.Prediction, pool)
	score = func() { d.PredictBatch(cands, out) }
	score()
	return score, pool
}

// TestDTMScorePoolAllocs: steady-state batch scoring allocates nothing;
// the batch rows and packed blocks are DTM-owned scratch, grown once.
func TestDTMScorePoolAllocs(t *testing.T) {
	score, _ := dtmScorePoolFixture(t)
	if allocs := testing.AllocsPerRun(8, score); allocs != 0 {
		t.Fatalf("steady-state batch scoring allocated %.0f times per op, want 0", allocs)
	}
}

// BenchmarkDTMScorePoolBatch runs the DTM over a 96-candidate pool in
// matrix-shaped forward passes, a block of candidates at a time — the
// DeepTune selector's per-proposal pool scoring.
func BenchmarkDTMScorePoolBatch(b *testing.B) {
	score, pool := dtmScorePoolFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pool), "ns/candidate")
}

// dtmUpdateFixture is a DTM at a fixed 64-observation window over the
// runtime-only Linux space, retrained once; update runs one steady-state
// retrain on the same window.
func dtmUpdateFixture(tb testing.TB) (update func()) {
	const window = 64
	m := simos.NewLinux(simos.DefaultLinuxOptions())
	m.Space.Favor(configspace.CompileTime, 0)
	enc := configspace.NewEncoder(m.Space)
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 1
	d := deeptune.New(enc.Dim(), cfg)
	r := rng.New(4)
	xs := make([][]float64, window)
	ys := make([]float64, window)
	crashed := make([]bool, window)
	for i := range xs {
		xs[i], ys[i], crashed[i] = enc.Encode(m.Space.Random(r)), r.Float64()*100, i%7 == 0
	}
	update = func() {
		if err := d.Update(xs, ys, crashed); err != nil {
			tb.Fatal(err)
		}
	}
	update()
	return update
}

// TestDTMUpdateWindowAllocs: each minibatch runs as batch passes over
// DTM-owned scratch, so a steady-state Update allocates only its
// z-scorer refit: at most 3 objects, whatever the epochs or window.
func TestDTMUpdateWindowAllocs(t *testing.T) {
	if allocs := testing.AllocsPerRun(2, dtmUpdateFixture(t)); allocs > 3 {
		t.Fatalf("steady-state Update allocated %.0f times per op, want at most 3 (the z-scorer refit)", allocs)
	}
}

// BenchmarkDTMUpdateWindow measures one steady-state DTM retrain at a
// fixed 64-observation window over the runtime-only Linux space — the
// per-observation Update of the deeptune-resume workload of cmd/wfperf.
func BenchmarkDTMUpdateWindow(b *testing.B) {
	update := dtmUpdateFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
}

// bayesianProposeFixture is a sequential Bayesian searcher on a warm
// 128-window surrogate over the Linux space, as the bayes-window
// workload of cmd/wfperf drives it, past its first proposal; feed
// observes a configuration with a random metric.
func bayesianProposeFixture(tb testing.TB) (s *search.Bayesian, feed func(*configspace.Config)) {
	const window = 128
	m := simos.NewLinux(simos.DefaultLinuxOptions())
	m.Space.Favor(configspace.CompileTime, 0)
	s = search.NewBayesian(m.Space, true, 1)
	if err := s.SetSurrogateWindow(window); err != nil {
		tb.Fatal(err)
	}
	r := rng.New(2)
	feed = func(c *configspace.Config) {
		s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
	}
	for i := 0; i < window+window/4; i++ {
		feed(m.Space.Random(r))
	}
	feed(s.ProposeBatch(1)[0]) // grow the proposal scratch
	return s, feed
}

// TestBayesianProposeAllocs: the candidate pool is redrawn in place, so
// a steady-state sequential proposal allocates only what it hands out:
// the chosen configuration, its values slice and the one-slot batch
// slice.
func TestBayesianProposeAllocs(t *testing.T) {
	s, _ := bayesianProposeFixture(t)
	if allocs := testing.AllocsPerRun(8, func() { s.ProposeBatch(1) }); allocs > 3 {
		t.Fatalf("steady-state sequential proposal allocated %.0f times per op, want at most 3", allocs)
	}
}

// BenchmarkBayesianPropose measures the sequential proposal — the
// ProposeBatch(1) a one-worker session asks for every step — on a warm
// 128-window surrogate over the Linux space.
func BenchmarkBayesianPropose(b *testing.B) {
	s, feed := bayesianProposeFixture(b)
	var batch []*configspace.Config
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = s.ProposeBatch(1)
		b.StopTimer()
		// Observing off the clock keeps the pending set bounded without
		// charging the surrogate updates to the proposal path.
		feed(batch[0])
		b.StartTimer()
	}
}

// BenchmarkBayesianProposeBatch measures the native 8-slot batch proposal
// on a warm surrogate: one shared 96-candidate pool scored per slot, with
// constant-liar fantasized observations conditioning later slots.
func BenchmarkBayesianProposeBatch(b *testing.B) {
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 80, FillerBoot: 10, FillerCompile: 30, Seed: 1})
	m.Space.Favor(configspace.CompileTime, 0)
	s := search.NewBayesian(m.Space, true, 1)
	r := rng.New(2)
	feed := func(c *configspace.Config) {
		s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
	}
	for i := 0; i < 96; i++ {
		feed(m.Space.Random(r))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := s.ProposeBatch(8)
		b.StopTimer()
		// Observing off the clock keeps the pending set bounded without
		// charging the surrogate updates to the proposal path.
		for _, c := range batch {
			feed(c)
		}
		b.StartTimer()
	}
}

// BenchmarkDeepTuneObserve measures one DTM incremental retrain — the
// per-iteration model update the paper's Fig 8 reports as flat-cost.
func BenchmarkDeepTuneObserve(b *testing.B) {
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 80, FillerBoot: 10, FillerCompile: 30, Seed: 1})
	m.Space.Favor(configspace.CompileTime, 0)
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 1
	s := search.NewDeepTune(m.Space, true, cfg)
	r := rng.New(3)
	for i := 0; i < 32; i++ {
		c := m.Space.Random(r)
		s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Space.Random(r)
		s.Observe(search.Observation{Config: c, Metric: r.Float64() * 100, Stage: "ok"})
	}
}

// BenchmarkParallelSession measures the real (host) cost of one 8-worker
// session against the sequential baseline at an equal iteration budget —
// for both schedulers, so the CI bench smoke (which runs under the race
// detector) exercises the async event-queue path on every push. Note the
// async rows are not a host-speedup comparison: past the initial fill the
// event-driven scheduler dispatches one evaluation per observation (a
// data dependency), so its host execution is nearly serial by design.
func BenchmarkParallelSession(b *testing.B) {
	run := func(b *testing.B, opts core.Options) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			app := apps.Nginx()
			m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 80, FillerBoot: 10, FillerCompile: 30, Seed: 1})
			m.Space.Favor(configspace.CompileTime, 0)
			s := search.NewRandom(m.Space, 1)
			var clock vm.Clock
			eng := core.NewEngine(m, app, &core.PerfMetric{App: app}, s, &clock, 1)
			rep, err := runSession(eng, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.ElapsedSec, "virtual-wall-s")
			b.ReportMetric(100*rep.Utilization, "utilization-pct")
		}
	}
	for _, workers := range []int{1, 8} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			run(b, core.Options{Iterations: 160, Seed: 1, Workers: workers})
		})
	}
	b.Run("workers=8/async", func(b *testing.B) {
		run(b, core.Options{Iterations: 160, Seed: 1, Workers: 8, Async: true, Staleness: -1})
	})
	b.Run("workers=8/async/staleness=2", func(b *testing.B) {
		run(b, core.Options{Iterations: 160, Seed: 1, Workers: 8, Async: true, Staleness: 2})
	})
	// Multi-host sessions exercise the artifact store's fetch/await paths
	// (and, under -race, the two-wave ticket handoff) for both schedulers.
	b.Run("workers=8/hosts=4", func(b *testing.B) {
		run(b, core.Options{Iterations: 160, Seed: 1, Workers: 8, Hosts: 4})
	})
	b.Run("workers=8/hosts=4/async", func(b *testing.B) {
		run(b, core.Options{Iterations: 160, Seed: 1, Workers: 8, Hosts: 4, Async: true, Staleness: -1})
	})
}

// BenchmarkFig6SearchNginx runs the Fig 6a protocol (random vs DeepTune vs
// DeepTune+TL) for Nginx only, reporting DeepTune's best-found throughput.
func BenchmarkFig6SearchNginx(b *testing.B) {
	scale := benchScale()
	for i := 0; i < b.N; i++ {
		app := apps.Nginx()
		m := simos.NewLinux(scale.Linux)
		m.Space.Favor(configspace.CompileTime, 0)
		cfg := deeptune.DefaultConfig()
		s := search.NewDeepTune(m.Space, true, cfg)
		var clock vm.Clock
		eng := core.NewEngine(m, app, &core.PerfMetric{App: app}, s, &clock, 1)
		rep, err := runSession(eng, core.Options{Iterations: scale.Iterations, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Best != nil {
			b.ReportMetric(rep.Best.Metric, "req/s")
		}
	}
}

// BenchmarkTable2BestConfigs runs the Table 2 pipeline at bench scale.
func BenchmarkTable2BestConfigs(b *testing.B) {
	scale := benchScale()
	scale.Iterations = 60
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(scale); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §Key design decisions) ---

// ablationSession runs one DeepTune session with the given config tweak
// and reports best throughput and crash count.
func ablationSession(b *testing.B, mutate func(*deeptune.Config)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		app := apps.Nginx()
		m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 80, FillerBoot: 10, FillerCompile: 20, Seed: 1})
		m.Space.Favor(configspace.CompileTime, 0)
		cfg := deeptune.DefaultConfig()
		mutate(&cfg)
		s := search.NewDeepTune(m.Space, true, cfg)
		var clock vm.Clock
		eng := core.NewEngine(m, app, &core.PerfMetric{App: app}, s, &clock, 1)
		rep, err := runSession(eng, core.Options{Iterations: 80, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Best != nil {
			b.ReportMetric(rep.Best.Metric, "req/s")
		}
		b.ReportMetric(float64(rep.Crashes), "crashes")
	}
}

// BenchmarkAblationBaseline is the reference DeepTune configuration.
func BenchmarkAblationBaseline(b *testing.B) {
	ablationSession(b, func(*deeptune.Config) {})
}

// BenchmarkAblationNoUncertainty removes the RBF uncertainty term from the
// scoring function (α=1: pure dissimilarity).
func BenchmarkAblationNoUncertainty(b *testing.B) {
	ablationSession(b, func(c *deeptune.Config) { c.Alpha = 1 })
}

// BenchmarkAblationNoCrashHead disables crash gating (threshold 1 accepts
// everything), isolating the value of failure prediction.
func BenchmarkAblationNoCrashHead(b *testing.B) {
	ablationSession(b, func(c *deeptune.Config) { c.CrashThreshold = 1.01 })
}

// BenchmarkAblationAlphaSweep reports best throughput across the Eq. 3
// α grid, the paper's 0.5 recommendation among them.
func BenchmarkAblationAlphaSweep(b *testing.B) {
	for _, alpha := range []float64{0.0, 0.25, 0.5, 0.75, 1.0} {
		alpha := alpha
		b.Run("alpha="+strconv.FormatFloat(alpha, 'f', 2, 64), func(b *testing.B) {
			ablationSession(b, func(c *deeptune.Config) { c.Alpha = alpha })
		})
	}
}

// BenchmarkAblationBuildSkip measures the virtual-time saving of the §3.1
// build-skip optimization by comparing runtime-only sessions with and
// without compile-time variation.
func BenchmarkAblationBuildSkip(b *testing.B) {
	run := func(b *testing.B, favorCompile float64, name string) {
		for i := 0; i < b.N; i++ {
			app := apps.Nginx()
			m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 40, FillerCompile: 20, Seed: 1})
			m.Space.Favor(configspace.CompileTime, favorCompile)
			s := search.NewRandom(m.Space, 1)
			var clock vm.Clock
			eng := core.NewEngine(m, app, &core.PerfMetric{App: app}, s, &clock, 1)
			rep, err := runSession(eng, core.Options{Iterations: 40, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.ElapsedSec/float64(len(rep.History)), "virtual-s/iter")
			b.ReportMetric(float64(rep.Builds), "builds")
		}
		_ = name
	}
	b.Run("runtime-only", func(b *testing.B) { run(b, 0, "skip") })
	b.Run("with-compile", func(b *testing.B) { run(b, 1, "rebuild") })
}

// runSession drives a fresh engine session over opts to completion.
func runSession(eng *core.Engine, opts core.Options) (*core.Report, error) {
	s, err := eng.NewSession(opts)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}
