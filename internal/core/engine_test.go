package core

import (
	"context"
	"encoding/json"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// Run drives a fresh session over opts to completion: the blocking
// shorthand the engine tests use for eng.NewSession(opts) followed by
// Run. Library code goes through NewSession (or wayfinder.New) itself.
func (e *Engine) Run(opts Options) (*Report, error) {
	s, err := e.NewSession(opts)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// smallLinux builds a reduced Linux model for fast engine tests.
func smallLinux(t testing.TB) *simos.Model {
	t.Helper()
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 40, FillerBoot: 5, FillerCompile: 10, Seed: 1})
	m.Space.Favor(configspace.CompileTime, 0)
	return m
}

func TestRunRequiresBudget(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 1), &vm.Clock{}, 1)
	if _, err := eng.Run(Options{}); err == nil {
		t.Fatal("expected error without budget")
	}
}

func TestRunIterationBudget(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 1), &vm.Clock{}, 1)
	rep, err := eng.Run(Options{Iterations: 25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.History) != 25 {
		t.Fatalf("history length %d, want 25", len(rep.History))
	}
	if rep.ElapsedSec <= 0 {
		t.Fatal("virtual time did not advance")
	}
	if rep.Best == nil {
		t.Fatal("no best result over 25 iterations")
	}
	if rep.Best.Crashed {
		t.Fatal("best result must not be a crash")
	}
}

func TestRunTimeBudget(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	var clock vm.Clock
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 2), &clock, 2)
	rep, err := eng.Run(Options{TimeBudgetSec: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ElapsedSec < 600 {
		t.Fatalf("stopped at %v s, before exhausting the 600 s budget", rep.ElapsedSec)
	}
	// One evaluation runs ≈45-120 virtual seconds, so the overshoot past
	// the budget is at most one evaluation.
	if rep.ElapsedSec > 600+200 {
		t.Fatalf("overshot budget: %v s", rep.ElapsedSec)
	}
	if len(rep.History) < 4 {
		t.Fatalf("only %d iterations in 600 s", len(rep.History))
	}
}

func TestBuildSkipOptimization(t *testing.T) {
	// With compile-time pinned, every iteration after the first reuses the
	// image (§3.1): exactly one build.
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 3), &vm.Clock{}, 3)
	rep, err := eng.Run(Options{Iterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Builds != 1 {
		t.Fatalf("builds = %d, want 1 (build-skip optimization)", rep.Builds)
	}
	skipped := 0
	for _, h := range rep.History[1:] {
		if h.BuildSkipped {
			skipped++
		}
	}
	if skipped != len(rep.History)-1 {
		t.Fatalf("%d of %d iterations skipped the build", skipped, len(rep.History)-1)
	}
}

func TestBuildNotSkippedWhenCompileVaries(t *testing.T) {
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 10, FillerCompile: 20, Seed: 1})
	// Compile-time exploration allowed: most random configs change compile
	// options and trigger rebuilds.
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 4), &vm.Clock{}, 4)
	rep, err := eng.Run(Options{Iterations: 15, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Builds < 10 {
		t.Fatalf("builds = %d, expected most iterations to rebuild", rep.Builds)
	}
}

func TestCrashAccounting(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 5), &vm.Clock{}, 5)
	rep, err := eng.Run(Options{Iterations: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rate := rep.CrashRate()
	if rate < 0.15 || rate > 0.5 {
		t.Fatalf("random crash rate = %v, want ≈1/3", rate)
	}
	count := 0
	for _, h := range rep.History {
		if h.Crashed {
			count++
			if h.Stage == "ok" || h.Reason == "" {
				t.Fatal("crashed result missing stage/reason")
			}
			if h.Metric != 0 {
				t.Fatal("crashed result carries a metric")
			}
		}
	}
	if count != rep.Crashes {
		t.Fatalf("crash count mismatch: %d vs %d", count, rep.Crashes)
	}
}

func TestCrashedEvaluationsCostLess(t *testing.T) {
	// A run-stage crash aborts the benchmark partway: its virtual duration
	// must be below a completed evaluation's.
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 6), &vm.Clock{}, 6)
	rep, err := eng.Run(Options{Iterations: 100, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var crashAvg, okAvg float64
	var nc, nok int
	for _, h := range rep.History[1:] { // skip the build iteration
		d := h.EndSec - h.StartSec
		if h.Crashed && h.Stage == "run" {
			crashAvg += d
			nc++
		} else if !h.Crashed {
			okAvg += d
			nok++
		}
	}
	if nc == 0 || nok == 0 {
		t.Skip("seed produced no run crashes")
	}
	crashAvg /= float64(nc)
	okAvg /= float64(nok)
	if crashAvg >= okAvg {
		t.Fatalf("crashed evaluations average %v s vs %v s for completed", crashAvg, okAvg)
	}
}

func TestWarmStartEvaluatesDefault(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 7), &vm.Clock{}, 7)
	rep, err := eng.Run(Options{Iterations: 5, Seed: 7, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.History[0].ConfigString != "<default>" {
		t.Fatalf("first iteration = %q, want default", rep.History[0].ConfigString)
	}
}

func TestBestSoFarSeriesMonotone(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 8), &vm.Clock{}, 8)
	rep, err := eng.Run(Options{Iterations: 60, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	series := rep.BestSoFarSeries()
	for i := 1; i < len(series); i++ {
		if series[i] < series[i-1] {
			t.Fatal("best-so-far series must be monotone for a maximize metric")
		}
	}
	if series[len(series)-1] != rep.Best.Metric {
		t.Fatal("series end disagrees with Best")
	}
}

func TestSmoothedSeriesHoldsThroughCrashes(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 9), &vm.Clock{}, 9)
	rep, err := eng.Run(Options{Iterations: 60, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sm := rep.SmoothedMetricSeries(0.3)
	for i, h := range rep.History {
		if h.Crashed && i > 0 && sm[i] != sm[i-1] {
			t.Fatal("smoothed series should hold previous value on crashes")
		}
	}
}

func TestMemoryMetricEngine(t *testing.T) {
	m := simos.NewRiscv(simos.DefaultRiscvOptions())
	app := apps.Nginx()
	eng := NewEngine(m, app, MemoryMetric{}, search.NewRandom(m.Space, 10), &vm.Clock{}, 10)
	rep, err := eng.Run(Options{Iterations: 12, Seed: 10, WarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Maximize {
		t.Fatal("memory metric must minimize")
	}
	if rep.Best == nil {
		t.Fatal("no viable result")
	}
	if rep.Best.Metric < 150 || rep.Best.Metric > 220 {
		t.Fatalf("memory best = %v MB, out of plausible range", rep.Best.Metric)
	}
	// Every random config changes compile options → builds each iteration.
	if rep.Builds < 10 {
		t.Fatalf("memory experiment should rebuild: %d builds", rep.Builds)
	}
}

func TestScoreMetric(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	sm := &ScoreMetric{}
	eng := NewEngine(m, app, sm, search.NewRandom(m.Space, 11), &vm.Clock{}, 11)
	rep, err := eng.Run(Options{Iterations: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil {
		t.Fatal("no best")
	}
	finals := sm.FinalScores()
	nonCrashed := 0
	for _, h := range rep.History {
		if !h.Crashed {
			nonCrashed++
		}
	}
	if sm.Len() != nonCrashed {
		t.Fatalf("score metric measured %d pairs, want %d", sm.Len(), nonCrashed)
	}
	for _, s := range finals {
		if s < -1.0001 || s > 1.0001 {
			t.Fatalf("final score %v outside [-1, 1]", s)
		}
	}
	tp, mem := sm.Pair(0)
	if tp <= 0 || mem <= 0 {
		t.Fatal("raw pair not recorded")
	}
}

func TestDeepTuneEngineBeatsRandomOnAverage(t *testing.T) {
	// The paper's core claim (Fig 6a): over a session, DeepTune finds
	// better configurations and crashes less than random search. Averaged
	// over seeds to absorb run-to-run variance.
	if testing.Short() {
		t.Skip("multi-seed search comparison is slow")
	}
	seeds := []uint64{1, 2, 3}
	var dtBest, rndBest, dtCrash, rndCrash float64
	for _, seed := range seeds {
		app := apps.Nginx()
		{
			m := smallLinux(t)
			s := search.NewRandom(m.Space, seed)
			eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, seed)
			rep, err := eng.Run(Options{Iterations: 150, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rndBest += rep.Best.Metric
			late := rep.CrashRateSeries(40)
			rndCrash += late[len(late)-1]
		}
		{
			m := smallLinux(t)
			cfg := deeptune.DefaultConfig()
			cfg.Seed = seed
			s := search.NewDeepTune(m.Space, true, cfg)
			eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, seed)
			rep, err := eng.Run(Options{Iterations: 150, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			dtBest += rep.Best.Metric
			late := rep.CrashRateSeries(40)
			dtCrash += late[len(late)-1]
		}
	}
	n := float64(len(seeds))
	if dtBest/n <= rndBest/n {
		t.Fatalf("deeptune avg best %v should beat random %v", dtBest/n, rndBest/n)
	}
	if dtCrash/n >= rndCrash/n {
		t.Fatalf("deeptune late crash rate %v should undercut random %v", dtCrash/n, rndCrash/n)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 12), &vm.Clock{}, 12)
	rep, err := eng.Run(Options{Iterations: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Searcher != "random" || len(back.History) != 10 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestHighImpactParams(t *testing.T) {
	// Train a DTM through a session, then audit which parameters it ranks
	// as impactful: the genuinely high-impact printk_delay should outrank
	// the median filler.
	m := smallLinux(t)
	app := apps.Nginx()
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 13
	s := search.NewDeepTune(m.Space, true, cfg)
	eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, 13)
	rep, err := eng.Run(Options{Iterations: 120, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	impacts := HighImpactParams(s.Selector().Model(), s.Selector().Encoder(), m.Space, rep.Best.Config, true)
	if len(impacts) == 0 {
		t.Fatal("no impact entries")
	}
	rank := map[string]int{}
	for i, pi := range impacts {
		rank[pi.Name] = i
	}
	delayRank := rank["kernel.printk_delay"]
	// Median filler rank:
	fillerRanks := 0
	fillerCount := 0
	for name, rk := range rank {
		if len(name) > 8 && name[len(name)-8:len(name)-4] == "ble_" {
			fillerRanks += rk
			fillerCount++
		}
	}
	if fillerCount == 0 {
		t.Skip("no fillers in space")
	}
	if delayRank >= fillerRanks/fillerCount {
		t.Fatalf("printk_delay ranked %d, median filler %d — model failed to surface a high-impact parameter",
			delayRank, fillerRanks/fillerCount)
	}
}
