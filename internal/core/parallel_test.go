package core

import (
	"bytes"
	"testing"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// reportJSON renders rep.MarshalJSON as a string, failing the test on a
// marshal error.
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// resultJSON renders one result as a report or snapshot encodes it,
// config_kv included, failing the test on an encode error.
func resultJSON(t *testing.T, res Result) string {
	t.Helper()
	data, err := res.appendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// newSearcher builds a fresh searcher by name so every session in a
// comparison starts from identical searcher state.
func newSearcher(m *simos.Model, kind string, seed uint64) search.Searcher {
	switch kind {
	case "random":
		return search.NewRandom(m.Space, seed)
	case "grid":
		return search.NewGrid(m.Space)
	case "bayesian":
		return search.NewBayesian(m.Space, true, seed)
	case "unicorn":
		return search.NewUnicorn(m.Space, true, seed)
	case "deeptune":
		cfg := deeptune.DefaultConfig()
		cfg.Seed = seed
		return search.NewDeepTune(m.Space, true, cfg)
	}
	panic("unknown searcher " + kind)
}

// TestHostTimeNotSerialized: DecisionCost is memory-only. A report and a
// snapshot whose every result — history, best and in flight — carries a
// non-zero DecisionCost encode to the bytes of their zero-cost twins.
func TestHostTimeNotSerialized(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 3), &vm.Clock{}, 3)
	s, err := eng.NewSession(Options{Iterations: 16, Seed: 3, Workers: 4, Async: true, Staleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(7)
	rep := s.Report()
	var results []*Result
	for i := range rep.History {
		results = append(results, &rep.History[i])
	}
	for _, ev := range s.inflight {
		if ev != nil {
			results = append(results, &ev.res)
		}
	}
	if rep.Best == nil || len(results) == len(rep.History) {
		t.Fatal("want a best result and a result in flight")
	}
	results = append(results, rep.Best)
	encode := func(cost time.Duration) (string, []byte) {
		for i, res := range results {
			res.DecisionCost = cost * time.Duration(i+1)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return reportJSON(t, s.Report()), snap
	}
	costlyRep, costlySnap := encode(time.Millisecond)
	zeroRep, zeroSnap := encode(0)
	if costlyRep != zeroRep {
		t.Fatalf("a report's host time reached its encoding:\n got %.300s\nwant %.300s", costlyRep, zeroRep)
	}
	if !bytes.Equal(costlySnap, zeroSnap) {
		t.Fatal("a snapshot's host time reached its encoding")
	}
}

// TestBestCarriesDecisionCost: the best result is a copy of its history
// entry, host-time decision cost included. DecisionCost is memory-only,
// so only the in-memory report can show the two apart.
func TestBestCarriesDecisionCost(t *testing.T) {
	rep := parallelRun(t, "bayesian", 3, Options{Iterations: 12, Seed: 3})
	if rep.Best == nil {
		t.Fatal("no best result")
	}
	entry := rep.History[rep.Best.Iteration]
	if entry.Iteration != rep.Best.Iteration {
		t.Fatalf("history[%d] is iteration %d", rep.Best.Iteration, entry.Iteration)
	}
	if entry.DecisionCost <= 0 {
		t.Fatalf("best's history entry (iteration %d) records no decision cost", entry.Iteration)
	}
	if rep.Best.DecisionCost != entry.DecisionCost {
		t.Fatalf("best decision cost %v, its history entry's %v", rep.Best.DecisionCost, entry.DecisionCost)
	}
}

func parallelRun(t *testing.T, kind string, seed uint64, opts Options) *Report {
	t.Helper()
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, kind, seed), &vm.Clock{}, seed)
	rep, err := eng.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParallelDeterministicAcrossRuns(t *testing.T) {
	// Same seed + same worker count ⇒ byte-identical report, regardless of
	// goroutine scheduling. Random exercises the pool cheaply; bayesian is
	// the stateful-surrogate case where observation order matters.
	cases := []struct {
		kind  string
		iters int
	}{
		{"random", 64},
		{"bayesian", 24},
	}
	for _, c := range cases {
		opts := Options{Iterations: c.iters, Seed: 7, Workers: 8}
		a := reportJSON(t, parallelRun(t, c.kind, 7, opts))
		b := reportJSON(t, parallelRun(t, c.kind, 7, opts))
		if a != b {
			t.Fatalf("%s: two W=8 runs with the same seed produced different reports", c.kind)
		}
	}
}

func TestParallelHistoryCanonicalOrder(t *testing.T) {
	rep := parallelRun(t, "random", 3, Options{Iterations: 50, Seed: 3, Workers: 8})
	if len(rep.History) != 50 {
		t.Fatalf("history length %d, want 50", len(rep.History))
	}
	for i, h := range rep.History {
		if h.Iteration != i {
			t.Fatalf("history[%d].Iteration = %d: history must be canonicalized by iteration index", i, h.Iteration)
		}
		if h.Worker != i%8 {
			t.Fatalf("iteration %d ran on worker %d, want static placement %d", i, h.Worker, i%8)
		}
	}
	if rep.Workers != 8 {
		t.Fatalf("report workers = %d, want 8", rep.Workers)
	}
}

func TestParallelWallClockSpeedup(t *testing.T) {
	// At an equal iteration budget, 8 workers must shrink the virtual
	// wall-clock near-linearly while the aggregate compute stays in the
	// same ballpark as the sequential session's.
	seq := parallelRun(t, "random", 5, Options{Iterations: 96, Seed: 5})
	par := parallelRun(t, "random", 5, Options{Iterations: 96, Seed: 5, Workers: 8})
	if par.ElapsedSec >= seq.ElapsedSec/4 {
		t.Fatalf("W=8 wall clock %.0fs, want ≥4x below sequential %.0fs", par.ElapsedSec, seq.ElapsedSec)
	}
	if par.ComputeSec <= par.ElapsedSec {
		t.Fatalf("aggregate compute %.0fs should exceed wall clock %.0fs with 8 workers", par.ComputeSec, par.ElapsedSec)
	}
	// Per-worker build caches cost at most W-1 extra builds vs sequential;
	// beyond that, compute should track the sequential session.
	if par.ComputeSec > 1.5*seq.ComputeSec {
		t.Fatalf("aggregate compute %.0fs far exceeds sequential %.0fs", par.ComputeSec, seq.ComputeSec)
	}
}

func TestParallelTimeBudget(t *testing.T) {
	rep := parallelRun(t, "random", 6, Options{TimeBudgetSec: 600, Seed: 6, Workers: 4})
	if rep.ElapsedSec < 600 {
		t.Fatalf("stopped at %.0fs, before exhausting the 600s wall-clock budget", rep.ElapsedSec)
	}
	// Overshoot is bounded by one round (one evaluation per worker).
	if rep.ElapsedSec > 600+300 {
		t.Fatalf("overshot budget: %.0fs", rep.ElapsedSec)
	}
	if len(rep.History)%4 != 0 {
		t.Fatalf("time-budgeted session ran %d iterations, want whole rounds of 4", len(rep.History))
	}
}

func TestParallelWarmStart(t *testing.T) {
	rep := parallelRun(t, "random", 8, Options{Iterations: 12, Seed: 8, Workers: 4, WarmStart: true})
	if rep.History[0].ConfigString != "<default>" {
		t.Fatalf("first iteration = %q, want default", rep.History[0].ConfigString)
	}
}

func TestParallelNoDuplicateConfigsInFlight(t *testing.T) {
	// Within any round (a window of W consecutive iterations), the batch
	// protocol must not hand the same configuration to two workers.
	const w = 8
	rep := parallelRun(t, "random", 9, Options{Iterations: 64, Seed: 9, Workers: w})
	for round := 0; round < len(rep.History); round += w {
		seen := map[uint64]int{}
		for i := round; i < round+w && i < len(rep.History); i++ {
			h := rep.History[i].Config.Hash()
			if prev, dup := seen[h]; dup {
				t.Fatalf("iterations %d and %d evaluated the same configuration concurrently", prev, i)
			}
			seen[h] = i
		}
	}
}

func TestParallelScoreMetricDeterministic(t *testing.T) {
	// ScoreMetric normalizes over the session's running history — the
	// stateful-metric case that forces measurement onto the coordinator in
	// canonical order. Two runs must agree exactly.
	run := func() string {
		m := smallLinux(t)
		app := apps.Nginx()
		eng := NewEngine(m, app, &ScoreMetric{}, newSearcher(m, "random", 11), &vm.Clock{}, 11)
		rep, err := eng.Run(Options{Iterations: 48, Seed: 11, Workers: 6})
		if err != nil {
			t.Fatal(err)
		}
		return reportJSON(t, rep)
	}
	if run() != run() {
		t.Fatal("parallel ScoreMetric session is not deterministic")
	}
}

func TestParallelBestConsistent(t *testing.T) {
	rep := parallelRun(t, "random", 13, Options{Iterations: 80, Seed: 13, Workers: 8})
	if rep.Best == nil {
		t.Fatal("no best over 80 iterations")
	}
	for _, h := range rep.History {
		if !h.Crashed && h.Metric > rep.Best.Metric {
			t.Fatalf("history iteration %d (%.2f) beats Best (%.2f)", h.Iteration, h.Metric, rep.Best.Metric)
		}
	}
	if rep.Crashes == 0 {
		t.Fatal("random search over the crashy space should crash sometimes")
	}
}

func TestParallelDeepTuneSession(t *testing.T) {
	// DeepTune through the default batch adapter: the heavyweight searcher
	// must survive the batch protocol and stay deterministic.
	if testing.Short() {
		t.Skip("neural searcher session is slow")
	}
	opts := Options{Iterations: 32, Seed: 2, Workers: 4}
	a := reportJSON(t, parallelRun(t, "deeptune", 2, opts))
	b := reportJSON(t, parallelRun(t, "deeptune", 2, opts))
	if a != b {
		t.Fatal("parallel DeepTune session is not deterministic")
	}
}

func TestParallelSharedClockAdvances(t *testing.T) {
	// Engines sharing a clock model sequential experiment chains; a
	// parallel session must fold its wall time back onto the shared clock.
	m := smallLinux(t)
	app := apps.Nginx()
	var clock vm.Clock
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 14), &clock, 14)
	rep, err := eng.Run(Options{Iterations: 16, Seed: 14, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() != rep.ElapsedSec {
		t.Fatalf("shared clock at %.2fs, want the session's wall time %.2fs", clock.Now(), rep.ElapsedSec)
	}
}

// shortBatcher is a native BatchSearcher that legally returns fewer
// proposals than asked (at most two per round).
type shortBatcher struct {
	search.Searcher
}

func (s *shortBatcher) ProposeBatch(n int) []*configspace.Config {
	if n > 2 {
		n = 2
	}
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, s.Propose())
	}
	return out
}

func TestParallelShortNativeBatches(t *testing.T) {
	// A native BatchSearcher may return fewer than n proposals; the
	// scheduler must shrink the round instead of evaluating nil configs,
	// and still exhaust the iteration budget.
	m := smallLinux(t)
	app := apps.Nginx()
	s := &shortBatcher{Searcher: search.NewRandom(m.Space, 21)}
	eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, 21)
	rep, err := eng.Run(Options{Iterations: 11, Seed: 21, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.History) != 11 {
		t.Fatalf("history length %d, want 11", len(rep.History))
	}
	for i, h := range rep.History {
		if h.Iteration != i {
			t.Fatalf("history[%d].Iteration = %d", i, h.Iteration)
		}
	}
}
