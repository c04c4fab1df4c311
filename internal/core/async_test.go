package core

import (
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/search"
	"wayfinder/internal/vm"
)

func asyncRun(t *testing.T, kind string, seed uint64, opts Options) *Report {
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

func TestAsyncDeterministicAcrossRuns(t *testing.T) {
	// Same (seed, workers, staleness) ⇒ byte-identical report, regardless
	// of goroutine scheduling. Random exercises the event queue cheaply;
	// bayesian is the stateful-surrogate case where observation order
	// matters; the bounded-staleness and straggler variants exercise the
	// partial-barrier and heterogeneous-speed paths.
	cases := []struct {
		name string
		kind string
		opts Options
	}{
		{"random-unbounded", "random", Options{Iterations: 64, Seed: 7, Workers: 8, Async: true, Staleness: -1}},
		{"bayesian-unbounded", "bayesian", Options{Iterations: 24, Seed: 7, Workers: 8, Async: true, Staleness: -1}},
		{"random-staleness2", "random", Options{Iterations: 64, Seed: 7, Workers: 8, Async: true, Staleness: 2}},
		{"random-straggler", "random", Options{Iterations: 48, Seed: 7, Workers: 4, Async: true, Staleness: -1,
			WorkerSpeedFactors: StragglerFleet(4, 4)}},
	}
	for _, c := range cases {
		a := canonicalJSON(t, asyncRun(t, c.kind, c.opts.Seed, c.opts))
		b := canonicalJSON(t, asyncRun(t, c.kind, c.opts.Seed, c.opts))
		if a != b {
			t.Fatalf("%s: two async runs with the same (seed, workers, staleness) produced different reports", c.name)
		}
	}
}

func TestAsyncHistoryCompletionOrdered(t *testing.T) {
	const iters, w = 50, 8
	rep := asyncRun(t, "random", 3, Options{Iterations: iters, Seed: 3, Workers: w, Async: true, Staleness: -1})
	if len(rep.History) != iters {
		t.Fatalf("history length %d, want %d", len(rep.History), iters)
	}
	if !rep.Async {
		t.Fatal("report does not identify the async scheduler")
	}
	if rep.Staleness != w-1 {
		t.Fatalf("effective staleness %d, want %d (unbounded = one in-flight per other worker)", rep.Staleness, w-1)
	}
	// History is ordered by virtual completion time (the order the
	// searcher observed), and iteration indices are a permutation of the
	// dispatch sequence.
	seen := make([]bool, iters)
	for i, h := range rep.History {
		if h.Iteration < 0 || h.Iteration >= iters || seen[h.Iteration] {
			t.Fatalf("history[%d] has bad/duplicate iteration %d", i, h.Iteration)
		}
		seen[h.Iteration] = true
		if i > 0 && h.EndSec < rep.History[i-1].EndSec {
			t.Fatalf("history[%d] finished at %.2fs before its predecessor's %.2fs: not completion-ordered",
				i, h.EndSec, rep.History[i-1].EndSec)
		}
		if h.Worker < 0 || h.Worker >= w {
			t.Fatalf("history[%d] ran on worker %d", i, h.Worker)
		}
	}
}

// stalenessProbe is a native BatchSearcher that records how many
// proposed-but-unobserved evaluations existed each time a batch was drawn.
type stalenessProbe struct {
	search.Searcher
	outstanding    int
	maxOutstanding int
}

func (s *stalenessProbe) ProposeBatch(n int) []*configspace.Config {
	if s.outstanding > s.maxOutstanding {
		s.maxOutstanding = s.outstanding
	}
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, s.Propose())
	}
	s.outstanding += n
	return out
}

func (s *stalenessProbe) Observe(o search.Observation) {
	s.outstanding--
	s.Searcher.Observe(o)
}

func TestAsyncBoundedStalenessRespected(t *testing.T) {
	for _, bound := range []int{1, 2, 4} {
		m := smallLinux(t)
		app := apps.Nginx()
		probe := &stalenessProbe{Searcher: search.NewRandom(m.Space, 11)}
		eng := NewEngine(m, app, &PerfMetric{App: app}, probe, &vm.Clock{}, 11)
		if _, err := eng.Run(Options{Iterations: 64, Seed: 11, Workers: 8, Async: true, Staleness: bound}); err != nil {
			t.Fatal(err)
		}
		if probe.maxOutstanding > bound {
			t.Fatalf("staleness %d: a proposal batch was drawn with %d unobserved evaluations in flight",
				bound, probe.maxOutstanding)
		}
		if probe.maxOutstanding != bound {
			t.Fatalf("staleness %d: bound never reached (max observed %d) — scheduler more synchronous than allowed",
				bound, probe.maxOutstanding)
		}
	}
}

// batchTrace is a native BatchSearcher that records, for every batch it
// draws, the dispatch index of the batch's first proposal and how many
// observations had landed by then.
type batchTrace struct {
	search.Searcher
	proposed int
	observed int
	draws    []struct{ start, n, obs int }
}

func (s *batchTrace) ProposeBatch(n int) []*configspace.Config {
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, s.Propose())
	}
	s.draws = append(s.draws, struct{ start, n, obs int }{s.proposed, n, s.observed})
	s.proposed += n
	return out
}

func (s *batchTrace) Observe(o search.Observation) {
	s.observed++
	s.Searcher.Observe(o)
}

func TestAsyncStalenessCausallyConsistent(t *testing.T) {
	// Regression: a worker held back by the staleness bound used to
	// restart at its own stale clock, so its evaluation "started" before
	// the observation that admitted its dispatch — a physically
	// unrealizable schedule whose staleness cost never reached the
	// wall-clock. Realizability: every evaluation of a batch drawn after
	// k observations must start at or after the k-th observation's finish
	// time (history is observation-ordered).
	const iters, w, bound = 64, 8, 1
	m := smallLinux(t)
	app := apps.Nginx()
	trace := &batchTrace{Searcher: search.NewRandom(m.Space, 7)}
	eng := NewEngine(m, app, &PerfMetric{App: app}, trace, &vm.Clock{}, 7)
	rep, err := eng.Run(Options{Iterations: iters, Seed: 7, Workers: w, Async: true, Staleness: bound})
	if err != nil {
		t.Fatal(err)
	}
	byIter := make([]*Result, iters)
	for i := range rep.History {
		byIter[rep.History[i].Iteration] = &rep.History[i]
	}
	for _, draw := range trace.draws {
		if draw.obs == 0 {
			continue
		}
		unlock := rep.History[draw.obs-1].EndSec
		for d := draw.start; d < draw.start+draw.n && d < iters; d++ {
			if byIter[d].StartSec < unlock-1e-9 {
				t.Fatalf("iteration %d started at %.2fs, before the observation (%.2fs) that admitted its batch",
					d, byIter[d].StartSec, unlock)
			}
		}
	}
	// The bound's wall-clock price must be charged: a staleness-1 session
	// cannot finish faster than the unbounded one.
	unbounded := asyncRun(t, "random", 7, Options{Iterations: iters, Seed: 7, Workers: w, Async: true, Staleness: -1})
	if rep.ElapsedSec < unbounded.ElapsedSec {
		t.Fatalf("staleness-1 wall %.1fs below unbounded %.1fs: bound waits not charged", rep.ElapsedSec, unbounded.ElapsedSec)
	}
}

func TestParallelBarrierChargedToWallClock(t *testing.T) {
	// Regression: a round barrier that does not advance waiting workers
	// to it reports a wall-clock shorter than the schedule it actually
	// ran. With the barrier charged, no round-r+1 evaluation
	// starts before round r's slowest finishes, and ElapsedSec is the sum
	// of per-round maxima.
	const iters, w = 96, 8
	rep := parallelRun(t, "random", 5, Options{Iterations: iters, Seed: 5, Workers: w})
	prevMax := 0.0
	for round := 0; round*w < iters; round++ {
		lo, hi := round*w, (round+1)*w
		if hi > iters {
			hi = iters
		}
		roundMax := 0.0
		for i := lo; i < hi; i++ {
			h := rep.History[i]
			if h.StartSec < prevMax-1e-9 {
				t.Fatalf("iteration %d started at %.2fs, before the previous round's barrier at %.2fs",
					i, h.StartSec, prevMax)
			}
			if h.EndSec > roundMax {
				roundMax = h.EndSec
			}
		}
		prevMax = roundMax
	}
	if diff := rep.ElapsedSec - prevMax; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ElapsedSec %.2f != last barrier %.2f", rep.ElapsedSec, prevMax)
	}
}

func TestAsyncRecoversStragglerWallClock(t *testing.T) {
	// The acceptance bar: with one 4x-slow worker, the async scheduler
	// recovers ≥80% of the wall-clock the round barrier loses, because
	// placement follows virtual availability instead of iteration mod W.
	const iters, w = 96, 8
	factors := StragglerFleet(w, 4)
	reference := parallelRun(t, "random", 5, Options{Iterations: iters, Seed: 5, Workers: w})
	syncStrag := parallelRun(t, "random", 5, Options{Iterations: iters, Seed: 5, Workers: w, WorkerSpeedFactors: factors})
	asyncStrag := asyncRun(t, "random", 5, Options{Iterations: iters, Seed: 5, Workers: w, Async: true, Staleness: -1,
		WorkerSpeedFactors: factors})
	lost := syncStrag.ElapsedSec - reference.ElapsedSec
	if lost <= 0 {
		t.Fatalf("straggler did not hurt the sync engine (wall %.0fs vs %.0fs)", syncStrag.ElapsedSec, reference.ElapsedSec)
	}
	recovery := (syncStrag.ElapsedSec - asyncStrag.ElapsedSec) / lost
	if recovery < 0.8 {
		t.Fatalf("async recovered %.0f%% of the straggler-lost wall-clock, want ≥80%% (ref %.0fs, sync %.0fs, async %.0fs)",
			100*recovery, reference.ElapsedSec, syncStrag.ElapsedSec, asyncStrag.ElapsedSec)
	}
	// The straggler should also have received measurably less work.
	counts := make([]int, w)
	for _, h := range asyncStrag.History {
		counts[h.Worker]++
	}
	if counts[w-1] >= counts[0] {
		t.Fatalf("async placement gave the 4x straggler %d evaluations vs worker 0's %d", counts[w-1], counts[0])
	}
}

func TestAsyncIdleAccounting(t *testing.T) {
	const iters, w = 96, 8
	factors := StragglerFleet(w, 4)
	syncStrag := parallelRun(t, "random", 9, Options{Iterations: iters, Seed: 9, Workers: w, WorkerSpeedFactors: factors})
	asyncStrag := asyncRun(t, "random", 9, Options{Iterations: iters, Seed: 9, Workers: w, Async: true, Staleness: -1,
		WorkerSpeedFactors: factors})
	for _, rep := range []*Report{syncStrag, asyncStrag} {
		if rep.IdleSec < 0 {
			t.Fatalf("negative idle time %.0fs", rep.IdleSec)
		}
		if rep.Utilization <= 0 || rep.Utilization > 1 {
			t.Fatalf("utilization %.3f out of (0, 1]", rep.Utilization)
		}
		want := rep.ComputeSec / (rep.ComputeSec + rep.IdleSec)
		if diff := rep.Utilization - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("utilization %.6f inconsistent with compute/idle %.6f", rep.Utilization, want)
		}
	}
	if asyncStrag.IdleSec >= syncStrag.IdleSec {
		t.Fatalf("async idle %.0fs not below sync idle %.0fs under a straggler", asyncStrag.IdleSec, syncStrag.IdleSec)
	}
	if asyncStrag.Utilization <= syncStrag.Utilization {
		t.Fatalf("async utilization %.2f not above sync %.2f under a straggler",
			asyncStrag.Utilization, syncStrag.Utilization)
	}
}

func TestAsyncTimeBudget(t *testing.T) {
	rep := asyncRun(t, "random", 6, Options{TimeBudgetSec: 600, Seed: 6, Workers: 4, Async: true, Staleness: -1})
	if rep.ElapsedSec < 600 {
		t.Fatalf("stopped at %.0fs, before exhausting the 600s wall-clock budget", rep.ElapsedSec)
	}
	// Every worker dispatches its last evaluation before its clock passes
	// the budget, so overshoot is bounded by one evaluation.
	if rep.ElapsedSec > 600+300 {
		t.Fatalf("overshot budget: %.0fs", rep.ElapsedSec)
	}
}

func TestAsyncWarmStart(t *testing.T) {
	rep := asyncRun(t, "random", 8, Options{Iterations: 12, Seed: 8, Workers: 4, Async: true, Staleness: -1, WarmStart: true})
	for _, h := range rep.History {
		if h.Iteration == 0 {
			if h.ConfigString != "<default>" {
				t.Fatalf("iteration 0 = %q, want default", h.ConfigString)
			}
			return
		}
	}
	t.Fatal("iteration 0 missing from history")
}

func TestAsyncSharedClockAdvances(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	var clock vm.Clock
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 14), &clock, 14)
	rep, err := eng.Run(Options{Iterations: 16, Seed: 14, Workers: 4, Async: true, Staleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	if clock.Now() != rep.ElapsedSec {
		t.Fatalf("shared clock at %.2fs, want the session's wall time %.2fs", clock.Now(), rep.ElapsedSec)
	}
}

func TestAsyncNoDuplicateConfigsInFlight(t *testing.T) {
	// The pending-set protocol must keep concurrently-evaluating
	// configurations distinct in the async engine too: within any window
	// of W consecutive dispatches, no hash repeats.
	const w = 8
	rep := asyncRun(t, "random", 9, Options{Iterations: 64, Seed: 9, Workers: w, Async: true, Staleness: -1})
	byIter := make([]*Result, len(rep.History))
	for i := range rep.History {
		byIter[rep.History[i].Iteration] = &rep.History[i]
	}
	for start := 0; start+w <= len(byIter); start++ {
		seen := map[uint64]int{}
		for i := start; i < start+w; i++ {
			h := byIter[i].Config.Hash()
			if prev, dup := seen[h]; dup {
				t.Fatalf("iterations %d and %d evaluated the same configuration within one in-flight window", prev, i)
			}
			seen[h] = i
		}
	}
}
