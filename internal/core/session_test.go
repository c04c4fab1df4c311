package core

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// sessionOptsMatrix is the scheduler × topology grid the Session
// equivalence suite pins: sequential, round-barrier, async (bounded and
// unbounded), each with and without the multi-host fleet.
var sessionOptsMatrix = []struct {
	name string
	opts Options
}{
	{"sequential", Options{Iterations: 30, Seed: 11}},
	{"round-w8", Options{Iterations: 30, Seed: 11, Workers: 8}},
	{"round-w8-hosts4", Options{Iterations: 30, Seed: 11, Workers: 8, Hosts: 4}},
	{"async-w8", Options{Iterations: 30, Seed: 11, Workers: 8, Async: true, Staleness: -1}},
	{"async-w8-s2-hosts2", Options{Iterations: 30, Seed: 11, Workers: 8, Async: true, Staleness: 2, Hosts: 2}},
}

// newSessionEngine builds a fresh engine over the shared small model so
// every compared session starts from identical state.
func newSessionEngine(t testing.TB, kind string, seed uint64) *Engine {
	t.Helper()
	m := smallLinux(t)
	app := apps.Nginx()
	return NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, kind, seed), &vm.Clock{}, seed)
}

// TestSessionRunMatchesEngineRun pins the new lifecycle's blocking path to
// the compatibility entry point across every scheduler: one API, one
// behavior.
func TestSessionRunMatchesEngineRun(t *testing.T) {
	for _, tc := range sessionOptsMatrix {
		run, err := newSessionEngine(t, "random", 11).Run(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sess, err := newSessionEngine(t, "random", 11).NewSession(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rep, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if canonicalJSON(t, run) != canonicalJSON(t, rep) {
			t.Fatalf("%s: Session.Run diverged from Engine.Run", tc.name)
		}
	}
}

// TestSessionStepEquivalentToRun: driving a session one observation at a
// time — the daemon primitive — must reproduce the uninterrupted run
// byte-for-byte on every scheduler.
func TestSessionStepEquivalentToRun(t *testing.T) {
	for _, tc := range sessionOptsMatrix {
		for _, kind := range []string{"random", "bayesian"} {
			full, err := newSessionEngine(t, kind, 11).Run(tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			sess, err := newSessionEngine(t, kind, 11).NewSession(tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			steps := 0
			for !sess.Done() {
				if n := sess.Step(1); n > 1 {
					t.Fatalf("%s/%s: Step(1) advanced %d observations", tc.name, kind, n)
				}
				steps++
				if steps > tc.opts.Iterations+1 {
					t.Fatalf("%s/%s: session did not terminate", tc.name, kind)
				}
			}
			if sess.Observed() != len(full.History) {
				t.Fatalf("%s/%s: stepped session observed %d, run observed %d",
					tc.name, kind, sess.Observed(), len(full.History))
			}
			if canonicalJSON(t, full) != canonicalJSON(t, sess.Report()) {
				t.Fatalf("%s/%s: Step(1)×N diverged from Run", tc.name, kind)
			}
		}
	}
}

// TestSessionPartialReportValid: a session interrupted mid-run (including
// mid-round) must present a consistent prefix report.
func TestSessionPartialReportValid(t *testing.T) {
	opts := Options{Iterations: 30, Seed: 11, Workers: 8}
	full, err := newSessionEngine(t, "random", 11).Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := newSessionEngine(t, "random", 11).NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := sess.Step(13); n != 13 { // mid-round: 13 is not a multiple of 8
		t.Fatalf("Step(13) advanced %d", n)
	}
	rep := sess.Report()
	if len(rep.History) != 13 {
		t.Fatalf("partial history has %d entries", len(rep.History))
	}
	for i := range rep.History {
		if jsonString(t, rep.History[i].Canonical()) != jsonString(t, full.History[i].Canonical()) {
			t.Fatalf("partial history[%d] diverged from the uninterrupted run", i)
		}
	}
	if rep.Utilization <= 0 || rep.ComputeSec <= 0 || rep.ElapsedSec <= 0 {
		t.Fatalf("partial report aggregates not finalized: %+v", rep)
	}
}

// TestSessionSnapshotResume: snapshot at an awkward observation count,
// restore into a fresh engine, and finish — the stitched report must be
// byte-identical to an uninterrupted run for every Checkpointable searcher
// and every scheduler.
func TestSessionSnapshotResume(t *testing.T) {
	kinds := []string{"random", "grid", "bayesian", "deeptune", "unicorn"}
	for _, tc := range sessionOptsMatrix {
		for _, kind := range kinds {
			if kind == "deeptune" && testing.Short() {
				continue
			}
			full, err := newSessionEngine(t, kind, 11).Run(tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			sess, err := newSessionEngine(t, kind, 11).NewSession(tc.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			sess.Step(13) // mid-round, mid-flight
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatalf("%s/%s: snapshot: %v", tc.name, kind, err)
			}
			resumedEng := newSessionEngine(t, kind, 11)
			resumed, err := resumedEng.RestoreSession(snap)
			if err != nil {
				t.Fatalf("%s/%s: restore: %v", tc.name, kind, err)
			}
			if resumed.Observed() != 13 {
				t.Fatalf("%s/%s: resumed at observation %d, want 13", tc.name, kind, resumed.Observed())
			}
			rep, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: resumed run: %v", tc.name, kind, err)
			}
			if canonicalJSON(t, full) != canonicalJSON(t, rep) {
				t.Fatalf("%s/%s: snapshot-at-13 + resume diverged from the uninterrupted run", tc.name, kind)
			}
		}
	}
}

// tinyLinux is smallLinux narrowed to a grid-like space: every parameter
// but three runtime booleans is fixed, so the space holds eight
// configurations. A searcher exhausts it within a few proposals, after
// which pending dedup re-asks it whenever a proposal is already in flight.
func tinyLinux(t testing.TB) *simos.Model {
	t.Helper()
	m := smallLinux(t)
	free := 0
	for _, p := range m.Space.Params() {
		if p.Class == configspace.Runtime && p.Type == configspace.Bool && free < 3 {
			free++
			continue
		}
		if err := m.Space.Fix(p.Name, p.Default); err != nil {
			t.Fatal(err)
		}
	}
	if free != 3 {
		t.Fatalf("model has %d runtime booleans, want 3", free)
	}
	return m
}

// TestSessionSnapshotResumePendingDedup: on a space so small that four
// async workers keep proposing configurations already in flight, the
// pending set (the batch adapter's for random and unicorn, the native
// batchers' own for grid, bayesian and deeptune) steers which proposals
// are redrawn, and resume must still be byte-identical. As a control, the
// same snapshot with the pending set deleted must diverge: that is what
// shows this case can see a lost pending set, which the larger space of
// TestSessionSnapshotResume cannot. It also pins that a configuration's
// memoized hash keeps pendingSet.done clearing what draw recorded.
func TestSessionSnapshotResumePendingDedup(t *testing.T) {
	opts := Options{Iterations: 30, Seed: 11, Workers: 4, Async: true, Staleness: -1}
	for _, kind := range []string{"random", "grid", "bayesian", "deeptune", "unicorn"} {
		build := func() *Engine {
			m := tinyLinux(t)
			app := apps.Nginx()
			return NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, kind, 11), &vm.Clock{}, 11)
		}
		full, err := build().Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		want := canonicalJSON(t, full)
		sess, err := build().NewSession(opts)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sess.Step(13)
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", kind, err)
		}
		resume := func(snap []byte) string {
			resumed, err := build().RestoreSession(snap)
			if err != nil {
				t.Fatalf("%s: restore: %v", kind, err)
			}
			rep, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatalf("%s: resumed run: %v", kind, err)
			}
			return canonicalJSON(t, rep)
		}
		if resume(snap) != want {
			t.Fatalf("%s: snapshot-at-13 + resume diverged from the uninterrupted run", kind)
		}

		var doc map[string]any
		if err := json.Unmarshal(snap, &doc); err != nil {
			t.Fatal(err)
		}
		state, _ := doc["searcher_state"].(map[string]any)
		if pending, _ := state["pending"].(map[string]any); len(pending) == 0 {
			t.Fatalf("%s: mid-flight snapshot carries no pending set", kind)
		}
		delete(state, "pending")
		lost, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if resume(lost) == want {
			t.Fatalf("%s: resume without the pending set matched the uninterrupted run; the case cannot see a lost pending set", kind)
		}
	}
}

// TestSessionResumeEngineClock: a resumed parallel session's engine clock
// must land where the uninterrupted run's did — the fold-back that keeps
// engines sharing a clock (experiment chains) on one consistent timeline.
func TestSessionResumeEngineClock(t *testing.T) {
	opts := Options{Iterations: 24, Seed: 5, Workers: 4}
	ref := newSessionEngine(t, "random", 5)
	if _, err := ref.Run(opts); err != nil {
		t.Fatal(err)
	}
	sess, err := newSessionEngine(t, "random", 5).NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess.Step(10)
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumedEng := newSessionEngine(t, "random", 5)
	resumed, err := resumedEng.RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := resumedEng.Clock.Now(), ref.Clock.Now(); got != want {
		t.Fatalf("resumed engine clock at %.6f, uninterrupted at %.6f", got, want)
	}
}

// TestSessionSnapshotResumeScoreMetric covers the stateful-metric path:
// the running normalization must travel with the snapshot.
func TestSessionSnapshotResumeScoreMetric(t *testing.T) {
	opts := Options{Iterations: 24, Seed: 5, Workers: 4}
	build := func() *Engine {
		m := smallLinux(t)
		app := apps.Nginx()
		return NewEngine(m, app, &ScoreMetric{}, newSearcher(m, "random", 5), &vm.Clock{}, 5)
	}
	full, err := build().Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := build().NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess.Step(9)
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := build().RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonicalJSON(t, full) != canonicalJSON(t, rep) {
		t.Fatal("score-metric snapshot/resume diverged from the uninterrupted run")
	}
}

// uncheckpointed is a custom strategy without checkpoint support: a
// Random searcher with its Checkpoint and Restore methods hidden.
type uncheckpointed struct{ search.Searcher }

func (uncheckpointed) Name() string { return "uncheckpointed" }

// TestSessionSnapshotRequiresCheckpointable: strategies without checkpoint
// support fail loudly, naming themselves, even though the batch adapter
// around them has Checkpoint and Restore methods.
func TestSessionSnapshotRequiresCheckpointable(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, uncheckpointed{search.NewRandom(m.Space, 3)}, &vm.Clock{}, 3)
	sess, err := eng.NewSession(Options{Iterations: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sess.Step(2)
	_, err = sess.Snapshot()
	if err == nil {
		t.Fatal("expected snapshot of a non-checkpointable searcher to fail")
	}
	if want := `core: searcher "uncheckpointed" does not implement search.Checkpointable`; err.Error() != want {
		t.Fatalf("snapshot error %q, want %q", err, want)
	}
}

// TestResumeRejectsNonPositiveAdapterPending: a batch-adapter pending
// count of zero or less never occurs in a valid snapshot, so Resume
// returns an error for it instead of dropping it. The adapter's pending
// set travels inside the searcher state.
func TestResumeRejectsNonPositiveAdapterPending(t *testing.T) {
	opts := Options{Iterations: 24, Seed: 5, Workers: 4}
	sess, err := newSessionEngine(t, "random", 5).NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	sess.Step(10)
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, -1} {
		var doc map[string]any
		if err := json.Unmarshal(snap, &doc); err != nil {
			t.Fatal(err)
		}
		state, _ := doc["searcher_state"].(map[string]any)
		pending, ok := state["pending"].(map[string]any)
		if !ok || len(pending) == 0 {
			t.Fatal("mid-flight snapshot carries no adapter pending set")
		}
		for k := range pending {
			pending[k] = bad
		}
		mutated, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newSessionEngine(t, "random", 5).RestoreSession(mutated); err == nil {
			t.Fatalf("Resume accepted an adapter pending count of %d", bad)
		}
	}
}

// TestSessionCancellation: a canceled Run returns the context error with a
// consistent partial report (an observation-prefix of the uninterrupted
// run), leaks no goroutines, and the session stays resumable to the exact
// uninterrupted result.
func TestSessionCancellation(t *testing.T) {
	for _, tc := range sessionOptsMatrix {
		full, err := newSessionEngine(t, "random", 11).Run(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sess, err := newSessionEngine(t, "random", 11).NewSession(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		sess.AddObserver(func(ev Event) {
			if _, ok := ev.(EvalDone); ok {
				if seen++; seen == 9 {
					cancel()
				}
			}
		})
		before := runtime.NumGoroutine()
		rep, err := sess.Run(ctx)
		if err != context.Canceled {
			t.Fatalf("%s: canceled run returned %v", tc.name, err)
		}
		if len(rep.History) != 9 {
			t.Fatalf("%s: canceled run recorded %d observations, want 9", tc.name, len(rep.History))
		}
		for i := range rep.History {
			if jsonString(t, rep.History[i].Canonical()) != jsonString(t, full.History[i].Canonical()) {
				t.Fatalf("%s: canceled history[%d] diverged", tc.name, i)
			}
		}
		// The scheduler joins its evaluation goroutines inside every step,
		// so cancellation must leave none behind.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: %d goroutines leaked by cancellation", tc.name, after-before)
		}
		// Resumability: finishing the canceled session reproduces the
		// uninterrupted report exactly.
		rep2, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if canonicalJSON(t, full) != canonicalJSON(t, rep2) {
			t.Fatalf("%s: canceled-then-resumed session diverged", tc.name)
		}
	}
}

// TestSessionEventsDeterministic: the event stream is a pure function of
// (seed, workers, staleness, hosts) — two identical sessions emit the
// identical sequence, aligned with the observation order.
func TestSessionEventsDeterministic(t *testing.T) {
	collect := func() []string {
		sess, err := newSessionEngine(t, "random", 7).NewSession(Options{Iterations: 24, Seed: 7, Workers: 8, Hosts: 2})
		if err != nil {
			t.Fatal(err)
		}
		var log []string
		sess.AddObserver(func(ev Event) { log = append(log, eventString(t, ev)) })
		if _, err := sess.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := collect(), collect()
	if len(a) == 0 {
		t.Fatal("no events emitted")
	}
	if len(a) != len(b) {
		t.Fatalf("event streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%s\nvs\n%s", i, a[i], b[i])
		}
	}
	// Every observation contributes an EvalDone followed by a Progress,
	// and the stream ends with SessionDone.
	evalDone, progress, done := 0, 0, 0
	for _, s := range a {
		switch {
		case s[:4] == "eval":
			evalDone++
		case s[:4] == "prog":
			progress++
		case s[:4] == "done":
			done++
		}
	}
	if evalDone != 24 || progress != 24 || done != 1 {
		t.Fatalf("event census: %d EvalDone, %d Progress, %d SessionDone", evalDone, progress, done)
	}
}

// eventString renders an event canonically (decision costs zeroed).
func eventString(t *testing.T, ev Event) string {
	t.Helper()
	switch e := ev.(type) {
	case EvalDone:
		return "eval:" + jsonString(t, e.Result.Canonical())
	case NewBest:
		return "best:" + jsonString(t, e.Result.Canonical())
	case CacheEvent:
		return "cache:" + e.Source + ":" + jsonString(t, e.Result.Canonical())
	case RoundBarrier:
		return "barrier:" + jsonString(t, e)
	case Progress:
		e.Best = nil // carries a Result with a wall-time DecisionCost
		return "prog:" + jsonString(t, e)
	case SessionDone:
		return "done:" + canonicalJSON(t, e.Report)
	}
	t.Fatalf("unknown event %T", ev)
	return ""
}

func jsonString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestOptionsValidate pins the centralized validation the CLIs, the
// daemon's spec admission, and the Session constructor share — including
// the exact failure messages, which surface verbatim to users.
func TestOptionsValidate(t *testing.T) {
	bad := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"no budget", Options{}, "no budget"},
		{"negative iterations", Options{Iterations: -1, TimeBudgetSec: 100}, "negative iteration budget"},
		{"negative time budget", Options{Iterations: 10, TimeBudgetSec: -3}, "negative time budget"},
		{"negative workers", Options{Iterations: 10, Workers: -1}, "negative worker count"},
		{"staleness without async", Options{Iterations: 10, Staleness: 2}, "Staleness only applies to the async scheduler"},
		{"negative staleness without async", Options{Iterations: 10, Staleness: -1}, "Staleness only applies to the async scheduler"},
		{"negative hosts", Options{Iterations: 10, Hosts: -2, Workers: 2}, "negative host count"},
		{"hosts exceed workers", Options{Iterations: 10, Workers: 4, Hosts: 8}, "8 hosts exceed 4 workers"},
		{"hosts exceed effective workers", Options{Iterations: 10, Hosts: 2}, "2 hosts exceed 1 workers"},
		{"hosts without the store", Options{Iterations: 10, Workers: 4, Hosts: 2, DisableCache: true}, "artifact-cache locality"},
		{"negative speed factor", Options{Iterations: 10, Workers: 2, WorkerSpeedFactors: []float64{1, -4}}, "negative speed factor -4 for worker 1"},
		{"small surrogate window", Options{Iterations: 10, SurrogateWindow: 4}, "surrogate window 4 is too small"},
		{"negative surrogate window", Options{Iterations: 10, SurrogateWindow: -8}, "surrogate window -8 is too small"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatalf("bad options %+v validated", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	good := []struct {
		name string
		opts Options
	}{
		{"iteration budget", Options{Iterations: 10}},
		{"time budget only", Options{TimeBudgetSec: 100}},
		{"unbounded async staleness", Options{Iterations: 10, Workers: 8, Async: true, Staleness: -1}},
		{"async with sync rounds", Options{Iterations: 10, Workers: 8, Async: true}},
		{"one host per worker", Options{Iterations: 10, Workers: 8, Hosts: 8}},
		{"cache disabled single host", Options{Iterations: 10, Workers: 2, DisableCache: true}},
		{"speed factors", Options{Iterations: 10, Workers: 2, WorkerSpeedFactors: []float64{1, 4}}},
		{"surrogate window at the floor", Options{Iterations: 10, SurrogateWindow: 8}},
	}
	for _, tc := range good {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opts.Validate(); err != nil {
				t.Fatalf("good options %+v rejected: %v", tc.opts, err)
			}
		})
	}

	// Engine.Run routes through the same validation.
	eng := newSessionEngine(t, "random", 1)
	if _, err := eng.Run(Options{Iterations: 10, Staleness: 3}); err == nil {
		t.Fatal("Engine.Run accepted staleness without async")
	}
}

// TestResultConfigRoundTrip is the Result.Config serialization bugfix: a
// report's JSON must carry enough to reconstruct each exact configuration,
// not just the display string.
func TestResultConfigRoundTrip(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 9), &vm.Clock{}, 9)
	rep, err := eng.Run(Options{Iterations: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed Report
	if err := json.Unmarshal(data, &parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed.History) != len(rep.History) {
		t.Fatalf("parsed %d history entries, want %d", len(parsed.History), len(rep.History))
	}
	for i, h := range parsed.History {
		if h.ConfigKV == nil {
			t.Fatalf("history[%d] lost its config_kv map", i)
		}
		cfg, err := m.Space.FromKV(h.ConfigKV)
		if err != nil {
			t.Fatalf("history[%d]: %v", i, err)
		}
		orig := rep.History[i].Config
		if !cfg.Equal(orig) {
			t.Fatalf("history[%d]: config did not survive serialize→parse:\n got %s\nwant %s", i, cfg, orig)
		}
		if cfg.CompileKey() != orig.CompileKey() || cfg.BootKey() != orig.BootKey() || cfg.Hash() != orig.Hash() {
			t.Fatalf("history[%d]: digests diverged after round trip", i)
		}
	}
}
