// Public Session API tests: the v2 lifecycle against the core engine it
// wraps, the functional-option surface, and the
// snapshot/resume path as library callers drive it. The exhaustive
// byte-equivalence matrix (all schedulers × all Checkpointable searchers ×
// Step/cancel/resume) lives in internal/core/session_test.go; these tests
// pin the public wiring on top of it.
package wayfinder

import (
	"context"
	"encoding/json"
	"testing"

	"wayfinder/internal/core"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// testModel is a reduced Linux profile for fast public-API tests.
func testModel() *Model {
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 40, FillerBoot: 5, FillerCompile: 10, Seed: 1})
	m.Space.Favor(CompileTime, 0)
	return m
}

// reportJSON canonicalizes a report (decision costs are wall time).
func reportJSON(t *testing.T, rep *Report) string {
	t.Helper()
	cp := *rep
	cp.History = append([]EvalResult(nil), rep.History...)
	for i := range cp.History {
		cp.History[i].DecisionCost = 0
	}
	if cp.Best != nil {
		best := *cp.Best
		best.DecisionCost = 0
		cp.Best = &best
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestSessionMatchesEngineRun: the public Session lifecycle adds nothing
// to the core engine's session — the same report, byte for byte, with one
// worker, the round barrier, and bounded staleness.
func TestSessionMatchesEngineRun(t *testing.T) {
	optsMatrix := []SessionOptions{
		{Iterations: 24, Seed: 5},
		{Iterations: 24, Seed: 5, Workers: 8},
		{Iterations: 24, Seed: 5, Workers: 8, Async: true, Staleness: -1, Hosts: 2},
	}
	for i, opts := range optsMatrix {
		m1 := testModel()
		app := AppNginx()
		eng := core.NewEngine(m1, app, &core.PerfMetric{App: app}, NewRandomSearcher(m1.Space, 5), &vm.Clock{}, opts.Seed)
		cs, err := eng.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := cs.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		m2 := testModel()
		session, err := New(m2, app,
			WithSearcher(NewRandomSearcher(m2.Space, 5)),
			WithOptions(opts),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := session.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if reportJSON(t, direct) != reportJSON(t, rep) {
			t.Fatalf("case %d: Session.Run diverged from the core engine session", i)
		}
	}
}

// TestSessionFaultOptions pins the public fault wiring: the DSL parses,
// WithFaultSchedule/WithDispatchPolicy drive a deterministic faulted
// session end to end, and Resume rejects both (a schedule is session
// topology — it rides in the snapshot, not the resume call).
func TestSessionFaultOptions(t *testing.T) {
	sched, err := ParseFaultSchedule("down:1@100,up:1@600,buildfail:3#1,retry:3/15/2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Report {
		m := testModel()
		session, err := New(m, AppNginx(),
			WithSearcher(NewRandomSearcher(m.Space, 5)),
			WithOptions(SessionOptions{Iterations: 24, Seed: 5, Workers: 8, Hosts: 2}),
			WithFaultSchedule(sched),
			WithDispatchPolicy(DispatchLocality),
		)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := session.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if reportJSON(t, a) != reportJSON(t, b) {
		t.Fatal("faulted public session diverged between identical runs")
	}
	if len(a.History) != 24 || a.LostObservations != 0 {
		t.Fatalf("history %d, lost %d — churn cost coverage", len(a.History), a.LostObservations)
	}
	if a.Retries == 0 {
		t.Fatal("injected failure produced no retries")
	}

	m := testModel()
	session, err := New(m, AppNginx(),
		WithSearcher(NewRandomSearcher(m.Space, 5)),
		WithOptions(SessionOptions{Iterations: 24, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	session.Step(4)
	snap, err := session.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m2 := testModel()
	if _, err := Resume(m2, AppNginx(), snap,
		WithSearcher(NewRandomSearcher(m2.Space, 5)),
		WithFaultSchedule(sched)); err == nil {
		t.Fatal("Resume accepted WithFaultSchedule; schedules must ride in the snapshot")
	}
}

// TestSessionEventsChannel: the channel view delivers the full typed
// stream and closes at completion.
func TestSessionEventsChannel(t *testing.T) {
	m := testModel()
	app := AppNginx()
	session, err := New(m, app,
		WithSearcher(NewRandomSearcher(m.Space, 3)),
		WithWorkers(4),
		WithBudget(16, 0),
		WithSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	events := session.Events()
	go session.Run(context.Background())
	evalDone, sawDone := 0, false
	for ev := range events {
		switch ev.(type) {
		case EvalDone:
			evalDone++
		case SessionDone:
			sawDone = true
		}
	}
	if evalDone != 16 || !sawDone {
		t.Fatalf("channel delivered %d EvalDone events (want 16), SessionDone=%v", evalDone, sawDone)
	}
}

// TestPublicResume: the library-level snapshot/resume round trip, with the
// budget extended on resume.
func TestPublicResume(t *testing.T) {
	app := AppNginx()
	build := func() (*Model, *Session) {
		m := testModel()
		s, err := New(m, app,
			WithSearcher(NewBayesianSearcher(m.Space, true, 9)),
			WithWorkers(4),
			WithBudget(20, 0),
			WithSeed(9),
		)
		if err != nil {
			t.Fatal(err)
		}
		return m, s
	}
	_, full := build()
	fullRep, err := full.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	_, sess := build()
	if n := sess.Step(7); n != 7 {
		t.Fatalf("Step(7) advanced %d", n)
	}
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	m := testModel()
	resumed, err := Resume(m, app, snap, WithSearcher(NewBayesianSearcher(m.Space, true, 9)))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Observed() != 7 {
		t.Fatalf("resumed at %d observations", resumed.Observed())
	}
	rep, err := resumed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, fullRep) != reportJSON(t, rep) {
		t.Fatal("public resume diverged from the uninterrupted session")
	}

	// Topology overrides are refused on resume; budget extension works.
	if _, err := Resume(testModel(), app, snap, WithWorkers(8)); err == nil {
		t.Fatal("Resume accepted a topology override")
	}
	m2 := testModel()
	extended, err := Resume(m2, app, snap,
		WithSearcher(NewBayesianSearcher(m2.Space, true, 9)),
		WithBudget(30, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	extRep, err := extended.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(extRep.History) != 30 {
		t.Fatalf("extended resume ran %d observations, want 30", len(extRep.History))
	}
	// The first 20 observations are the original session's exactly.
	for i := range fullRep.History {
		a, b := fullRep.History[i], extRep.History[i]
		a.DecisionCost, b.DecisionCost = 0, 0
		if a.ConfigKV == nil && a.Config != nil {
			a.ConfigKV = a.Config.KV()
		}
		if b.ConfigKV == nil && b.Config != nil {
			b.ConfigKV = b.Config.KV()
		}
		aj, err := json.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		if string(aj) != string(bj) {
			t.Fatalf("extended-resume history[%d] diverged", i)
		}
	}
}

// TestCloseThenContinue: closing the event stream releases consumers but
// leaves the session steppable — later events are dropped, not sent on a
// closed channel.
func TestCloseThenContinue(t *testing.T) {
	m := testModel()
	app := AppNginx()
	session, err := New(m, app,
		WithSearcher(NewRandomSearcher(m.Space, 2)),
		WithBudget(10, 0),
		WithSeed(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	events := session.Events()
	session.Step(3)
	session.Close()
	for range events { // the consumer's range loop ends
	}
	if n := session.Step(7); n != 7 { // would panic before the drop guard
		t.Fatalf("Step after Close advanced %d", n)
	}
	if n := session.Step(1); n != 0 { // budget exhausted: discovers done
		t.Fatalf("Step past the budget advanced %d", n)
	}
	if !session.Done() || len(session.Report().History) != 10 {
		t.Fatalf("session did not complete after Close: done=%v history=%d",
			session.Done(), len(session.Report().History))
	}
}

// TestNewValidation: construction-time validation surfaces the centralized
// option errors.
func TestNewValidation(t *testing.T) {
	m := testModel()
	app := AppNginx()
	if _, err := New(m, app); err == nil {
		t.Fatal("New accepted a session without a budget")
	}
	if _, err := New(m, app, WithBudget(10, 0), WithWorkers(2), WithHosts(4)); err == nil {
		t.Fatal("New accepted more hosts than workers")
	}
	if _, err := New(nil, app, WithBudget(10, 0)); err == nil {
		t.Fatal("New accepted a nil model")
	}
}
