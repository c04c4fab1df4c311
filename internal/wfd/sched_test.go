package wfd

import (
	"context"
	"errors"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// quickSpec is a small, fast job for scheduler tests.
func quickSpec(tenant string, seed uint64, iters int) JobSpec {
	return JobSpec{Tenant: tenant, Searcher: "random", Seed: seed, Iterations: iters}
}

func waitAll(t *testing.T, d *Daemon, ids ...string) {
	t.Helper()
	// Generous: the learned searchers under -race on a small CI box are
	// 10x+ slower than a plain run.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for _, id := range ids {
		if err := d.WaitJob(ctx, id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
}

// TestFairShare: tenant A submits 4 jobs, tenant B submits 1; with a
// single stepper, the per-quantum trace must alternate tenants (least
// service first), not drain A's queue before B's.
func TestFairShare(t *testing.T) {
	var mu sync.Mutex
	type q struct {
		tenant string
		served int
	}
	var trace []q
	d, err := New(Config{Steppers: 1, Quantum: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	d.mu.Lock()
	d.testQuantum = func(_, tenant string, served int) {
		mu.Lock()
		trace = append(trace, q{tenant, served})
		mu.Unlock()
	}
	d.mu.Unlock()

	var ids []string
	for i := 0; i < 4; i++ {
		id, err := d.Submit(quickSpec("a", uint64(i+1), 20))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	id, err := d.Submit(quickSpec("b", 9, 20))
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	waitAll(t, d, ids...)

	// Replay the trace: whenever both tenants still have pending demand,
	// a quantum must go to one at the minimum service — tenant b (admitted
	// last, service 0) catches up first and then the two alternate; a must
	// never pull further ahead while b still has work. The window before
	// b's admission (it was submitted while a was already being served) is
	// exempt: a tenant cannot be scheduled before it exists.
	service := map[string]int{"a": 0, "b": 0}
	remaining := map[string]int{"a": 80, "b": 20}
	seenB := false
	for i, step := range trace {
		if step.tenant == "b" {
			seenB = true
		}
		for _, tenant := range slices.Sorted(maps.Keys(service)) {
			if tenant == step.tenant || !seenB || remaining[tenant] == 0 {
				continue
			}
			if service[step.tenant] > service[tenant] {
				t.Fatalf("quantum %d went to %s (service %d) while %s had %d and pending work",
					i, step.tenant, service[step.tenant], tenant, service[tenant])
			}
		}
		service[step.tenant] += step.served
		remaining[step.tenant] -= step.served
	}
	if service["a"] != 80 || service["b"] != 20 {
		t.Fatalf("service a=%d b=%d, want 80/20", service["a"], service["b"])
	}
}

func TestAdmissionControl(t *testing.T) {
	d, err := New(Config{Steppers: 1, TenantMaxActive: 2, MaxActiveJobs: 3, TenantBudget: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	// Large budgets keep the jobs active while the caps are probed.
	a1, err := d.Submit(quickSpec("a", 1, 40))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.Submit(quickSpec("a", 2, 40))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(quickSpec("a", 3, 10)); !errors.Is(err, ErrQuota) {
		t.Fatalf("tenant cap: got %v, want ErrQuota", err)
	}
	b1, err := d.Submit(quickSpec("b", 1, 15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(quickSpec("c", 1, 10)); !errors.Is(err, ErrQuota) {
		t.Fatalf("daemon cap: got %v, want ErrQuota", err)
	}
	waitAll(t, d, a1, a2, b1)

	// Tenant a consumed 80 of its 100-observation budget: 10 more fits,
	// 30 does not.
	if _, err := d.Submit(quickSpec("a", 4, 30)); !errors.Is(err, ErrQuota) {
		t.Fatalf("budget: got %v, want ErrQuota", err)
	}
	ok, err := d.Submit(quickSpec("a", 5, 10))
	if err != nil {
		t.Fatalf("within budget: %v", err)
	}
	waitAll(t, d, ok)
}

func TestSubmitValidation(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	for _, spec := range []JobSpec{
		{Searcher: "random", Iterations: 0},              // unbounded
		{Searcher: "simulated-annealing", Iterations: 5}, // unknown searcher
		{OS: "plan9", Searcher: "random", Iterations: 5}, // unknown OS
		{Metric: "joy", Searcher: "random", Iterations: 5},
		{Searcher: "random", Iterations: 5, Workers: -1},
		{Searcher: "random", Iterations: 5, Fixed: map[string]string{"nope": "y"}},
	} {
		if _, err := d.Submit(spec); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v): got %v, want ErrBadSpec", spec, err)
		}
	}
}

// TestHoldRelease: a held daemon admits jobs but serves nothing — the
// whole batch sits queued with zero observations served — and Release
// drains it normally. This is the primitive the serve experiment leans on
// for an exact (not load-sampled) concurrency measurement.
func TestHoldRelease(t *testing.T) {
	d, err := New(Config{Steppers: 4, Quantum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	d.Hold()
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := d.Submit(quickSpec("a", uint64(i+1), 8))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Held: everything resident and queued, nothing served. The sleep
	// gives a buggy stepper a chance to claim work it must not.
	time.Sleep(20 * time.Millisecond)
	st := d.Status()
	if st.Queued != 6 || st.Running != 0 || st.Done != 0 || st.ServedTotal != 0 {
		t.Fatalf("held daemon served work: %+v", st)
	}
	d.Release()
	waitAll(t, d, ids...)
	if st := d.Status(); st.Done != 6 {
		t.Fatalf("after release: %d done, want 6", st.Done)
	}
	// Releasing an unheld daemon is a no-op.
	d.Release()
}

func TestCancel(t *testing.T) {
	d, err := New(Config{Steppers: 1, Quantum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	// A long job that would take a while; cancel it mid-flight.
	id, err := d.Submit(quickSpec("a", 1, 100000))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitAll(t, d, id)
	st, err := d.JobStatusByID(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" {
		t.Fatalf("state %q, want canceled", st.State)
	}
	if st.Observed >= 100000 {
		t.Fatalf("job ran to completion despite cancel")
	}
	if _, err := d.ReportJSON(id); !errors.Is(err, ErrNotDone) {
		t.Fatalf("report of canceled job: got %v, want ErrNotDone", err)
	}
	// Canceling again is a no-op; canceling the unknown fails.
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Cancel("j999999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	// The canceled job's budget returned to the tenant.
	status := d.Status()
	if len(status.Tenants) != 1 || status.Tenants[0].Committed != 0 || status.Tenants[0].Active != 0 {
		t.Fatalf("accounting not released: %+v", status.Tenants)
	}
}

// TestEventReplay: attaching after completion replays the whole stream
// with contiguous sequence numbers, ending in a done event.
func TestEventReplay(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	id, err := d.Submit(quickSpec("a", 1, 25))
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, d, id)
	backlog, live, cancel, err := d.Attach(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if _, ok := <-live; ok {
		t.Fatal("live channel of a finished job should be closed")
	}
	if len(backlog) == 0 {
		t.Fatal("no replayed events")
	}
	evals := 0
	for i, ev := range backlog {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Type == "eval" {
			evals++
		}
	}
	if evals != 25 {
		t.Fatalf("replayed %d eval events, want 25", evals)
	}
	if last := backlog[len(backlog)-1]; last.Type != "done" {
		t.Fatalf("last event %q, want done", last.Type)
	}
	// Partial replay picks up exactly where asked.
	mid := len(backlog) / 2
	part, _, cancel2, err := d.Attach(id, mid)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if len(part) != len(backlog)-mid || part[0].Seq != mid {
		t.Fatalf("partial replay from %d: got %d events starting at %d", mid, len(part), part[0].Seq)
	}
}

// TestDeterministicAcrossQuanta: the same spec served under different
// quantum sizes and stepper counts yields byte-identical canonical
// reports.
func TestDeterministicAcrossQuanta(t *testing.T) {
	spec := JobSpec{Tenant: "x", Searcher: "bayesian", Seed: 7, Iterations: 40, Workers: 4}
	var ref []byte
	for _, cfg := range []Config{
		{Steppers: 1, Quantum: 1},
		{Steppers: 1, Quantum: 17},
		{Steppers: 4, Quantum: 3},
	} {
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		id, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitAll(t, d, id)
		rep, err := d.ReportJSON(id)
		if err != nil {
			t.Fatal(err)
		}
		d.Kill()
		if ref == nil {
			ref = rep
		} else if string(ref) != string(rep) {
			t.Fatalf("report differs under config %+v", cfg)
		}
	}
	if !strings.Contains(string(ref), `"searcher":"bayesian"`) {
		t.Fatalf("unexpected report: %.120s", ref)
	}
}

func TestSubmitAfterKill(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.Kill()
	if _, err := d.Submit(quickSpec("a", 1, 5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

// TestTerminalJobReleasesSession: a done job and a canceled job drop
// their session, and status, the final report and an attach replay are
// served from what the job cached.
func TestTerminalJobReleasesSession(t *testing.T) {
	d, err := New(Config{Steppers: 1, Quantum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	done, err := d.Submit(quickSpec("a", 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	canceled, err := d.Submit(quickSpec("b", 2, 100000))
	if err != nil {
		t.Fatal(err)
	}
	// Cancel the long job once it has observed something.
	_, live, stop, err := d.Attach(canceled, 0)
	if err != nil {
		t.Fatal(err)
	}
	<-live
	stop()
	if err := d.Cancel(canceled); err != nil {
		t.Fatal(err)
	}
	waitAll(t, d, done, canceled)

	for _, tc := range []struct{ id, want string }{{done, "done"}, {canceled, "canceled"}} {
		id, want := tc.id, tc.want
		d.mu.Lock()
		sess := d.jobs[id].sess
		d.mu.Unlock()
		if sess != nil {
			t.Fatalf("%s job %s still holds its session", want, id)
		}
		st, err := d.JobStatusByID(id)
		if err != nil || st.State != want || st.Observed == 0 {
			t.Fatalf("%s: status %+v, %v", id, st, err)
		}
		backlog, live, cancel, err := d.Attach(id, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, open := <-live; open || len(backlog) == 0 {
			t.Fatalf("%s: attach replayed %d events, live channel open %v", id, len(backlog), open)
		}
		cancel()
	}
	report, err := d.ReportJSON(done)
	if err != nil || !strings.Contains(string(report), `"history":[`) {
		t.Fatalf("report of the done job: %.80s, %v", report, err)
	}
}
