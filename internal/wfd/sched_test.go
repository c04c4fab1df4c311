package wfd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// TestFairShare replays the quantum trace of a single-stepper daemon
// against the fair-share rule: whenever a tenant with pending demand sits
// at a lower service than the tenant a quantum went to, that quantum broke
// the rule. Two inputs:
//
//   - tenant a submits 4 jobs and then tenant b submits 1 while a is
//     already being served: b catches up first and then the two
//     alternate. A tenant cannot be scheduled before it exists, so each
//     tenant constrains only the quanta picked after its admission;
//   - 8 tenants with 1 to 8 jobs each, admitted under Hold so that all are
//     present before the first quantum. The service of the tenants with
//     pending work then never spans more than one quantum, so its max/min
//     spread is at most 2x once each has been served a quantum.
func TestFairShare(t *testing.T) {
	type batch struct {
		tenant string
		jobs   int
	}
	serveShaped := make([]batch, 8)
	for i := range serveShaped {
		serveShaped[i] = batch{fmt.Sprintf("t%d", i), i + 1}
	}
	for _, tc := range []struct {
		name    string
		hold    bool
		quantum int
		iters   int
		batches []batch
	}{
		{"late-tenant", false, 5, 20, []batch{{"a", 4}, {"b", 1}}},
		{"eight-tenants", true, 4, 12, serveShaped},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			type q struct {
				tenant string
				served int
			}
			var trace []q
			d, err := New(Config{Steppers: 1, Quantum: tc.quantum})
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
			if tc.hold {
				d.Hold()
			}
			var ids []string
			service := map[string]int{}
			remaining := map[string]int{}
			admitted := map[string]int{} // index of the first quantum picked after admission
			for _, b := range tc.batches {
				for k := 0; k < b.jobs; k++ {
					id, err := d.Submit(quickSpec(b.tenant, uint64(k+1), tc.iters))
					if err != nil {
						t.Fatal(err)
					}
					ids = append(ids, id)
					if k == 0 {
						// One stepper: only the quantum at the current trace
						// length can have been picked before this admission.
						mu.Lock()
						admitted[b.tenant] = len(trace) + 1
						mu.Unlock()
					}
				}
				remaining[b.tenant] += b.jobs * tc.iters
			}
			d.Release()
			waitAll(t, d, ids...)

			tenants := slices.Sorted(maps.Keys(remaining))
			for i, step := range trace {
				for _, tenant := range tenants {
					if i >= admitted[tenant] && remaining[tenant] > 0 && service[tenant] < service[step.tenant] {
						t.Fatalf("quantum %d went to %s (service %d) while %s had %d and pending work",
							i, step.tenant, service[step.tenant], tenant, service[tenant])
					}
				}
				service[step.tenant] += step.served
				remaining[step.tenant] -= step.served
				if !tc.hold {
					continue
				}
				lo, hi := -1, 0
				for _, tenant := range tenants {
					if remaining[tenant] > 0 {
						if lo < 0 || service[tenant] < lo {
							lo = service[tenant]
						}
						hi = max(hi, service[tenant])
					}
				}
				if lo >= 0 && hi-lo > tc.quantum {
					t.Fatalf("after quantum %d the tenants with pending work span service %d..%d, more than one quantum (%d)",
						i, lo, hi, tc.quantum)
				}
			}
			for _, tenant := range tenants {
				if remaining[tenant] != 0 {
					t.Fatalf("tenant %s served %d, %d short of its demand", tenant, service[tenant], remaining[tenant])
				}
			}
		})
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

// TestHoldRelease: a held daemon admits jobs but serves nothing. A batch
// of 104 jobs over 8 tenants sits resident and queued with zero
// observations served, so the daemon's concurrency is counted exactly
// rather than sampled, and Release drains the batch normally.
func TestHoldRelease(t *testing.T) {
	const tenants, perTenant, iters = 8, 13, 4
	d, err := New(Config{Steppers: 4, Quantum: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	d.Hold()
	var ids []string
	for k := 0; k < perTenant; k++ {
		for i := 0; i < tenants; i++ {
			id, err := d.Submit(quickSpec(fmt.Sprintf("t%d", i), uint64(k+1), iters))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
	}
	// Held: everything resident and queued, nothing served. The sleep
	// gives a buggy stepper a chance to claim work it must not.
	time.Sleep(20 * time.Millisecond)
	jobs := tenants * perTenant
	st := d.Status()
	if st.Queued != jobs || st.Running != 0 || st.Done != 0 || st.ServedTotal != 0 || st.Quanta != 0 {
		t.Fatalf("held daemon with %d jobs admitted: %+v", jobs, st)
	}
	d.Release()
	waitAll(t, d, ids...)
	if st := d.Status(); st.Done != jobs || st.ServedTotal != jobs*iters {
		t.Fatalf("after release: %d done, %d served, want %d and %d", st.Done, st.ServedTotal, jobs, jobs*iters)
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

	// The same spec from several tenants of one daemon, multiplexed
	// together: who submitted a job, and what it shared the steppers
	// with, must not reach its report.
	d, err := New(Config{Steppers: 4, Quantum: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	d.Hold()
	var ids []string
	for _, tenant := range []string{"x", "y", "z", "default"} {
		spec.Tenant = tenant
		id, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	d.Release()
	waitAll(t, d, ids...)
	for _, id := range ids {
		rep, err := d.ReportJSON(id)
		if err != nil {
			t.Fatal(err)
		}
		if string(rep) != string(ref) {
			st, _ := d.JobStatusByID(id)
			t.Fatalf("tenant %s's report differs from the single-job reference", st.Tenant)
		}
	}
}

// TestBuildIndexCountsEveryCompile: the daemon's cross-session build
// index counts every image a session compiles, once as unique and after
// that as a duplicate, however the sessions interleave. Two identical
// jobs compile the same images as one job alone (U unique, D repeats),
// so together they must show U unique builds and 2D+U duplicates. The
// spec turns the session cache off so that a job repeats builds itself
// (D > 0), and none of its builds fail, so U+D is the report's build
// count.
func TestBuildIndexCountsEveryCompile(t *testing.T) {
	spec := JobSpec{OS: "unikraft", Searcher: "grid", Seed: 1, Iterations: 40, DisableCache: true}
	run := func(tenants ...string) (DaemonStatus, []byte) {
		d, err := New(Config{Steppers: 2, Quantum: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Kill()
		var ids []string
		for _, tenant := range tenants {
			spec.Tenant = tenant
			id, err := d.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		waitAll(t, d, ids...)
		// The identity needs an index that forgets nothing.
		d.storeMu.Lock()
		evicted := d.store.Stats().Evictions
		d.storeMu.Unlock()
		if evicted != 0 {
			t.Fatalf("build index evicted %d images", evicted)
		}
		rep, err := d.ReportJSON(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		return d.Status(), rep
	}

	one, rep := run("a")
	var counts struct {
		Builds int `json:"builds"`
	}
	if err := json.Unmarshal(rep, &counts); err != nil {
		t.Fatal(err)
	}
	u, dup := one.UniqueBuilds, one.DupBuilds
	if u == 0 || dup == 0 || u+dup != counts.Builds {
		t.Fatalf("one job: %d unique + %d duplicate builds, want both > 0 and summing to the report's %d",
			u, dup, counts.Builds)
	}
	two, _ := run("a", "b")
	if two.UniqueBuilds != u || two.DupBuilds != 2*dup+u {
		t.Fatalf("two identical jobs: %d unique, %d duplicate builds; want %d and %d",
			two.UniqueBuilds, two.DupBuilds, u, 2*dup+u)
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
