package wfd

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
)

func TestSpecFromJob(t *testing.T) {
	job, err := configspace.ParseJobYAML(`
name: riscv-latency
os: linux-riscv
app: redis
metric: latency
maximize: false
iterations: 40
favor:
  runtime: 4
  compile: 1
fixed:
  CONFIG_PREEMPT: "y"
`)
	if err != nil {
		t.Fatal(err)
	}
	sp := SpecFromJob(job)
	if sp.Name != "riscv-latency" || sp.OS != "linux-riscv" || sp.App != "redis" ||
		sp.Metric != "latency" || sp.Iterations != 40 {
		t.Fatalf("spec %+v does not carry the job fields", sp)
	}
	if sp.Favor["runtime"] != 4 || sp.Fixed["CONFIG_PREEMPT"] != "y" {
		t.Fatalf("favor/fixed not carried: %+v", sp)
	}
	if err := sp.Validate(); err != nil {
		t.Fatalf("job-derived spec invalid: %v", err)
	}
}

// TestSpecVariants runs one small job through every OS model and metric
// the spec language names, plus the favor/fixed space shaping — each
// variant must admit, run, and report.
func TestSpecVariants(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	specs := []JobSpec{
		{Tenant: "v", OS: "unikraft", App: "redis", Metric: "memory", Searcher: "random", Seed: 1, Iterations: 6},
		{Tenant: "v", OS: "linux-riscv", App: "npb", Metric: "score", Searcher: "random", Seed: 2, Iterations: 6},
		{Tenant: "v", OS: "riscv", App: "sqlite", Metric: "latency", Searcher: "grid", Seed: 3, Iterations: 6},
		{Tenant: "v", Metric: "performance", Searcher: "random", Seed: 4, Iterations: 6,
			Favor: map[string]float64{"runtime": 4, "compile": 1},
			Fixed: map[string]string{"CONFIG_PREEMPT": "y", "net.core.somaxconn": "1024"}},
	}
	var ids []string
	for _, sp := range specs {
		id, err := d.Submit(sp)
		if err != nil {
			t.Fatalf("Submit(%s/%s): %v", sp.OS, sp.Metric, err)
		}
		ids = append(ids, id)
	}
	waitAll(t, d, ids...)
	for i, id := range ids {
		rep, err := d.ReportJSON(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(string(rep), `"searcher":"`+specs[i].Searcher+`"`) {
			t.Errorf("%s report missing searcher %q: %.120s", id, specs[i].Searcher, rep)
		}
	}

	// Bad fixed parameters are admission errors, not run failures.
	for _, sp := range []JobSpec{
		{Searcher: "random", Iterations: 5, Fixed: map[string]string{"net.core.somaxconn": "not-a-number"}},
		{Searcher: "random", Iterations: 5, Favor: map[string]float64{"quantum": 2}},
		// A surrogate window needs a learned surrogate and a usable size.
		{Searcher: "random", Iterations: 5, SurrogateWindow: 64},
		{Searcher: "bayesian", Iterations: 5, SurrogateWindow: 4},
	} {
		if _, err := d.Submit(sp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v): got %v, want ErrBadSpec", sp, err)
		}
	}
}

// TestSpecFaultSchedule: a faulted job admits, runs under churn, reports
// retries, and streams the fault/retry/host wire events; malformed or
// unsatisfiable fault specs are admission errors.
func TestSpecFaultSchedule(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	id, err := d.Submit(JobSpec{
		Tenant: "f", Searcher: "random", Seed: 5, Iterations: 24,
		Workers: 4, Hosts: 2, Dispatch: "locality",
		FaultSchedule: "down:1@100,up:1@400,buildfail:3#1,retry:3/15/2",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, d, id)
	rep, err := d.ReportJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), `"retries":`) {
		t.Errorf("faulted report carries no retries: %.200s", rep)
	}
	backlog, _, cancel, err := d.Attach(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	seen := map[string]bool{}
	for _, ev := range backlog {
		seen[ev.Type] = true
	}
	for _, want := range []string{"fault", "retry", "host"} {
		if !seen[want] {
			t.Errorf("event stream missing %q events: saw %v", want, seen)
		}
	}

	for _, sp := range []JobSpec{
		// Unparseable DSL.
		{Searcher: "random", Iterations: 5, FaultSchedule: "meteor:1@2"},
		// Downs a host the fleet does not have.
		{Searcher: "random", Iterations: 5, Workers: 2, Hosts: 2, FaultSchedule: "down:7@10"},
		// Locality placement with the cache disabled.
		{Searcher: "random", Iterations: 5, Workers: 2, Dispatch: "locality", DisableCache: true},
		// Unknown dispatch policy.
		{Searcher: "random", Iterations: 5, Dispatch: "gravity"},
	} {
		if _, err := d.Submit(sp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Submit(%+v): got %v, want ErrBadSpec", sp, err)
		}
	}
}

// TestSpecSurrogateWindowRuns: a windowed learned-searcher job admits and
// completes — the daemon path of the session-level window option.
func TestSpecSurrogateWindowRuns(t *testing.T) {
	d, err := New(Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	id, err := d.Submit(JobSpec{Tenant: "w", Searcher: "bayesian", Seed: 7, Iterations: 16, SurrogateWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, d, id)
	rep, err := d.ReportJSON(id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rep), `"searcher":"bayesian"`) {
		t.Errorf("report missing searcher: %.120s", rep)
	}
}

// TestSearcherTableMatchesInterfaces pins each searcher entry's flags to
// what its built searcher implements: windowed to search.Windowed,
// checkpoints to search.Checkpointable. Validate's surrogate_window and
// warm_start_k rules and the daemon's journaling rule read the flags.
func TestSearcherTableMatchesInterfaces(t *testing.T) {
	space := simos.NewUnikraft(1).Space
	for _, name := range slices.Sorted(maps.Keys(searchers)) {
		entry := searchers[name]
		s := entry.build(space, true, 1)
		if s.Name() != name {
			t.Errorf("entry %q builds searcher %q", name, s.Name())
		}
		if _, ok := s.(search.Windowed); ok != entry.windowed {
			t.Errorf("%s: windowed = %v, but implements search.Windowed = %v", name, entry.windowed, ok)
		}
		if _, ok := s.(search.Checkpointable); ok != entry.checkpoints {
			t.Errorf("%s: checkpoints = %v, but implements search.Checkpointable = %v", name, entry.checkpoints, ok)
		}
	}
}
