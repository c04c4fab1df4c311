package main

import (
	"encoding/json"
	"maps"
	"os"
	"slices"
	"testing"

	wayfinder "wayfinder"
	"wayfinder/internal/core"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
)

// tinySizes keeps every workload's round to well under a second, even
// under -race.
var tinySizes = sizes{
	dtObs: 4, dtWindow: 8, dtSnapEvery: 2,
	bayesObs: 16, bayesWindow: 8,
	fleetObs: 60,

	probeKeys: 1 << 10,

	wfdPairs:       1,
	wfdRandomIters: 3, wfdBayesIters: 3, wfdDTIters: 2,
	wfdBayesWindow: 8, wfdDTWindow: 8,
	wfdJournalEvery: 2, wfdSeedIters: 2, wfdSteppers: 2,
}

func TestTracedSearcherInterfaceSets(t *testing.T) {
	space := wayfinder.NewLinuxModel().Space
	tr := &tracer{clk: startClock()}
	cases := []struct {
		name                  string
		s                     search.Searcher
		batch, windowed, fail bool
	}{
		{"random", search.NewRandom(space, 1), false, false, false},
		{"random-mutate", search.NewRandomMutate(space, 2, 1), false, false, false},
		{"bayesian", search.NewBayesian(space, true, 1), true, true, false},
		{"deeptune", search.NewDeepTune(space, true, wayfinder.DefaultDeepTuneConfig()), true, true, false},
		{"grid", search.NewGrid(space), false, false, true},
		{"unicorn", search.NewUnicorn(space, true, 1), false, false, true},
	}
	for _, c := range cases {
		w, err := traceSearcher(c.s, tr)
		if c.fail {
			if err == nil {
				t.Errorf("%s: wrapped a searcher whose interface set no wrapper matches", c.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, isBatch := w.(search.BatchSearcher)
		_, isWin := w.(search.Windowed)
		_, isCk := w.(search.Checkpointable)
		if isBatch != c.batch || isWin != c.windowed || !isCk {
			t.Errorf("%s: wrapper batch=%v windowed=%v checkpointable=%v, want %v %v true",
				c.name, isBatch, isWin, isCk, c.batch, c.windowed)
		}
		if !c.batch && search.AsBatch(w) == w {
			t.Errorf("%s: AsBatch returned the wrapper itself instead of adapting it", c.name)
		}
		if w.Name() != c.s.Name() {
			t.Errorf("%s: wrapper name %q", c.name, w.Name())
		}
	}

	// Window and checkpoint calls reach the wrapped searcher.
	inner := search.NewBayesian(space, true, 1)
	w, err := traceSearcher(inner, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.(search.Windowed).SetSurrogateWindow(1); err == nil {
		t.Error("SetSurrogateWindow(1) was not forwarded: the Bayesian searcher's GP rejects windows below 2")
	}
	want, err := inner.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	got, err := w.(search.Checkpointable).Checkpoint()
	if err != nil || string(got) != string(want) {
		t.Errorf("Checkpoint not forwarded: %v", err)
	}

	if m := traceMetric(core.MemoryMetric{}, tr); m != (core.MemoryMetric{}) {
		t.Errorf("traceMetric wrapped a MemoryMetric: %T", m)
	}
}

func TestWrongPinFailsRun(t *testing.T) {
	const name = "fleet-churn"
	run := func(pin string) *result {
		return runChild(runConfig{
			workload: name, seed: 1, seconds: 0, dir: t.TempDir(),
			sz: tinySizes, pins: map[string]string{name: pin},
		})
	}
	w, _ := workloadByName(name)
	seed := rng.New(1).SplitLabeled(name).Uint64() // round 0's seed, as runChild draws it
	clk := startClock()
	res, err := sessionRound(&roundCtx{clk: clk, probe: newHostProbe(clk, tinySizes.probeKeys), seed: seed, sz: tinySizes}, w.session(tinySizes))
	if err != nil {
		t.Fatal(err)
	}
	if out := run(res.digest); !out.Correct {
		t.Fatal("a run failed against its own digest")
	}
	wrong := []byte(res.digest)
	wrong[0] ^= 1
	if out := run(string(wrong)); out.Correct {
		t.Fatal("a run passed against a wrong pinned digest")
	}
}

// TestSmoke makes an untraced and a traced run of every workload at tiny
// sizes. The untraced run must print every end-to-end metric and the
// probe time, each positive. The traced run makes one untraced and one traced round on
// the same seed and fails unless their result digests match, so it also
// checks that tracing leaves every workload's results alone; it must
// print every per-layer metric and write its spans.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			check := func(res *result, defs []unitDef) {
				t.Helper()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v", d.name, m)
					}
				}
			}

			res := runChild(runConfig{workload: w.name, seed: 7, seconds: 0, dir: dir, sz: tinySizes})
			// peak_rss_mb is added by the parent process, and the child
			// adds the probe time the parent prints.
			e2e := slices.DeleteFunc(slices.Clone(endToEnd), func(d unitDef) bool { return d.name == "peak_rss_mb" })
			check(res, append(e2e, unitDef{"host.probe_ms", "ms"}))
			for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s reads %v", name, v)
				}
			}

			spans := dir + "/spans.jsonl"
			res = runChild(runConfig{workload: w.name, seed: 7, seconds: 0, traced: true, dir: dir, spans: spans, sz: tinySizes})
			check(res, perLayer)
			if res.Metrics["trace.spans"].Value == 0 {
				t.Error("no spans recorded")
			}
			if _, err := os.Stat(spans); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json lists exactly the
// workloads and metrics the program prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []unitDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
