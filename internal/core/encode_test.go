package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// reflectForm is a result as the reflection oracle writes it: config_kv
// filled from Config where unset.
func reflectForm(res Result) Result {
	if res.Config != nil && res.ConfigKV == nil {
		res.ConfigKV = res.Config.KV()
	}
	return res
}

// reflectJSON is the report encoding as encoding/json's reflection writes
// it, with every result, Best included, in reflectForm: the oracle the
// hand-written encoder must match byte for byte.
func reflectJSON(r *Report) ([]byte, error) {
	type alias Report
	cp := *r
	cp.History = nil
	for _, res := range r.History {
		cp.History = append(cp.History, reflectForm(res))
	}
	if r.Best != nil {
		best := reflectForm(*r.Best)
		cp.Best = &best
	}
	return json.Marshal((*alias)(&cp))
}

// checkReportJSON requires the report's encoding to equal the reflection
// oracle, or both sides to fail.
func checkReportJSON(t *testing.T, name string, rep *Report) {
	t.Helper()
	got, err := json.Marshal(rep)
	want, wantErr := reflectJSON(rep)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("%s: error %v, oracle error %v", name, err, wantErr)
	case !bytes.Equal(got, want):
		t.Fatalf("%s: bytes differ from the reflection oracle\n got %.300s\nwant %.300s", name, got, want)
	}
}

// TestReportJSONMatchesReflection: the encoder writes every report the
// engine produces as encoding/json's reflection does — sequential,
// parallel and async fleets under faults (reasons, retries, cache hits
// local and remote), learned searchers whose results carry in-memory host
// time, a restored session, a decoded report whose results carry only
// config_kv maps, and an empty report.
func TestReportJSONMatchesReflection(t *testing.T) {
	run := func(kind string, opts Options) (*Engine, *Session) {
		m := smallLinux(t)
		app := apps.Nginx()
		eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, kind, 5), &vm.Clock{}, 5)
		s, err := eng.NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		return eng, s
	}
	for _, kind := range []string{"random", "bayesian", "deeptune"} {
		_, s := run(kind, Options{Iterations: 12, Seed: 5})
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i := range rep.History {
			rep.History[i].DecisionCost = time.Duration(i+1) * time.Microsecond
		}
		checkReportJSON(t, kind, rep)
	}
	for _, tc := range faultOptsMatrix {
		opts := tc.opts
		opts.Faults = mustSchedule(t, tc.sched)
		_, s := run("random", opts)
		rep, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkReportJSON(t, tc.name, rep)
	}

	_, s := run("random", Options{Iterations: 16, Seed: 5, Workers: 4, Hosts: 2, Async: true, Staleness: -1})
	s.Step(7)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	eng, _ := run("random", Options{Iterations: 1})
	restored, err := eng.RestoreSession(snap)
	if err != nil {
		t.Fatal(err)
	}
	rep := restored.Report()
	if len(rep.History) == 0 || rep.History[0].Config == nil || rep.History[0].ConfigKV != nil {
		t.Fatal("the restored history did not trade its decoded config_kv maps for Configs")
	}
	checkReportJSON(t, "restored", rep)
	var decoded Report
	if err := json.Unmarshal([]byte(reportJSON(t, rep)), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.History) == 0 || decoded.History[0].Config != nil || decoded.History[0].ConfigKV == nil {
		t.Fatal("the decoded history carries no config_kv maps")
	}
	checkReportJSON(t, "decoded", &decoded)
	checkReportJSON(t, "empty", &Report{})

	rep.History[1].Reason = "<oom> & \"quoted\"\n\u2028\xff"
	checkReportJSON(t, "escaped reason", rep)
	rep.Best = &Result{Metric: math.Inf(1)}
	checkReportJSON(t, "infinite best", rep)
}

// TestSnapshotResultsMatchReflection: a snapshot writes its report and
// each in-flight result as the reflection oracle does.
func TestSnapshotResultsMatchReflection(t *testing.T) {
	m := smallLinux(t)
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, newSearcher(m, "random", 5), &vm.Clock{}, 5)
	s, err := eng.NewSession(Options{Iterations: 16, Seed: 5, Workers: 4, Async: true, Staleness: -1})
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5)
	var want [][]byte
	for _, ev := range s.inflight {
		if ev != nil {
			ev.res.DecisionCost = 1234
			b, err := json.Marshal(reflectForm(ev.res))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, b)
		}
	}
	if len(want) == 0 {
		t.Fatal("no evaluation in flight to snapshot")
	}
	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Report   json.RawMessage `json:"report"`
		Inflight []*struct {
			Result json.RawMessage `json:"result"`
		} `json:"inflight"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	wantReport, err := reflectJSON(s.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Report, wantReport) {
		t.Fatalf("snapshot report differs from the reflection oracle\n got %.300s\nwant %.300s", snap.Report, wantReport)
	}
	var got [][]byte
	for _, es := range snap.Inflight {
		if es != nil {
			got = append(got, es.Result)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d in-flight results, session %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("in-flight result %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// fuzzResultSpace is a small space whose names prefix one another and
// whose enum strings need escaping, for FuzzResultJSON's configurations.
func fuzzResultSpace() *configspace.Space {
	s := configspace.NewSpace("result-fuzz")
	s.MustAdd(&configspace.Param{Name: "HZ100", Type: configspace.Int, Class: configspace.Runtime, Min: -5, Max: 1 << 40, Default: configspace.IntValue(1)})
	s.MustAdd(&configspace.Param{Name: "HZ", Type: configspace.Bool, Class: configspace.BootTime})
	s.MustAdd(&configspace.Param{Name: "a<b>", Type: configspace.Hex, Class: configspace.CompileTime, Min: 0, Max: 0xfffff, Default: configspace.IntValue(16)})
	s.MustAdd(&configspace.Param{Name: "tri", Type: configspace.Tristate, Class: configspace.Runtime})
	s.MustAdd(&configspace.Param{Name: "mode", Type: configspace.Enum, Class: configspace.Runtime,
		Values: []string{"plain", "a&b", "ctl\x01", "\xff", "\u2028", "ünï"}, Default: configspace.EnumValue("plain")})
	return s
}

// FuzzResultJSON: appendJSON writes exactly the bytes encoding/json's
// reflection writes for the same result in the same form — strings with
// control bytes, HTML characters, invalid UTF-8 and U+2028; floats at
// ±0, subnormal, 1e-7, 1e21 and ±1e308; config_kv nil, empty or
// arbitrary; Config set or nil; any in-memory host time — and NaN and
// ±Inf fail on both sides. kvMode picks the config_kv (0 nil, 1 empty,
// otherwise {kvKey: kvVal}); cfgSeed 0 leaves Config nil, any other seed
// draws a random configuration.
func FuzzResultJSON(f *testing.F) {
	space := fuzzResultSpace()
	type seed struct {
		str            string
		kvMode         uint8
		kvKey, kvVal   string
		cfgSeed        uint64
		metric, start  float64
		crashed, extra bool
		cost           int64
	}
	for _, sd := range []seed{
		{str: "plain", cfgSeed: 1, metric: 1234.5, start: 10},
		{str: "ctl\x00\x1f\x7f", kvMode: 2, kvKey: "k\n", kvVal: "<v>&", metric: 0, start: math.Copysign(0, -1), cost: 99},
		{str: "<script>&amp;", kvMode: 1, metric: 5e-324, start: 1e-7, crashed: true, extra: true},
		{str: "bad\xff\xfeutf8", kvMode: 2, kvKey: "\u2028", kvVal: "\u2029", cfgSeed: 7, metric: 1e21, start: 1e308},
		{str: "\u2028\u2029 sep", cfgSeed: 3, metric: -1e308, start: 123456789.125, cost: -5},
		{str: "nan", metric: math.NaN()},
		{str: "inf", metric: math.Inf(1), start: 1},
		{str: "-inf", metric: 1, start: math.Inf(-1)},
		{str: "small", metric: 9.999999e-7, start: 999999999999999999999.0, extra: true},
	} {
		f.Add(sd.str, sd.kvMode, sd.kvKey, sd.kvVal, sd.cfgSeed, sd.metric, sd.start, sd.crashed, sd.extra, sd.cost)
	}
	f.Fuzz(func(t *testing.T, str string, kvMode uint8, kvKey, kvVal string, cfgSeed uint64,
		metric, start float64, crashed, extra bool, cost int64) {
		res := Result{
			Iteration:    int(cost % 1000),
			ConfigString: str,
			Metric:       metric,
			Crashed:      crashed,
			Stage:        kvVal,
			BuildSkipped: extra,
			StartSec:     start,
			EndSec:       start + metric,
			Worker:       int(kvMode),
			Host:         -int(kvMode),
			DecisionCost: time.Duration(cost),
		}
		if extra {
			res.Reason, res.CacheHit, res.CacheRemote, res.Retries = str+kvKey, true, crashed, int(cost%7)
		}
		switch kvMode % 3 {
		case 1:
			res.ConfigKV = map[string]string{}
		case 2:
			res.ConfigKV = map[string]string{kvKey: kvVal, "b": str, "": kvKey}
		}
		if cfgSeed != 0 {
			res.Config = space.Random(rng.New(cfgSeed))
		}
		want, wantErr := json.Marshal(reflectForm(res))
		got, err := res.appendJSON([]byte("x"))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("error %v, oracle error %v", err, wantErr)
		}
		if err == nil && string(got) != "x"+string(want) {
			t.Fatalf("bytes differ from the reflection oracle\n got %s\nwant x%s", got, want)
		}
	})
}

// linuxReport runs the 60-observation random search over the full Linux
// profile that BenchmarkReportJSON encodes: about 15 KB of JSON per
// result.
func linuxReport(tb testing.TB) *Report {
	tb.Helper()
	m := simos.NewLinux(simos.DefaultLinuxOptions())
	app := apps.Nginx()
	eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 1), &vm.Clock{}, 1)
	rep, err := eng.Run(Options{Iterations: 60, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// TestReportJSONAllocs: encoding a 60-observation Linux report takes at
// most 10 allocations: the header encoding/json writes, and the one
// exact-size copy of the pooled scratch. A race build's pool drops a
// quarter of what it is given, so there the bound holds for some run.
func TestReportJSONAllocs(t *testing.T) {
	rep := linuxReport(t)
	encode := func() {
		if _, err := rep.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	best := math.Inf(1)
	for try := 0; try < 10 && best > 10; try++ {
		best = min(best, testing.AllocsPerRun(1, encode))
	}
	if best > 10 {
		t.Fatalf("MarshalJSON of a %d-result report allocated %.0f times, want at most 10", len(rep.History), best)
	}
}

// BenchmarkReportJSON encodes a 60-observation full-Linux report.
func BenchmarkReportJSON(b *testing.B) {
	rep := linuxReport(b)
	data, err := rep.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := rep.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConfigString renders the 60 configurations of the same report.
func BenchmarkConfigString(b *testing.B) {
	rep := linuxReport(b)
	b.ReportAllocs()
	for b.Loop() {
		for i := range rep.History {
			_ = rep.History[i].Config.String()
		}
	}
}
