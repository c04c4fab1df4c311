package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/search"
	"wayfinder/internal/vm"
)

// resumeKinds are the searchers FuzzResume restores into, by the kind
// byte of its input.
var resumeKinds = []string{"random", "bayesian", "deeptune"}

// resumeSeeds are the sessions whose snapshots seed FuzzResume: a small
// session of each searcher, and an async fleet mid-fault (hosts down,
// retries queued, evaluations in flight).
var resumeSeeds = []struct {
	kind   uint8 // index into resumeKinds
	opts   Options
	faults string
	at     int
}{
	{0, Options{Iterations: 10, Seed: 3}, "", 4},
	{1, Options{Iterations: 10, Seed: 3, SurrogateWindow: 8}, "", 9},
	{2, Options{Iterations: 8, Seed: 3}, "", 4},
	{0, Options{Iterations: 24, Seed: 3, Workers: 4, Hosts: 2, Async: true, Staleness: -1},
		"down:1@150,up:1@500,preempt:2@250,buildfail:5#1,retry:3/20/2", 9},
}

// resumeEngine builds a fresh engine for the kind byte's searcher, seeded
// as a resumed session's is: from the snapshot's options. Its DeepTune
// network is a small one, so the seed snapshots stay small enough for the
// fuzzer to mutate and minimize.
func resumeEngine(tb testing.TB, kind uint8, seed uint64) *Engine {
	m := smallLinux(tb)
	app := apps.Nginx()
	var s search.Searcher
	switch k := resumeKinds[int(kind)%len(resumeKinds)]; k {
	case "deeptune":
		cfg := deeptune.DefaultConfig()
		cfg.Hidden1, cfg.Hidden2, cfg.Centroids, cfg.PoolSize, cfg.Seed = 8, 4, 4, 16, seed
		s = search.NewDeepTune(m.Space, true, cfg)
	default:
		s = newSearcher(m, k, seed)
	}
	return NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, seed)
}

// resumeSnapshots returns the snapshot of each resumeSeeds session.
func resumeSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, sd := range resumeSeeds {
		opts := sd.opts
		if sd.faults != "" {
			opts.Faults = mustSchedule(tb, sd.faults)
		}
		s, err := resumeEngine(tb, sd.kind, opts.Seed).NewSession(opts)
		if err != nil {
			tb.Fatal(err)
		}
		s.Step(sd.at)
		data, err := s.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestPeekSnapshotHeader: PeekSnapshot returns the options the full
// decode does, reading only the header; truncated, garbage and
// wrong-version input still fails, in PeekSnapshot or, for a body broken
// past the header, in RestoreSession.
func TestPeekSnapshotHeader(t *testing.T) {
	for i, data := range resumeSnapshots(t) {
		var full sessionSnapshot
		if err := json.Unmarshal(data, &full); err != nil {
			t.Fatal(err)
		}
		opts, err := PeekSnapshot(data)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if !reflect.DeepEqual(opts, full.Options) {
			t.Fatalf("seed %d: PeekSnapshot options %+v, full decode %+v", i, opts, full.Options)
		}
		header := strings.Index(string(data), `,"searcher":`)
		for _, cut := range []int{1, header / 2, header, header + 20, len(data) / 2, len(data) - 1} {
			if _, err := PeekSnapshot(data[:cut]); err == nil && cut <= header/2 {
				t.Fatalf("seed %d: PeekSnapshot accepted the header cut at byte %d", i, cut)
			}
			if _, err := resumeEngine(t, resumeSeeds[i].kind, opts.Seed).RestoreSession(data[:cut]); err == nil {
				t.Fatalf("seed %d: RestoreSession accepted the snapshot cut at byte %d", i, cut)
			}
		}
		wrong := strings.Replace(string(data), `{"version":4,`, `{"version":3,`, 1)
		if _, err := PeekSnapshot([]byte(wrong)); err == nil || !strings.Contains(err.Error(), "version 3") {
			t.Fatalf("seed %d: PeekSnapshot of a version-3 snapshot: %v", i, err)
		}
	}
	for _, garbage := range []string{"", "null", "[]", `"x"`, "{", `{"version":4`, `{"options":{}}`, `{"version":"4"}`, "{}x"} {
		if _, err := PeekSnapshot([]byte(garbage)); err == nil {
			t.Fatalf("PeekSnapshot(%q) succeeded", garbage)
		}
	}
}

// FuzzResume: resuming a mutated snapshot, as wayfinder.Resume does
// (PeekSnapshot for the seed, then RestoreSession), ends in an error or in
// a session that survives Step(1); it never panics. The kind byte picks
// the searcher the engine is built with.
func FuzzResume(f *testing.F) {
	for i, data := range resumeSnapshots(f) {
		f.Add(resumeSeeds[i].kind, data)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		opts, err := PeekSnapshot(data)
		if err != nil {
			return
		}
		s, err := resumeEngine(t, kind, opts.Seed).RestoreSession(data)
		if err != nil {
			return
		}
		s.Step(1)
	})
}
