package core

import (
	"context"
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/corpus"
	"wayfinder/internal/search"
	"wayfinder/internal/vm"
)

// corpusEngine builds an engine for corpus tests: app by pointer, searcher
// by kind, fresh clock.
func corpusEngine(t testing.TB, app string, kind string, seed uint64) *Engine {
	t.Helper()
	m := smallLinux(t)
	a, err := apps.ByName(app)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(m, a, &PerfMetric{App: a}, newSearcher(m, kind, seed), &vm.Clock{}, seed)
}

// seedCorpus runs one completed source session against the store so it
// holds exactly one deposited entry.
func seedCorpus(t testing.TB, st *corpus.Store, app, kind string, seed uint64, iters int) {
	t.Helper()
	eng := corpusEngine(t, app, kind, seed)
	if _, err := eng.Run(Options{Iterations: iters, Seed: seed, Corpus: st}); err != nil {
		t.Fatal(err)
	}
}

// TestCorpusEmptyGolden: a session given an empty corpus (with warm
// starting requested) must be byte-identical to a session with no corpus
// at all — pinned to the very hashes TestEmptyScheduleGolden pins the
// corpusless engine to, on all three schedulers.
func TestCorpusEmptyGolden(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"sequential", Options{Iterations: 40, Seed: 7},
			"19aa06697359deb4a9f7cfde5dbf650ca2a2324ad28ba97ca9aacd6abf55f548"},
		{"round-w8-h4", Options{Iterations: 40, Seed: 7, Workers: 8, Hosts: 4},
			"5a24a21a02dcb20730437ba0e0e01b32224c9784e66d21f4be3ad3b42ae01ee2"},
		{"async-w8-h2-s2", Options{Iterations: 40, Seed: 7, Workers: 8, Hosts: 2, Async: true, Staleness: 2},
			"3abb7d8c13e01bde52047e980692a4d911fe3b53a0b3c344777d2f643b16fd63"},
	}
	for _, tc := range cases {
		bare := tc.opts
		m := smallLinux(t)
		app := apps.Nginx()
		eng := NewEngine(m, app, &PerfMetric{App: app}, search.NewRandom(m.Space, 7), &vm.Clock{}, 7)
		noCorpus, err := eng.Run(bare)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		st, err := corpus.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		warm := tc.opts
		warm.Corpus = st
		warm.WarmStartK = 4
		m2 := smallLinux(t)
		eng2 := NewEngine(m2, app, &PerfMetric{App: app}, search.NewRandom(m2.Space, 7), &vm.Clock{}, 7)
		withEmpty, err := eng2.Run(warm)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		if a, b := reportJSON(t, noCorpus), reportJSON(t, withEmpty); a != b {
			t.Errorf("%s: empty-corpus report differs from no-corpus report", tc.name)
		}
		if got := reportHash(t, withEmpty); got != tc.want {
			t.Errorf("%s: empty-corpus report hash %s, want the corpusless golden %s", tc.name, got, tc.want)
		}
		// The cold start must still deposit: memory accumulates even when
		// nothing was there to draw from.
		if st.Len() != 1 {
			t.Errorf("%s: completed session deposited %d entries, want 1", tc.name, st.Len())
		}
	}
}

// TestCorpusDepositAndWarmStart: a redis session deposits its outcome;
// an nginx session then warm-starts from it — seed configs first, DTM
// weights restored, report provenance recorded, events emitted, and its
// own outcome deposited back.
func TestCorpusDepositAndWarmStart(t *testing.T) {
	st, err := corpus.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, st, "redis", "deeptune", 11, 40)
	if st.Len() != 1 {
		t.Fatalf("source session deposited %d entries, want 1", st.Len())
	}
	var src *corpus.Entry
	for _, d := range st.Digests() {
		src, _ = st.Get(d)
	}
	if src.App != "redis" || len(src.Importance) == 0 || len(src.Seeds) == 0 || len(src.DTM) == 0 {
		t.Fatalf("deposited entry incomplete: app=%s imp=%d seeds=%d dtm=%d",
			src.App, len(src.Importance), len(src.Seeds), len(src.DTM))
	}
	frozenHash := st.Hash()

	eng := corpusEngine(t, "nginx", "deeptune", 12)
	sess, err := eng.NewSession(Options{Iterations: 30, Seed: 12, Corpus: st, WarmStartK: 3})
	if err != nil {
		t.Fatal(err)
	}
	var events []CorpusEvent
	sess.AddObserver(func(ev Event) {
		if ce, ok := ev.(CorpusEvent); ok {
			events = append(events, ce)
		}
	})
	rep, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorpusHash != frozenHash {
		t.Fatalf("report corpus hash %s, want the query-time hash %s", rep.CorpusHash, frozenHash)
	}
	if rep.CorpusSeeds != 3 {
		t.Fatalf("report corpus seeds %d, want 3", rep.CorpusSeeds)
	}
	// The first proposals are the corpus seeds, in ranked order.
	for i := 0; i < 3; i++ {
		want, err := eng.Model.Space.FromKV(src.Seeds[i].ConfigKV)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.History[i].Config.Equal(want) {
			t.Fatalf("history[%d] is not corpus seed %d", i, i)
		}
	}
	if len(events) != 2 {
		t.Fatalf("got %d corpus events, want warmstart+deposit: %+v", len(events), events)
	}
	if events[0].Kind != "warmstart" || events[0].Seeds != 3 || !events[0].DTM || events[0].Hash != frozenHash {
		t.Fatalf("warmstart event wrong: %+v", events[0])
	}
	if events[1].Kind != "deposit" || events[1].Digest == "" {
		t.Fatalf("deposit event wrong: %+v", events[1])
	}
	if _, ok := st.Get(events[1].Digest); !ok {
		t.Fatalf("deposit event names digest %s not in the corpus", events[1].Digest)
	}
	if st.Len() != 2 {
		t.Fatalf("corpus holds %d entries after the target session, want 2", st.Len())
	}
}

// TestCorpusFrozenDeterminism: against a frozen corpus, warm-started
// sessions are byte-reproducible on every scheduler — the (seed, workers,
// staleness, hosts, schedule, corpus hash) contract.
func TestCorpusFrozenDeterminism(t *testing.T) {
	base, err := corpus.Open("")
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, base, "redis", "bayesian", 11, 30)
	frozen := base.Hash()
	// Each run gets a private copy of the frozen corpus, so completion
	// deposits from one run can never leak into another's query.
	freeze := func() *corpus.Store {
		cp, _ := corpus.Open("")
		for _, d := range base.Digests() {
			e, _ := base.Get(d)
			if _, err := cp.Deposit(e); err != nil {
				t.Fatal(err)
			}
		}
		return cp
	}
	cases := []Options{
		{Iterations: 24, Seed: 9},
		{Iterations: 24, Seed: 9, Workers: 4, Hosts: 2},
		{Iterations: 24, Seed: 9, Workers: 4, Async: true, Staleness: 2},
	}
	for _, opts := range cases {
		opts.WarmStartK = 4
		opts.Corpus = freeze()
		a, err := corpusEngine(t, "nginx", "bayesian", 9).Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if a.CorpusHash != frozen || a.CorpusSeeds == 0 {
			t.Fatalf("warm start did not resolve: hash=%q seeds=%d", a.CorpusHash, a.CorpusSeeds)
		}
		opts.Corpus = freeze()
		b, err := corpusEngine(t, "nginx", "bayesian", 9).Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if reportJSON(t, a) != reportJSON(t, b) {
			t.Fatalf("workers=%d async=%v: two runs against the frozen corpus diverged", opts.Workers, opts.Async)
		}
	}
}

// TestCorpusWarmSnapshotResume: a warm-started session snapshotted
// mid-run — including before its seed queue is drained — and resumed into
// a fresh engine must finish byte-identical to the uninterrupted run,
// with the warm-started DTM carried in the searcher checkpoint.
func TestCorpusWarmSnapshotResume(t *testing.T) {
	st, err := corpus.Open("")
	if err != nil {
		t.Fatal(err)
	}
	seedCorpus(t, st, "redis", "deeptune", 11, 40)

	for _, tc := range []struct {
		name string
		opts Options
		at   int
	}{
		{"seq-midseed", Options{Iterations: 26, Seed: 12}, 2},
		{"seq-postseed", Options{Iterations: 26, Seed: 12}, 13},
		{"round-midseed", Options{Iterations: 26, Seed: 12, Workers: 4}, 2},
	} {
		opts := tc.opts
		opts.Corpus, opts.WarmStartK = st, 4

		// The uninterrupted reference run and the snapshotted run must see
		// the same frozen corpus, so deposits from either cannot leak into
		// the other's query: freeze a private copy per run.
		freeze := func() *corpus.Store {
			cp, _ := corpus.Open("")
			for _, d := range st.Digests() {
				e, _ := st.Get(d)
				if _, err := cp.Deposit(e); err != nil {
					t.Fatal(err)
				}
			}
			return cp
		}

		refOpts := opts
		refOpts.Corpus = freeze()
		full, err := corpusEngine(t, "nginx", "deeptune", 12).Run(refOpts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if full.CorpusSeeds != 4 || len(full.CorpusHash) == 0 {
			t.Fatalf("%s: warm start did not resolve: %+v", tc.name, full.CorpusSeeds)
		}

		runOpts := opts
		runOpts.Corpus = freeze()
		sess, err := corpusEngine(t, "nginx", "deeptune", 12).NewSession(runOpts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sess.Step(tc.at)
		snap, err := sess.Snapshot()
		if err != nil {
			t.Fatalf("%s: snapshot: %v", tc.name, err)
		}
		resumed, err := corpusEngine(t, "nginx", "deeptune", 12).RestoreSession(snap)
		if err != nil {
			t.Fatalf("%s: restore: %v", tc.name, err)
		}
		rep, err := resumed.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: resumed run: %v", tc.name, err)
		}
		if reportJSON(t, full) != reportJSON(t, rep) {
			t.Fatalf("%s: snapshot-at-%d + resume diverged from the uninterrupted warm run", tc.name, tc.at)
		}
	}
}

// TestCorpusValidation: WarmStartK without a corpus is a loud
// construction error; negative K fails validation.
func TestCorpusValidation(t *testing.T) {
	eng := corpusEngine(t, "nginx", "random", 1)
	if _, err := eng.NewSession(Options{Iterations: 5, WarmStartK: 2}); err == nil {
		t.Fatal("WarmStartK without Corpus was accepted")
	}
	if err := (&Options{Iterations: 5, WarmStartK: -1}).Validate(); err == nil {
		t.Fatal("negative WarmStartK was accepted")
	}
}
