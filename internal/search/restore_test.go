package search

import (
	"encoding/json"
	"maps"
	"slices"
	"strings"
	"testing"

	"wayfinder/internal/configspace"
)

// fuzzBayesian builds the small searcher FuzzBayesianRestore restores
// into; a window, when a checkpoint has one, travels inside its GP state.
func fuzzBayesian(space *configspace.Space) *Bayesian { return NewBayesian(space, true, 5) }

// bayesianCheckpoints returns valid checkpoints of the fuzz searcher: one
// before any observation, one unwindowed after 6 observations, and one
// windowed past its window with a pending batch.
func bayesianCheckpoints(tb testing.TB) (fresh, unwindowed, windowedPending []byte) {
	tb.Helper()
	space := fuzzSpace()
	run := func(window, obs, batch int) []byte {
		s := fuzzBayesian(space)
		if err := s.SetSurrogateWindow(window); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < obs; i++ {
			observe(s, s.Propose(), float64(10*i), i%4 == 2)
		}
		if batch > 0 {
			s.ProposeBatch(batch)
		}
		data, err := s.Checkpoint()
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return run(0, 0, 0), run(0, 6, 0), run(4, 9, 2)
}

// mutateJSON decodes a checkpoint, applies f, and re-encodes it.
func mutateJSON(tb testing.TB, valid []byte, f func(st map[string]any)) []byte {
	tb.Helper()
	var st map[string]any
	if err := json.Unmarshal(valid, &st); err != nil {
		tb.Fatal(err)
	}
	f(st)
	data, err := json.Marshal(st)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// raggedBayesian returns a valid unwindowed checkpoint whose second
// surrogate row has lost a dimension.
func raggedBayesian(tb testing.TB, unwindowed []byte) []byte {
	return mutateJSON(tb, unwindowed, func(st map[string]any) {
		xs := st["gp"].(map[string]any)["xs"].([]any)
		xs[1] = xs[1].([]any)[:1]
	})
}

// firstPendingKey returns one key of a checkpoint's pending map.
func firstPendingKey(tb testing.TB, st map[string]any) string {
	tb.Helper()
	p, ok := st["pending"].(map[string]any)
	if !ok || len(p) == 0 {
		tb.Fatal("checkpoint has no pending proposals to mutate")
	}
	return slices.Sorted(maps.Keys(p))[0]
}

// assertRestoreRejects requires every case to fail Restore with an error.
func assertRestoreRejects(t *testing.T, fresh func() Checkpointable, cases map[string][]byte) {
	t.Helper()
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		data := cases[name]
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			if err := fresh().Restore(data); err == nil {
				t.Fatal("Restore accepted a malformed checkpoint")
			}
		})
	}
}

// TestBayesianRestoreRejectsMalformed mutates valid checkpoints in each
// way Restore must catch; every one must fail with an error, never a
// panic in a later Predict.
func TestBayesianRestoreRejectsMalformed(t *testing.T) {
	_, unwindowed, windowed := bayesianCheckpoints(t)
	gpState := func(st map[string]any) map[string]any { return st["gp"].(map[string]any) }
	pending := func(count int) []byte {
		return mutateJSON(t, windowed, func(st map[string]any) {
			st["pending"].(map[string]any)[firstPendingKey(t, st)] = count
		})
	}
	space := fuzzSpace()
	assertRestoreRejects(t, func() Checkpointable { return fuzzBayesian(space) }, map[string][]byte{
		"truncated":    unwindowed[:len(unwindowed)/2],
		"no surrogate": mutateJSON(t, unwindowed, func(st map[string]any) { delete(st, "gp") }),
		"ragged rows":  raggedBayesian(t, unwindowed),
		"row width": mutateJSON(t, unwindowed, func(st map[string]any) {
			xs := gpState(st)["xs"].([]any)
			for i := range xs {
				xs[i] = xs[i].([]any)[:1]
			}
		}),
		"ys misaligned":  mutateJSON(t, unwindowed, func(st map[string]any) { gpState(st)["ys"] = []any{1.0} }),
		"pending hash":   mutateJSON(t, windowed, func(st map[string]any) { st["pending"] = map[string]any{"xyz": 1} }),
		"pending zero":   pending(0),
		"pending minus":  pending(-1),
		"packed factor":  mutateJSON(t, windowed, func(st map[string]any) { gpState(st)["chol"] = []any{1.0} }),
		"fitted too far": mutateJSON(t, unwindowed, func(st map[string]any) { gpState(st)["fitted"] = 99 }),
	})
}

// TestGridRestoreRejectsMalformed is the Grid counterpart.
func TestGridRestoreRejectsMalformed(t *testing.T) {
	space := fuzzSpace()
	g := NewGrid(space)
	g.ProposeBatch(3)
	valid, err := g.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	pending := func(count int) []byte {
		return mutateJSON(t, valid, func(st map[string]any) {
			st["pending"].(map[string]any)[firstPendingKey(t, st)] = count
		})
	}
	assertRestoreRejects(t, func() Checkpointable { return NewGrid(space) }, map[string][]byte{
		"truncated":     valid[:len(valid)/2],
		"unknown base":  mutateJSON(t, valid, func(st map[string]any) { st["base_kv"] = map[string]any{"zzz": "1"} }),
		"pending hash":  mutateJSON(t, valid, func(st map[string]any) { st["pending"] = map[string]any{"xyz": 1} }),
		"pending zero":  pending(0),
		"pending minus": pending(-1),
	})
}

// FuzzBayesianRestore feeds mutated and truncated checkpoints to Restore:
// it must return an error or leave a searcher that proposes, observes and
// checkpoints without panicking.
func FuzzBayesianRestore(f *testing.F) {
	fresh, unwindowed, windowed := bayesianCheckpoints(f)
	for _, data := range [][]byte{fresh, unwindowed, windowed, raggedBayesian(f, unwindowed), windowed[:len(windowed)/2]} {
		f.Add(data)
	}
	space := fuzzSpace()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzBayesian(space)
		if err := s.Restore(data); err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			for _, c := range s.ProposeBatch(2) {
				observe(s, c, float64(i), i == 1)
			}
		}
		observe(s, s.Propose(), 3, false)
		_, _ = s.Checkpoint() // a restored NaN can fail to re-encode; that is an error, not a panic
	})
}

// fuzzUnicorn builds the searcher FuzzUnicornRestore restores into: a
// Unicorn behind the batch adapter, as a session checkpoints it.
func fuzzUnicorn(space *configspace.Space) Checkpointable {
	return AsBatch(NewUnicorn(space, true, 5)).(Checkpointable)
}

// unicornCheckpoints returns valid checkpoints of the fuzz searcher: one
// before any observation and one past the cold start with a pending
// batch.
func unicornCheckpoints(tb testing.TB) (fresh, trainedPending []byte) {
	tb.Helper()
	space := fuzzSpace()
	run := func(obs, batch int) []byte {
		s := fuzzUnicorn(space)
		for i := 0; i < obs; i++ {
			observe(s, s.Propose(), float64(10*i), i%4 == 2)
		}
		s.(BatchSearcher).ProposeBatch(batch)
		data, err := s.Checkpoint()
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return run(0, 0), run(7, 2)
}

// raggedUnicorn returns a valid trained checkpoint whose second causal
// feature row has lost two dimensions.
func raggedUnicorn(tb testing.TB, trained []byte) []byte {
	return mutateJSON(tb, trained, func(st map[string]any) {
		causal := st["searcher"].(map[string]any)["causal"].(map[string]any)
		causal["xs"].([]any)[1] = "AAAAAAAAAAA=" // one float64
	})
}

// TestUnicornRestoreRejectsMalformed is the Unicorn counterpart, through
// the batch adapter: a bad pending count or a bad causal state fails.
func TestUnicornRestoreRejectsMalformed(t *testing.T) {
	_, trained := unicornCheckpoints(t)
	causal := func(st map[string]any) map[string]any {
		return st["searcher"].(map[string]any)["causal"].(map[string]any)
	}
	space := fuzzSpace()
	assertRestoreRejects(t, func() Checkpointable { return fuzzUnicorn(space) }, map[string][]byte{
		"truncated":     trained[:len(trained)/2],
		"no searcher":   mutateJSON(t, trained, func(st map[string]any) { delete(st, "searcher") }),
		"no causal":     mutateJSON(t, trained, func(st map[string]any) { delete(st["searcher"].(map[string]any), "causal") }),
		"ragged rows":   raggedUnicorn(t, trained),
		"ys misaligned": mutateJSON(t, trained, func(st map[string]any) { causal(st)["ys"] = "AAAAAAAAAAA=" }),
		"pending zero": mutateJSON(t, trained, func(st map[string]any) {
			st["pending"].(map[string]any)[firstPendingKey(t, st)] = 0
		}),
	})
}

// FuzzUnicornRestore feeds mutated and truncated checkpoints to Restore:
// it must return an error or leave a searcher that proposes, observes and
// checkpoints without panicking.
func FuzzUnicornRestore(f *testing.F) {
	fresh, trained := unicornCheckpoints(f)
	for _, data := range [][]byte{fresh, trained, raggedUnicorn(f, trained), trained[:len(trained)/2]} {
		f.Add(data)
	}
	space := fuzzSpace()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzUnicorn(space)
		if err := s.Restore(data); err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			for _, c := range s.(BatchSearcher).ProposeBatch(2) {
				observe(s, c, float64(i), i == 1)
			}
		}
		observe(s, s.Propose(), 3, false)
		_, _ = s.Checkpoint()
	})
}
