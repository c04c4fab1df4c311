package search

import (
	"testing"

	"wayfinder/internal/configspace"
)

// plainSearcher hides a BatchSearcher's native batch implementation, so
// AsBatch has to wrap it in the pending-set adapter — the reference
// implementation the native path is tested against.
type plainSearcher struct {
	Searcher
}

// TestGridNativeBatchMatchesAdapter is the determinism contract of the
// native ProposeBatch: driven through an identical schedule of batches,
// observations, and base adoptions, the ladder walked natively and the
// ladder walked through the AsBatch adapter must propose byte-identical
// sequences. The schedule observes batches out of order and adopts a new
// base mid-sweep, so the pending-set bookkeeping and the re-centering
// both get exercised.
func TestGridNativeBatchMatchesAdapter(t *testing.T) {
	space := batchSpace(t)
	native := NewGrid(space)
	wrapped := NewGrid(space)
	adapter := AsBatch(&plainSearcher{Searcher: wrapped})
	if _, isAdapter := adapter.(*batchAdapter); !isAdapter {
		t.Fatal("shim failed to force the adapter path")
	}
	if AsBatch(native) != BatchSearcher(native) {
		t.Fatal("Grid should be used natively by AsBatch")
	}

	observe := func(b BatchSearcher, c *configspace.Config, metric float64) {
		b.Observe(Observation{Config: c, Metric: metric, Stage: "ok"})
	}
	var best *configspace.Config
	for round := 0; round < 24; round++ {
		n := 1 + round%7
		a := native.ProposeBatch(n)
		b := adapter.ProposeBatch(n)
		if len(a) != n || len(b) != n {
			t.Fatalf("round %d: batch sizes %d/%d, want %d", round, len(a), len(b), n)
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("round %d slot %d: native proposed %q, adapter %q",
					round, i, a[i].String(), b[i].String())
			}
		}
		// Observe in reverse slot order (completion order rarely matches
		// dispatch order in the async scheduler), leaving the last slot of
		// every third round pending across rounds.
		hold := round%3 == 0 && n > 1
		for i := n - 1; i >= 0; i-- {
			if hold && i == n-1 {
				continue
			}
			metric := float64(round*10 + i)
			observe(native, a[i], metric)
			observe(adapter, b[i], metric)
			if metric > 50 && (best == nil || round%5 == 0) {
				best = a[i].Clone()
				native.AdoptBase(best)
				wrapped.AdoptBase(best)
			}
		}
	}
}

// TestGridNativeBatchAvoidsPendingDuplicates pins the dedup behavior the
// adapter provided: a batch must not contain the same configuration twice
// while an identical proposal is pending — the base-valued ladder step is
// the candidate that would otherwise repeat.
func TestGridNativeBatchAvoidsPendingDuplicates(t *testing.T) {
	space := configspace.NewSpace("dup")
	// Three bools defaulting to false: each parameter's ladder proposes
	// the base itself once (value false), so a 4-slot batch would contain
	// the default config three times without pending dedup.
	for _, name := range []string{"a", "b", "c"} {
		space.MustAdd(&configspace.Param{Name: name, Type: configspace.Bool, Class: configspace.Runtime,
			Default: configspace.BoolValue(false)})
	}
	g := NewGrid(space)
	batch := g.ProposeBatch(4)
	seen := map[uint64]int{}
	for i, c := range batch {
		h := c.Hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("slots %d and %d propose the same configuration %q", prev, i, c.String())
		}
		seen[h] = i
	}
	if g.pending.count() != 4 {
		t.Fatalf("pending = %d, want 4", g.pending.count())
	}
	for _, c := range batch {
		g.Observe(Observation{Config: c, Metric: 1, Stage: "ok"})
	}
	if g.pending.count() != 0 {
		t.Fatalf("pending = %d after observing everything, want 0", g.pending.count())
	}
}
