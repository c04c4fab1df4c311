package search

import (
	"maps"
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/rng"
)

// pendingCase is one batch proposer and a view of its pending set.
type pendingCase struct {
	name    string
	b       BatchSearcher
	pending func() pendingSet
}

// pendingCases builds every batch proposer that keeps a pending set: the
// adapter over both Random variants, and the three native batchers.
func pendingCases(space *configspace.Space) []pendingCase {
	adapter := func(s Searcher) (BatchSearcher, func() pendingSet) {
		b := AsBatch(s).(*batchAdapter)
		return b, func() pendingSet { return b.pending }
	}
	random, randomPending := adapter(NewRandom(space, 1))
	mutate, mutatePending := adapter(NewRandomMutate(space, 3, 1))
	grid := NewGrid(space)
	bayes := NewBayesian(space, true, 1)
	dt := NewDeepTune(space, true, dtTestConfig())
	return []pendingCase{
		{"adapter-random", random, randomPending},
		{"adapter-mutate", mutate, mutatePending},
		{"grid", grid, func() pendingSet { return grid.pending }},
		{"bayesian", bayes, func() pendingSet { return bayes.pending }},
		{"deeptune", dt, func() pendingSet { return dt.pending }},
	}
}

// TestPendingSetDrainsAfterObserve proposes overlapping batches, observes
// every proposal, and requires an empty pending set: a count that reaches
// zero is deleted, so the set holds the work in flight and no history.
func TestPendingSetDrainsAfterObserve(t *testing.T) {
	space := checkpointSpace(t)
	for _, tc := range pendingCases(space) {
		t.Run(tc.name, func(t *testing.T) {
			noise := rng.New(3)
			prev := tc.b.ProposeBatch(3)
			for round := 0; round < 4; round++ {
				// The next batch is proposed while the previous one is
				// still in flight, as the async scheduler does.
				next := tc.b.ProposeBatch(3)
				if got := tc.pending().count(); got != len(prev)+len(next) {
					t.Fatalf("round %d: %d pending, want %d", round, got, len(prev)+len(next))
				}
				for _, c := range prev {
					observe(tc.b, c, 100*noise.Float64(), false)
				}
				prev = next
			}
			for _, c := range prev {
				observe(tc.b, c, 100*noise.Float64(), false)
			}
			if p := tc.pending(); len(p) != 0 {
				t.Fatalf("pending set holds %d keys after every proposal was observed: %v", len(p), p)
			}
		})
	}
}

// TestPendingSetIgnoresUnproposed observes a configuration that was never
// proposed: the pending set must not change.
func TestPendingSetIgnoresUnproposed(t *testing.T) {
	space := checkpointSpace(t)
	for _, tc := range pendingCases(space) {
		t.Run(tc.name, func(t *testing.T) {
			tc.b.ProposeBatch(3)
			before := maps.Clone(tc.pending())
			foreign := space.Random(rng.New(77))
			if before.has(foreign.Hash()) {
				t.Fatal("the foreign configuration is pending; pick another seed")
			}
			observe(tc.b, foreign, 1, false)
			if after := tc.pending(); !maps.Equal(before, after) {
				t.Fatalf("observing an unproposed configuration changed the pending set:\n got %v\nwant %v", after, before)
			}
		})
	}
	p := pendingSet{}
	p.done(nil)
	p.done(space.Default())
	if len(p) != 0 {
		t.Fatalf("done on an empty set left %v", p)
	}
}

// TestPendingSetDrawBounded: a strategy that always proposes the same
// pending configuration is asked exactly proposeAttempts times, and the
// duplicate is accepted and counted.
func TestPendingSetDrawBounded(t *testing.T) {
	c := checkpointSpace(t).Default()
	p := pendingSet{}
	p.add(c.Hash())
	calls := 0
	got := p.draw(func() *configspace.Config {
		calls++
		return c
	})
	if got != c {
		t.Fatal("draw returned a different configuration")
	}
	if calls != proposeAttempts {
		t.Fatalf("next called %d times, want %d", calls, proposeAttempts)
	}
	if p[c.Hash()] != 2 || p.count() != 2 {
		t.Fatalf("pending %v, want a count of 2", p)
	}
	// A free candidate is taken on the first call.
	calls = 0
	q := pendingSet{}
	q.draw(func() *configspace.Config {
		calls++
		return c
	})
	if calls != 1 || q[c.Hash()] != 1 {
		t.Fatalf("free draw: %d calls, pending %v", calls, q)
	}
}
