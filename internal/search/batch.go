package search

import "wayfinder/internal/configspace"

// BatchSearcher extends Searcher with the batch protocol the parallel
// evaluation engine speaks: the platform asks for up to n configurations
// at once, hands them to concurrent workers, and reports results back
// through Observe as evaluations finish. A configuration that has been
// proposed but not yet observed is "pending"; ProposeBatch avoids pending
// configurations so two workers don't evaluate the same candidate —
// falling back to a duplicate only when the strategy cannot produce
// enough distinct proposals (a duplicate evaluation beats a deadlock).
type BatchSearcher interface {
	Searcher
	// ProposeBatch returns up to n configurations to evaluate, avoiding
	// pending ones on a best-effort basis. Implementations may return
	// fewer than n (but at least one for n >= 1) when the strategy
	// cannot produce n distinct candidates.
	ProposeBatch(n int) []*configspace.Config
}

// AsBatch adapts a Searcher to the batch protocol. Searchers that already
// implement BatchSearcher are returned unchanged — Grid walks its ladder
// natively, Bayesian fills batches via constant-liar fantasized
// observations on its incremental surrogate, and DeepTune ranks one
// shared pool under a diversity penalty. Everything else — the
// single-proposal Random (uniform or mutation-based) and Unicorn
// strategies — is wrapped in an adapter around a pendingSet, so they keep
// working with the parallel engine without modification.
func AsBatch(s Searcher) BatchSearcher {
	if b, ok := s.(BatchSearcher); ok {
		return b
	}
	return &batchAdapter{Searcher: s, pending: pendingSet{}}
}

// proposeAttempts bounds how often pendingSet.draw re-asks a strategy for
// a candidate that collides with the pending set.
const proposeAttempts = 16

// pendingSet is the multiset of configurations proposed but not yet
// observed, keyed by Config.Hash — the one in-flight dedup every batch
// proposer shares. Every count it holds is positive: done deletes a key
// when its count reaches zero, so the set holds exactly the work in
// flight and never the history of past proposals (an empty set means
// "nothing pending").
type pendingSet map[uint64]int

// draw asks next for a candidate and re-asks while the candidate is
// pending, then records the last candidate and returns it. After
// proposeAttempts tries it accepts the duplicate rather than spinning on
// a strategy that keeps proposing the same candidate (the same
// accept-after-bounded-attempts policy the searchers apply to their own
// history dedup): a duplicate evaluation beats a deadlock. Each candidate
// is hashed once.
func (p pendingSet) draw(next func() *configspace.Config) *configspace.Config {
	c := next()
	h := c.Hash()
	for attempt := 1; attempt < proposeAttempts && p.has(h); attempt++ {
		c = next()
		h = c.Hash()
	}
	p.add(h)
	return c
}

// add records one more in-flight proposal with hash h.
func (p pendingSet) add(h uint64) { p[h]++ }

// has reports whether a proposal with hash h is in flight.
func (p pendingSet) has(h uint64) bool { return p[h] > 0 }

// done clears one in-flight copy of c, deleting its key at zero. A
// configuration that was never proposed (or a nil one) leaves the set
// unchanged.
func (p pendingSet) done(c *configspace.Config) {
	if c == nil {
		return
	}
	h := c.Hash()
	switch n := p[h]; {
	case n > 1:
		p[h] = n - 1
	case n == 1:
		delete(p, h)
	}
}

// count returns the number of in-flight proposals, counting duplicates.
func (p pendingSet) count() int {
	total := 0
	for _, n := range p {
		total += n
	}
	return total
}

// batchAdapter lifts a single-proposal Searcher to BatchSearcher: each
// slot is one pendingSet.draw over the wrapped strategy's Propose.
//
// The adapter is not itself goroutine-safe: the engine calls ProposeBatch
// and Observe from its coordinator only, and workers never touch the
// searcher — that is what makes parallel sessions deterministic.
//
// DecisionCost is the wrapped searcher's, forwarded: it drains on read,
// so a round's proposal cost lands on the round's first recorded
// iteration and each observation's cost on its own.
type batchAdapter struct {
	Searcher
	pending pendingSet
}

// ProposeBatch implements BatchSearcher.
func (b *batchAdapter) ProposeBatch(n int) []*configspace.Config {
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, b.pending.draw(b.Searcher.Propose))
	}
	return out
}

// Observe implements Searcher, clearing the configuration from the
// pending set before forwarding to the wrapped strategy.
func (b *batchAdapter) Observe(o Observation) {
	b.pending.done(o.Config)
	b.Searcher.Observe(o)
}

// Pending returns the number of proposed-but-unobserved configurations
// (counting duplicates), exposed for tests and diagnostics.
func (b *batchAdapter) Pending() int { return b.pending.count() }
