package search

import (
	"maps"
	"slices"
	"testing"
	"time"

	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/rng"
	"wayfinder/internal/simos"
)

func batchSpace(t *testing.T) *configspace.Space {
	t.Helper()
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 30, FillerBoot: 5, FillerCompile: 5, Seed: 1})
	m.Space.Favor(configspace.CompileTime, 0)
	return m.Space
}

func observeAll(b BatchSearcher, cfgs []*configspace.Config) {
	if len(cfgs) == 0 {
		return
	}
	for _, c := range cfgs {
		b.Observe(Observation{Config: c, Metric: 1, Stage: "ok"})
	}
}

func TestAsBatchWrapsEveryStrategy(t *testing.T) {
	space := batchSpace(t)
	dt := deeptune.DefaultConfig()
	dt.Seed = 1
	searchers := map[string]Searcher{
		"random":   NewRandom(space, 1),
		"mutate":   NewRandomMutate(space, 3, 1),
		"grid":     NewGrid(space),
		"bayesian": NewBayesian(space, true, 1),
		"unicorn":  NewUnicorn(space, true, 1),
		"deeptune": NewDeepTune(space, true, dt),
	}
	for _, name := range slices.Sorted(maps.Keys(searchers)) {
		s := searchers[name]
		b := AsBatch(s)
		cfgs := b.ProposeBatch(4)
		if len(cfgs) != 4 {
			t.Fatalf("%s: batch of %d, want 4", name, len(cfgs))
		}
		seen := map[uint64]bool{}
		for _, c := range cfgs {
			if c == nil {
				t.Fatalf("%s: nil config in batch", name)
			}
			if seen[c.Hash()] {
				t.Fatalf("%s: duplicate configuration within one batch", name)
			}
			seen[c.Hash()] = true
		}
		observeAll(b, cfgs)
	}
}

func TestBatchPendingBlocksDuplicates(t *testing.T) {
	space := batchSpace(t)
	b := AsBatch(NewRandom(space, 2)).(*batchAdapter)
	first := b.ProposeBatch(6)
	if b.Pending() != 6 {
		t.Fatalf("pending = %d after proposing 6, want 6", b.Pending())
	}
	// A second batch while the first is in flight must avoid the pending set.
	second := b.ProposeBatch(6)
	inFlight := map[uint64]bool{}
	for _, c := range first {
		inFlight[c.Hash()] = true
	}
	for _, c := range second {
		if inFlight[c.Hash()] {
			t.Fatal("second batch repeated a pending configuration")
		}
	}
	observeAll(b, first)
	observeAll(b, second)
	if b.Pending() != 0 {
		t.Fatalf("pending = %d after observing everything, want 0", b.Pending())
	}
}

func TestBatchObserveForwards(t *testing.T) {
	space := batchSpace(t)
	underlying := NewBayesian(space, true, 3)
	b := AsBatch(underlying)
	cfgs := b.ProposeBatch(5)
	for i, c := range cfgs {
		b.Observe(Observation{Config: c, Metric: float64(i), Stage: "ok"})
	}
	if underlying.model.Len() != 5 {
		t.Fatalf("surrogate saw %d observations, want 5", underlying.model.Len())
	}
}

func TestBatchAcceptsDuplicateWhenStrategyExhausted(t *testing.T) {
	// A degenerate strategy that always proposes the same configuration
	// must not hang ProposeBatch: after bounded attempts the adapter
	// accepts the duplicate.
	space := batchSpace(t)
	s := &constantSearcher{cfg: space.Default()}
	b := AsBatch(s)
	done := make(chan []*configspace.Config, 1)
	go func() { done <- b.ProposeBatch(3) }()
	select {
	case cfgs := <-done:
		if len(cfgs) != 3 {
			t.Fatalf("batch of %d, want 3", len(cfgs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ProposeBatch hung on a constant strategy")
	}
}

func TestAsBatchPassthrough(t *testing.T) {
	// A searcher with a native batch implementation is used as-is.
	native := &nativeBatcher{space: batchSpace(t)}
	if AsBatch(native) != BatchSearcher(native) {
		t.Fatal("AsBatch re-wrapped a native BatchSearcher")
	}
	// Wrapping an adapter again must not stack adapters.
	wrapped := AsBatch(NewRandom(batchSpace(t), 4))
	if AsBatch(wrapped) != wrapped {
		t.Fatal("AsBatch re-wrapped an existing adapter")
	}
}

func TestBatchProposeSingleIsPlainPropose(t *testing.T) {
	// With batch size 1 and an empty pending set, the adapter consults the
	// strategy exactly once per round — the property that makes a
	// one-worker session propose exactly what a plain Propose loop would.
	space := batchSpace(t)
	s := &countingSearcher{Searcher: NewRandom(space, 5)}
	b := AsBatch(s)
	for i := 0; i < 10; i++ {
		cfgs := b.ProposeBatch(1)
		if len(cfgs) != 1 {
			t.Fatalf("batch of %d, want 1", len(cfgs))
		}
		observeAll(b, cfgs)
	}
	if s.calls != 10 {
		t.Fatalf("underlying Propose called %d times for 10 singleton batches", s.calls)
	}
}

type constantSearcher struct {
	cfg *configspace.Config
}

func (s *constantSearcher) Name() string                 { return "constant" }
func (s *constantSearcher) Propose() *configspace.Config { return s.cfg }
func (s *constantSearcher) Observe(Observation)          {}
func (s *constantSearcher) DecisionCost() time.Duration  { return 0 }

type countingSearcher struct {
	Searcher
	calls int
}

func (s *countingSearcher) Propose() *configspace.Config {
	s.calls++
	return s.Searcher.Propose()
}

type nativeBatcher struct {
	space *configspace.Space
}

func (s *nativeBatcher) Name() string                 { return "native" }
func (s *nativeBatcher) Propose() *configspace.Config { return s.space.Default() }
func (s *nativeBatcher) Observe(Observation)          {}
func (s *nativeBatcher) DecisionCost() time.Duration  { return 0 }
func (s *nativeBatcher) ProposeBatch(n int) []*configspace.Config {
	out := make([]*configspace.Config, n)
	r := rng.New(1)
	for i := range out {
		out[i] = s.space.Random(r)
	}
	return out
}

// costStub keeps the cost convention every real strategy follows —
// Propose and Observe accrue, DecisionCost drains — but with synthetic
// durations, so accounting can be cross-checked exactly.
type costStub struct {
	space              *configspace.Space
	rng                *rng.RNG
	proposeD, observeD time.Duration
	cost               time.Duration
}

func (s *costStub) Name() string { return "cost-stub" }
func (s *costStub) Propose() *configspace.Config {
	s.cost += s.proposeD
	return s.space.Random(s.rng)
}
func (s *costStub) Observe(Observation) { s.cost += s.observeD }
func (s *costStub) DecisionCost() time.Duration {
	d := s.cost
	s.cost = 0
	return d
}

func TestBatchCostMatchesSequentialAccounting(t *testing.T) {
	// The adapter reports the wrapped searcher's own measurements, each
	// exactly once: neither re-timed (which would replace the Fig 8
	// "update time" with an unrelated wall-clock sample) nor counted
	// twice. With synthetic costs the books must balance exactly: n
	// iterations driven sequentially and in batches account the same
	// total.
	space := batchSpace(t)
	const n = 12
	const proposeD, observeD = 3 * time.Millisecond, 7 * time.Millisecond

	// Sequential protocol: Propose, Observe, read DecisionCost per
	// iteration (what the sequential engine records).
	seq := &costStub{space: space, rng: rng.New(1), proposeD: proposeD, observeD: observeD}
	seqTotal := time.Duration(0)
	for i := 0; i < n; i++ {
		c := seq.Propose()
		seq.Observe(Observation{Config: c, Metric: 1})
		seqTotal += seq.DecisionCost()
	}

	// Batch protocol: rounds of 4 through the adapter, draining the
	// adapter's accumulator after each round (what the parallel engines
	// record across a round's iterations).
	stub := &costStub{space: space, rng: rng.New(1), proposeD: proposeD, observeD: observeD}
	b := AsBatch(stub)
	batchTotal := time.Duration(0)
	for round := 0; round < n/4; round++ {
		cfgs := b.ProposeBatch(4)
		for _, c := range cfgs {
			b.Observe(Observation{Config: c, Metric: 1})
			batchTotal += b.DecisionCost()
		}
	}

	if want := n * (proposeD + observeD); seqTotal != want {
		t.Fatalf("sequential accounting %v, want %v", seqTotal, want)
	}
	if batchTotal != seqTotal {
		t.Fatalf("batch accounting %v diverged from sequential %v: decision cost dropped or double-counted",
			batchTotal, seqTotal)
	}
}

func TestBatchDecisionCostDrains(t *testing.T) {
	// The adapter reports the searcher time consumed since the previous
	// DecisionCost call, so the engine's per-iteration stamps sum to the
	// round's true total instead of repeating the last proposal's cost.
	space := batchSpace(t)
	b := AsBatch(NewBayesian(space, true, 6))
	cfgs := b.ProposeBatch(4)
	if b.DecisionCost() <= 0 {
		t.Fatal("batch proposal cost not accumulated")
	}
	if b.DecisionCost() != 0 {
		t.Fatal("DecisionCost did not drain the accumulator")
	}
	observeAll(b, cfgs)
	if b.DecisionCost() <= 0 {
		t.Fatal("observation cost not accumulated")
	}
}
