package search

import (
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/rng"
	"wayfinder/internal/simos"
)

// checkpointSpace builds a small space shared by original and restored
// searchers.
func checkpointSpace(t testing.TB) *configspace.Space {
	t.Helper()
	m := simos.NewLinux(simos.LinuxOptions{FillerRuntime: 20, FillerBoot: 4, FillerCompile: 6, Seed: 1})
	return m.Space
}

// observe feeds a synthetic observation for config c.
func observe(s Searcher, c *configspace.Config, y float64, crashed bool) {
	s.Observe(Observation{Config: c, Metric: y, Crashed: crashed, Stage: "ok"})
}

// assertCheckpointContinuity runs a propose/observe prefix, checkpoints, restores
// into fresh, and asserts both searchers propose identically afterwards.
func assertCheckpointContinuity(t *testing.T, name string, space *configspace.Space,
	orig Checkpointable, fresh Checkpointable, prefix, tail int) {
	t.Helper()
	noise := rng.New(99)
	for i := 0; i < prefix; i++ {
		c := orig.Propose()
		observe(orig, c, 100+10*noise.Float64(), i%5 == 4)
	}
	data, err := orig.Checkpoint()
	if err != nil {
		t.Fatalf("%s: checkpoint: %v", name, err)
	}
	if err := fresh.Restore(data); err != nil {
		t.Fatalf("%s: restore: %v", name, err)
	}
	// Both must now walk identical propose/observe trajectories.
	for i := 0; i < tail; i++ {
		a, b := orig.Propose(), fresh.Propose()
		if !a.Equal(b) {
			t.Fatalf("%s: proposal %d diverged after restore:\n got %s\nwant %s", name, i, b, a)
		}
		y := 100 + 10*noise.Float64()
		observe(orig, a, y, false)
		observe(fresh, b, y, false)
	}
}

func TestRandomCheckpoint(t *testing.T) {
	space := checkpointSpace(t)
	assertCheckpointContinuity(t, "random", space,
		NewRandom(space, 7), NewRandom(space, 7), 12, 8)
	// The restored dedup set must block revisits exactly like the original:
	// a fresh searcher without Restore would re-propose the same sequence.
	orig := NewRandom(space, 3)
	c := orig.Propose()
	data, _ := orig.Checkpoint()
	restored := NewRandom(space, 3)
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Propose().Equal(c) {
		t.Fatal("restored random searcher lost its seen set")
	}
}

func TestRandomMutateCheckpoint(t *testing.T) {
	space := checkpointSpace(t)
	assertCheckpointContinuity(t, "random-mutate", space,
		NewRandomMutate(space, 3, 7), NewRandomMutate(space, 3, 7), 12, 8)
}

func TestGridCheckpoint(t *testing.T) {
	space := checkpointSpace(t)
	// The observation prefix adopts improvements as the sweep base (via
	// the engine normally; here the ladder position alone is the state).
	assertCheckpointContinuity(t, "grid", space, NewGrid(space), NewGrid(space), 10, 10)
}

func TestBayesianCheckpoint(t *testing.T) {
	space := checkpointSpace(t)
	assertCheckpointContinuity(t, "bayesian", space,
		NewBayesian(space, true, 7), NewBayesian(space, true, 7), 16, 8)
}

func TestBayesianCheckpointBatchPending(t *testing.T) {
	// Checkpoint with a non-empty pending set (mid-batch, as an async
	// session would): the restored searcher must dedup against it.
	space := checkpointSpace(t)
	orig := NewBayesian(space, true, 7)
	noise := rng.New(5)
	for i := 0; i < 8; i++ {
		c := orig.Propose()
		observe(orig, c, 50+noise.Float64(), false)
	}
	batch := orig.ProposeBatch(4) // leaves 4 pending
	if orig.pending.count() != 4 {
		t.Fatalf("pending %d after batch", orig.pending.count())
	}
	data, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewBayesian(space, true, 7)
	if err := fresh.Restore(data); err != nil {
		t.Fatal(err)
	}
	if fresh.pending.count() != 4 {
		t.Fatalf("restored pending %d, want 4", fresh.pending.count())
	}
	// Observe the batch on both; trajectories stay aligned.
	for _, c := range batch {
		y := 60 + noise.Float64()
		observe(orig, c, y, false)
		observe(fresh, c, y, false)
	}
	for i := 0; i < 4; i++ {
		a, b := orig.Propose(), fresh.Propose()
		if !a.Equal(b) {
			t.Fatalf("proposal %d diverged after mid-batch restore", i)
		}
		y := 70 + noise.Float64()
		observe(orig, a, y, false)
		observe(fresh, b, y, false)
	}
}

func TestDeepTuneCheckpoint(t *testing.T) {
	space := checkpointSpace(t)
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 7
	cfg.Epochs = 2 // keep the retraining cheap
	mk := func() *DeepTune { return NewDeepTune(space, true, cfg) }
	assertCheckpointContinuity(t, "deeptune", space, mk(), mk(), 8, 4)
}

// TestUnicornCheckpoint covers Unicorn directly and through the batch
// adapter a session wraps it in. The prefix runs past the 5-observation
// cold start, so the restored searcher proposes from its refitted graph.
func TestUnicornCheckpoint(t *testing.T) {
	space := checkpointSpace(t)
	assertCheckpointContinuity(t, "unicorn", space,
		NewUnicorn(space, true, 7), NewUnicorn(space, true, 7), 12, 8)
	adapted := func() Checkpointable { return AsBatch(NewUnicorn(space, false, 7)).(Checkpointable) }
	assertCheckpointContinuity(t, "unicorn-adapter", space, adapted(), adapted(), 12, 8)
}

func TestDeepTuneRestoreRejectsUsedSearcher(t *testing.T) {
	space := checkpointSpace(t)
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 7
	orig := NewDeepTune(space, true, cfg)
	observe(orig, orig.Propose(), 1, false)
	data, err := orig.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	used := NewDeepTune(space, true, cfg)
	observe(used, used.Propose(), 2, false)
	if err := used.Restore(data); err == nil {
		t.Fatal("Restore accepted a searcher with prior observations")
	}
}

// TestAdapterPendingSnapshot: the adapter's checkpoint carries its pending
// multiset next to the wrapped searcher's state, and Restore rejects a
// count a pending set never holds, leaving the adapter as it was.
func TestAdapterPendingSnapshot(t *testing.T) {
	space := checkpointSpace(t)
	b := AsBatch(NewRandom(space, 4)).(*batchAdapter)
	batch := b.ProposeBatch(3)
	if len(batch) != 3 || b.Pending() != 3 {
		t.Fatalf("batch %d, pending %d", len(batch), b.Pending())
	}
	data, err := b.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b2 := AsBatch(NewRandom(space, 4)).(*batchAdapter)
	if err := b2.Restore(data); err != nil {
		t.Fatal(err)
	}
	if b2.Pending() != 3 {
		t.Fatalf("restored pending %d, want 3", b2.Pending())
	}
	for _, c := range batch {
		b2.Observe(Observation{Config: c})
	}
	if b2.Pending() != 0 {
		t.Fatalf("pending %d after observing the batch", b2.Pending())
	}
	for _, bad := range []int{0, -1} {
		mutated := mutateJSON(t, data, func(st map[string]any) {
			st["pending"].(map[string]any)[firstPendingKey(t, st)] = bad
		})
		if err := b.Restore(mutated); err == nil {
			t.Fatalf("Restore accepted a pending count of %d", bad)
		}
		if b.Pending() != 3 {
			t.Fatalf("rejected restore changed the pending count to %d", b.Pending())
		}
	}
}
