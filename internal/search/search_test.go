package search

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/rng"
)

// toySpace returns a small space with one high-impact int and filler.
func toySpace() *configspace.Space {
	s := configspace.NewSpace("toy")
	s.MustAdd(&configspace.Param{Name: "knob", Type: configspace.Int, Class: configspace.Runtime,
		Min: 0, Max: 100, Default: configspace.IntValue(50)})
	s.MustAdd(&configspace.Param{Name: "flag", Type: configspace.Bool, Class: configspace.Runtime,
		Default: configspace.BoolValue(false)})
	s.MustAdd(&configspace.Param{Name: "mode", Type: configspace.Enum, Class: configspace.Runtime,
		Values: []string{"a", "b", "c"}, Default: configspace.EnumValue("a")})
	for i := 0; i < 4; i++ {
		s.MustAdd(&configspace.Param{Name: string(rune('w' + i)), Type: configspace.Int,
			Class: configspace.Runtime, Min: 0, Max: 10, Default: configspace.IntValue(5)})
	}
	return s
}

// toyObjective: y = knob, maximize. Crash when knob > 90.
func toyObjective(c *configspace.Config) (float64, bool) {
	k := float64(c.GetInt("knob", 0))
	return k, k > 90
}

// drive runs a searcher for n iterations against the toy objective and
// returns the best non-crashed metric.
func drive(t *testing.T, s Searcher, space *configspace.Space, n int) float64 {
	t.Helper()
	enc := configspace.NewEncoder(space)
	best := -1.0
	for i := 0; i < n; i++ {
		c := s.Propose()
		if c == nil {
			t.Fatal("nil proposal")
		}
		y, crashed := toyObjective(c)
		if !crashed && y > best {
			best = y
		}
		metric := y
		if crashed {
			metric = 0
		}
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: metric, Crashed: crashed, Stage: "run"})
	}
	return best
}

func TestRandomProposesUnique(t *testing.T) {
	space := toySpace()
	s := NewRandom(space, 1)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		c := s.Propose()
		if seen[c.Hash()] {
			t.Fatal("random proposed a duplicate with plenty of space left")
		}
		seen[c.Hash()] = true
	}
}

func TestRandomRespectsFavor(t *testing.T) {
	space := toySpace()
	space.Favor(configspace.Runtime, 0) // pin everything
	s := NewRandom(space, 2)
	c := s.Propose()
	if len(c.Diff(space.Default())) != 0 {
		t.Fatal("zero-weight class was varied")
	}
}

func TestGridCoversDomains(t *testing.T) {
	space := toySpace()
	s := NewGrid(space)
	modes := map[string]bool{}
	flags := map[int64]bool{}
	for i := 0; i < 60; i++ {
		c := s.Propose()
		modes[c.GetString("mode", "")] = true
		flags[c.GetInt("flag", 0)] = true
	}
	if len(modes) != 3 {
		t.Fatalf("grid visited %d of 3 enum values", len(modes))
	}
	if len(flags) != 2 {
		t.Fatalf("grid visited %d of 2 bool values", len(flags))
	}
}

func TestGridChangesOneParamAtATime(t *testing.T) {
	space := toySpace()
	s := NewGrid(space)
	def := space.Default()
	for i := 0; i < 30; i++ {
		c := s.Propose()
		if len(def.Diff(c)) > 1 {
			t.Fatal("grid changed more than one parameter from base")
		}
	}
}

func TestGridSkipsFixed(t *testing.T) {
	space := toySpace()
	if err := space.Fix("knob", configspace.IntValue(42)); err != nil {
		t.Fatal(err)
	}
	s := NewGrid(space)
	for i := 0; i < 50; i++ {
		if c := s.Propose(); c.GetInt("knob", -1) != 42 {
			t.Fatal("grid varied a fixed parameter")
		}
	}
}

func TestBayesianFindsGoodRegion(t *testing.T) {
	space := toySpace()
	s := NewBayesian(space, true, 3)
	best := drive(t, s, space, 60)
	if best < 75 {
		t.Fatalf("bayesian best = %v, want ≥75", best)
	}
}

func TestBayesianMinimize(t *testing.T) {
	space := toySpace()
	s := NewBayesian(space, false, 4)
	enc := configspace.NewEncoder(space)
	bestLow := 1e9
	for i := 0; i < 50; i++ {
		c := s.Propose()
		y, crashed := toyObjective(c)
		if !crashed && y < bestLow {
			bestLow = y
		}
		s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: y, Crashed: crashed})
	}
	if bestLow > 20 {
		t.Fatalf("minimizing bayesian best = %v, want ≤20", bestLow)
	}
}

func TestDeepTuneFindsGoodRegionAndAvoidsCrashes(t *testing.T) {
	space := toySpace()
	cfg := deeptune.DefaultConfig()
	cfg.Epochs = 4
	cfg.Seed = 5
	s := NewDeepTune(space, true, cfg)
	best := drive(t, s, space, 80)
	if best < 75 {
		t.Fatalf("deeptune best = %v, want ≥75", best)
	}
	// After training, proposals should mostly avoid the crash zone.
	crashy := 0
	for i := 0; i < 30; i++ {
		if c := s.Propose(); c.GetInt("knob", 0) > 90 {
			crashy++
		}
	}
	if crashy > 10 {
		t.Fatalf("deeptune proposed %d/30 crash-zone configs after training", crashy)
	}
}

func TestUnicornImproves(t *testing.T) {
	space := toySpace()
	s := NewUnicorn(space, true, 6)
	best := drive(t, s, space, 40)
	if best < 70 {
		t.Fatalf("unicorn best = %v, want ≥70", best)
	}
	if s.Optimizer().Graphs() != 40 {
		t.Fatalf("unicorn refit %d times, want 40 (one per observation)", s.Optimizer().Graphs())
	}
}

func TestBayesianCrashPenaltyOnMinimize(t *testing.T) {
	// Regression: on minimize objectives every signed value is ≤ 0, so the
	// old zero-initialized `worst` taught crashes to the GP as the *best*
	// value seen, steering BO toward crashing regions. A crash must be
	// taught at the worst observed signed value instead.
	space := toySpace()
	s := NewBayesian(space, false, 1)
	enc := configspace.NewEncoder(space)
	r := rng.New(7)

	good := space.Random(r)
	bad := space.Random(r)
	crash := space.Random(r)
	s.Observe(Observation{Config: good, X: enc.Encode(good), Metric: 2})
	s.Observe(Observation{Config: bad, X: enc.Encode(bad), Metric: 5})
	if !s.haveWorst || s.worst != -5 {
		t.Fatalf("worst = %v (have %v), want -5 after observing metrics 2 and 5 on minimize", s.worst, s.haveWorst)
	}
	s.Observe(Observation{Config: crash, X: enc.Encode(crash), Crashed: true, Stage: "run"})
	if s.model.Len() != 3 {
		t.Fatalf("model has %d points, want 3 (crash taught as worst-case)", s.model.Len())
	}
	// The GP interpolates training points closely (tiny noise), so the
	// posterior mean at the crash point reveals the value it was taught:
	// the worst signed value (-5), not the old penalty of 0 — which on
	// minimize would have beaten every real observation.
	mean, _, err := s.model.Predict(enc.Encode(crash))
	if err != nil {
		t.Fatal(err)
	}
	if mean > -3 {
		t.Fatalf("crash taught near %v in signed space — an improvement over real observations; want ≈ -5", mean)
	}
}

func TestBayesianFirstObservationCrash(t *testing.T) {
	// Regression: the old worst-tracking guard (model.Len() == 0) broke
	// when the session opened with a crash — with no successful
	// observation there is no penalty scale, so the crash is withheld
	// from the surrogate instead of being taught as 0.
	space := toySpace()
	s := NewBayesian(space, false, 2)
	enc := configspace.NewEncoder(space)
	r := rng.New(8)
	crash := space.Random(r)
	s.Observe(Observation{Config: crash, X: enc.Encode(crash), Crashed: true, Stage: "build"})
	if s.model.Len() != 0 {
		t.Fatalf("model has %d points after an opening crash, want 0", s.model.Len())
	}
	if s.haveWorst {
		t.Fatal("a crash must not establish the worst-observed value")
	}
	ok := space.Random(r)
	s.Observe(Observation{Config: ok, X: enc.Encode(ok), Metric: 3})
	if !s.haveWorst || s.worst != -3 {
		t.Fatalf("worst = %v (have %v) after first success, want -3", s.worst, s.haveWorst)
	}
	// Crashes are penalizable again now that a scale exists.
	s.Observe(Observation{Config: crash, X: enc.Encode(crash), Crashed: true, Stage: "build"})
	if s.model.Len() != 2 {
		t.Fatalf("model has %d points, want 2", s.model.Len())
	}
}

func TestGridTerminatesOnUnsweepableSpace(t *testing.T) {
	// Regression: Propose spun forever when every parameter was Fixed or
	// in a zero-weight class — the wrap-around reset never yielded.
	space := toySpace()
	space.Favor(configspace.Runtime, 0) // every toy parameter is Runtime
	s := NewGrid(space)
	done := make(chan *configspace.Config, 1)
	go func() { done <- s.Propose() }()
	select {
	case c := <-done:
		if c == nil {
			t.Fatal("nil proposal")
		}
		if len(c.Diff(space.Default())) != 0 {
			t.Fatal("unsweepable space must fall back to the base configuration")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Grid.Propose hung on a space with no sweepable parameters")
	}
	// Same via Fix: pin every parameter individually.
	space2 := toySpace()
	for _, p := range space2.Params() {
		if err := space2.Fix(p.Name, p.Default); err != nil {
			t.Fatal(err)
		}
	}
	s2 := NewGrid(space2)
	go func() { done <- s2.Propose() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Grid.Propose hung on an all-Fixed space")
	}
}

func TestGridValuesNegativeMin(t *testing.T) {
	// Regression: the integer ladder v = v*4+1 diverged to -inf for
	// parameters with Min < 0 (unbounded allocation). The sign-safe
	// ladder shrinks negatives toward zero and still reaches Max.
	p := &configspace.Param{Name: "signed", Type: configspace.Int, Class: configspace.Runtime,
		Min: -100000, Max: 100000, Default: configspace.IntValue(0)}
	vals := gridValues(p)
	if len(vals) == 0 || len(vals) > 64 {
		t.Fatalf("ladder has %d values — diverged or empty", len(vals))
	}
	for i, v := range vals {
		if v.I < p.Min || v.I > p.Max {
			t.Fatalf("ladder value %d out of range [%d, %d]", v.I, p.Min, p.Max)
		}
		if i > 0 && v.I <= vals[i-1].I {
			t.Fatalf("ladder not strictly increasing: %d after %d", v.I, vals[i-1].I)
		}
	}
	if vals[0].I != p.Min || vals[len(vals)-1].I != p.Max {
		t.Fatalf("ladder endpoints [%d, %d], want [%d, %d]", vals[0].I, vals[len(vals)-1].I, p.Min, p.Max)
	}
}

func TestGridValuesHugeMax(t *testing.T) {
	// The ladder's multiply is overflow-guarded near MaxInt64.
	p := &configspace.Param{Name: "huge", Type: configspace.Int, Class: configspace.Runtime,
		Min: 1, Max: math.MaxInt64, Default: configspace.IntValue(1)}
	vals := gridValues(p)
	if len(vals) == 0 || len(vals) > 64 {
		t.Fatalf("ladder has %d values — overflow loop", len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i].I <= vals[i-1].I {
			t.Fatalf("ladder wrapped: %d after %d", vals[i].I, vals[i-1].I)
		}
	}
	if vals[len(vals)-1].I != math.MaxInt64 {
		t.Fatalf("ladder top %d, want MaxInt64", vals[len(vals)-1].I)
	}
}

// TestDecisionCostRecorded pins the one DecisionCost convention every
// built-in searcher shares, used directly and through AsBatch: the host
// time spent since the previous call, drained on read.
func TestDecisionCostRecorded(t *testing.T) {
	space := toySpace()
	enc := configspace.NewEncoder(space)
	builders := map[string]func() Searcher{
		"random":   func() Searcher { return NewRandom(space, 1) },
		"grid":     func() Searcher { return NewGrid(space) },
		"bayesian": func() Searcher { return NewBayesian(space, true, 1) },
		"deeptune": func() Searcher { return NewDeepTune(space, true, deeptune.DefaultConfig()) },
		"unicorn":  func() Searcher { return NewUnicorn(space, true, 1) },
	}
	for _, name := range slices.Sorted(maps.Keys(builders)) {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", name, batched), func(t *testing.T) {
				s := builders[name]()
				propose := func(n int) []*configspace.Config {
					out := make([]*configspace.Config, n)
					for i := range out {
						out[i] = s.Propose()
					}
					return out
				}
				if batched {
					b := AsBatch(s)
					s, propose = b, b.ProposeBatch
				}
				c := propose(1)[0]
				s.Observe(Observation{Config: c, X: enc.Encode(c), Metric: 1, Stage: "ok"})
				if d := s.DecisionCost(); d <= 0 {
					t.Fatalf("Propose+Observe cost %v, want > 0", d)
				}
				if d := s.DecisionCost(); d != 0 {
					t.Fatalf("immediate second read %v, want 0 (drained)", d)
				}
				propose(2)
				if d := s.DecisionCost(); d <= 0 {
					t.Fatalf("two-proposal round cost %v, want > 0", d)
				}
				if d := s.DecisionCost(); d != 0 {
					t.Fatalf("two-proposal round cost returned twice (second read %v)", d)
				}
			})
		}
	}
}

func TestSearcherNames(t *testing.T) {
	space := toySpace()
	names := map[string]Searcher{
		"random":   NewRandom(space, 1),
		"grid":     NewGrid(space),
		"bayesian": NewBayesian(space, true, 1),
		"deeptune": NewDeepTune(space, true, deeptune.DefaultConfig()),
		"unicorn":  NewUnicorn(space, true, 1),
	}
	for _, want := range slices.Sorted(maps.Keys(names)) {
		if s := names[want]; s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}
