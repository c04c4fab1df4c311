package configspace

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"wayfinder/internal/rng"
)

// testSpace builds a small mixed-type space used across the tests.
func testSpace(t testing.TB) *Space {
	t.Helper()
	s := NewSpace("test")
	s.MustAdd(&Param{Name: "CONFIG_PREEMPT", Type: Bool, Class: CompileTime, Default: BoolValue(false)})
	s.MustAdd(&Param{Name: "CONFIG_E1000", Type: Tristate, Class: CompileTime, Default: TriValue(TriModule)})
	s.MustAdd(&Param{Name: "CONFIG_LOG_BUF_SHIFT", Type: Int, Class: CompileTime, Min: 12, Max: 25, Default: IntValue(17)})
	s.MustAdd(&Param{Name: "mitigations", Type: Enum, Class: BootTime, Values: []string{"auto", "off", "auto,nosmt"}, Default: EnumValue("auto")})
	s.MustAdd(&Param{Name: "net.core.somaxconn", Type: Int, Class: Runtime, Min: 16, Max: 1 << 16, Default: IntValue(128)})
	s.MustAdd(&Param{Name: "vm.swappiness", Type: Int, Class: Runtime, Min: 0, Max: 100, Default: IntValue(60)})
	s.MustAdd(&Param{Name: "net.core.default_qdisc", Type: Enum, Class: Runtime, Values: []string{"pfifo_fast", "fq", "fq_codel"}, Default: EnumValue("pfifo_fast")})
	return s
}

func TestAddDuplicate(t *testing.T) {
	s := NewSpace("dup")
	p := &Param{Name: "x", Type: Bool, Default: BoolValue(false)}
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&Param{Name: "x", Type: Bool, Default: BoolValue(true)}); err == nil {
		t.Fatal("duplicate add should fail")
	}
}

func TestLookup(t *testing.T) {
	s := testSpace(t)
	p, i := s.Lookup("vm.swappiness")
	if p == nil || p.Name != "vm.swappiness" || s.Param(i) != p {
		t.Fatal("lookup broken")
	}
	if p, i := s.Lookup("nope"); p != nil || i != -1 {
		t.Fatal("missing lookup should return nil, -1")
	}
	if s.Index("CONFIG_PREEMPT") != 0 {
		t.Fatal("index order wrong")
	}
}

func TestCensus(t *testing.T) {
	s := testSpace(t)
	c := s.Census()
	if c.CompileBool != 1 || c.CompileTristate != 1 || c.CompileInt != 1 {
		t.Fatalf("compile census wrong: %+v", c)
	}
	if c.Boot != 1 || c.Runtime != 3 {
		t.Fatalf("boot/runtime census wrong: %+v", c)
	}
	if c.Total() != s.Len() {
		t.Fatalf("total %d != len %d", c.Total(), s.Len())
	}
}

func TestLogCardinality(t *testing.T) {
	s := NewSpace("card")
	s.MustAdd(&Param{Name: "a", Type: Bool, Default: BoolValue(false)})
	s.MustAdd(&Param{Name: "b", Type: Int, Min: 0, Max: 9, Default: IntValue(0)})
	// 2 * 10 = 20 configs -> log10 = 1.301...
	if got := s.LogCardinality(); math.Abs(got-math.Log10(20)) > 1e-9 {
		t.Fatalf("LogCardinality = %v", got)
	}
	if err := s.Fix("b", IntValue(3)); err != nil {
		t.Fatal(err)
	}
	if got := s.LogCardinality(); math.Abs(got-math.Log10(2)) > 1e-9 {
		t.Fatalf("LogCardinality after fix = %v", got)
	}
}

func TestDefaultConfig(t *testing.T) {
	s := testSpace(t)
	d := s.Default()
	for i, p := range s.Params() {
		if d.Value(i) != p.Default {
			t.Fatalf("%s default mismatch", p.Name)
		}
	}
	if d.String() != "<default>" {
		t.Fatalf("default config String = %q", d.String())
	}
}

func TestRandomInDomain(t *testing.T) {
	s := testSpace(t)
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		c := s.Random(r)
		for i, p := range s.Params() {
			if !p.InDomain(c.Value(i)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomIntoMatchesRandom: redrawing one reused configuration with
// RandomInto must consume the RNG exactly as Random does, draw for draw,
// and leave the same values — under class weights that pin some
// parameters to their defaults, too.
func TestRandomIntoMatchesRandom(t *testing.T) {
	for _, favorCompile := range []float64{1, 0} {
		s := testSpace(t)
		s.Favor(CompileTime, favorCompile)
		ra, rb := rng.New(21), rng.New(21)
		reused := s.Random(rb)
		s.Random(ra)
		for i := 0; i < 200; i++ {
			want := s.Random(ra)
			s.RandomInto(reused, rb)
			if !reused.Equal(want) || ra.State() != rb.State() {
				t.Fatalf("favor compile %v, draw %d: RandomInto %s != Random %s (or the RNG streams diverged)",
					favorCompile, i, reused, want)
			}
		}
	}
}

// refMutable is the per-call mutable-parameter scan Mutate and Neighbor
// made before the lists were built eagerly: the reference the eager lists
// must reproduce.
func refMutable(s *Space) (mutable []int, weights []float64) {
	for i, p := range s.params {
		if p.Fixed {
			continue
		}
		w := s.favored[p.Class]
		if w <= 0 {
			continue
		}
		mutable = append(mutable, i)
		weights = append(weights, w)
	}
	return mutable, weights
}

// refMutate is Mutate as written before MutateInto: the scan per call and
// a map of the parameters already resampled.
func refMutate(s *Space, base *Config, k int, r *rng.RNG) *Config {
	c := base.Clone()
	mutable, weights := refMutable(s)
	if len(mutable) == 0 {
		return c
	}
	k = max(1, min(k, len(mutable)))
	seen := make(map[int]bool, k)
	for len(seen) < k {
		pick := mutable[r.Choice(weights)]
		if seen[pick] {
			continue
		}
		seen[pick] = true
		c.SetIndex(pick, sampleValue(s.params[pick], r))
	}
	return c
}

// refNeighbor is Neighbor as written before NeighborInto.
func refNeighbor(s *Space, base *Config, r *rng.RNG) *Config {
	c := base.Clone()
	mutable, weights := refMutable(s)
	if len(mutable) == 0 {
		return c
	}
	pick := mutable[r.Choice(weights)]
	p := s.params[pick]
	switch p.Type {
	case Int, Hex:
		cur := c.raw[pick]
		factor := 1.0 + r.Float64()
		var next int64
		if r.Bool() {
			next = int64(math.Round(float64(cur) * factor))
		} else {
			next = int64(math.Round(float64(cur) / factor))
		}
		if next == cur {
			next = cur + 1
		}
		next = max(p.Min, min(next, p.Max))
		c.SetIndex(pick, IntValue(next))
	default:
		c.SetIndex(pick, sampleValue(p, r))
	}
	return c
}

// TestMutateAndNeighborIntoMatchReference: the allocating Mutate and
// Neighbor and the in-place MutateInto and NeighborInto (redrawing one
// reused configuration, and in place over their own base) must each
// match the per-call-scan reference draw for draw — values and RNG state —
// under every class weighting, a zero weight and a fixed parameter
// included, and after weights change mid-stream.
func TestMutateAndNeighborIntoMatchReference(t *testing.T) {
	s := NewSpace("test")
	s.Favor(BootTime, 0)
	for _, p := range testSpace(t).params {
		s.MustAdd(p) // the lists grow with Add, skipping the zero-weight class
		if m, w := refMutable(s); !slices.Equal(s.mutable, m) || !slices.Equal(s.weights, w) {
			t.Fatalf("after adding %s: mutable %v %v, reference %v %v", p.Name, s.mutable, s.weights, m, w)
		}
	}
	if err := s.Fix("CONFIG_E1000", TriValue(TriYes)); err != nil {
		t.Fatal(err)
	}
	for _, favor := range []struct{ compile, runtime float64 }{{1, 1}, {0, 1}, {2.5, 0.5}, {0, 0}, {1, 0}} {
		s.Favor(CompileTime, favor.compile)
		s.Favor(Runtime, favor.runtime)
		seeds := rng.New(uint64(100 * favor.runtime))
		base := s.Random(seeds)
		reused, inPlace := s.Default(), base.Clone()
		rs := [4]*rng.RNG{rng.New(7), rng.New(7), rng.New(7), rng.New(7)}
		for i := 0; i < 300; i++ {
			k := 1 + i%4
			var want *Config
			var got [3]*Config
			if i%3 == 0 {
				want = refNeighbor(s, base, rs[0])
				got[0] = s.Neighbor(base, rs[1])
				s.NeighborInto(reused, base, rs[2])
				copy(inPlace.raw, base.raw)
				s.NeighborInto(inPlace, inPlace, rs[3])
			} else {
				want = refMutate(s, base, k, rs[0])
				got[0] = s.Mutate(base, k, rs[1])
				s.MutateInto(reused, base, k, rs[2])
				copy(inPlace.raw, base.raw)
				s.MutateInto(inPlace, inPlace, k, rs[3])
			}
			got[1], got[2] = reused, inPlace
			for j, c := range got {
				if !c.Equal(want) || rs[j+1].State() != rs[0].State() {
					t.Fatalf("favor %+v draw %d variant %d: %s, reference %s (or the RNG streams diverged)", favor, i, j, c, want)
				}
			}
		}
	}
}

// refRandomInto is RandomInto as written before it drew from the mutable
// list: a scan of every parameter, testing fixedness and the class weight
// per parameter.
func refRandomInto(s *Space, c *Config, r *rng.RNG) {
	for i, p := range s.params {
		if p.Fixed || s.favored[p.Class] <= 0 {
			c.raw[i] = s.defaults[i]
			continue
		}
		c.raw[i] = sampleRaw(p, r)
	}
}

// TestRandomIntoMatchesReference: Random and RandomInto (into a reused
// configuration) match the per-parameter scan draw for draw — values and
// RNG state — under every class weighting and with parameters fixed, and
// the cached weight total is the sum rng.Choice computes, bit for bit.
func TestRandomIntoMatchesReference(t *testing.T) {
	for _, s := range []*Space{testSpace(t), digestSpace(t)} {
		if err := s.Fix(s.params[1].Name, s.params[1].Default); err != nil {
			t.Fatal(err)
		}
		if err := s.Fix(s.params[len(s.params)-1].Name, s.params[len(s.params)-1].Default); err != nil {
			t.Fatal(err)
		}
		reused := s.Default()
		for _, favor := range []struct{ compile, boot, runtime float64 }{
			{1, 1, 1}, {0, 1, 1}, {2.5, 0, 0.5}, {0, 0, 0}, {1, 0.3, 0}, {0.1, 0.2, 0.7},
		} {
			s.Favor(CompileTime, favor.compile)
			s.Favor(BootTime, favor.boot)
			s.Favor(Runtime, favor.runtime)
			total := 0.0
			for _, w := range s.weights {
				if w > 0 {
					total += w
				}
			}
			if math.Float64bits(total) != math.Float64bits(s.total) {
				t.Fatalf("%s favor %+v: cached total %v, Choice's sum %v", s.Name, favor, s.total, total)
			}
			ref := s.Default()
			rs := [3]*rng.RNG{rng.New(5), rng.New(5), rng.New(5)}
			for i := 0; i < 200; i++ {
				refRandomInto(s, ref, rs[0])
				got := s.Random(rs[1])
				s.RandomInto(reused, rs[2])
				for j, c := range []*Config{got, reused} {
					if !c.Equal(ref) || rs[j+1].State() != rs[0].State() {
						t.Fatalf("%s favor %+v draw %d variant %d: %s, reference %s (or the RNG streams diverged)",
							s.Name, favor, i, j, c, ref)
					}
				}
			}
		}
	}
}

func TestFavorNaNCountsAsZero(t *testing.T) {
	s := testSpace(t)
	s.Favor(Runtime, math.NaN())
	if w := s.ClassWeight(Runtime); w != 0 {
		t.Fatalf("ClassWeight after Favor(NaN) = %v, want 0", w)
	}
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		c := s.Random(r)
		for j, p := range s.params {
			if p.Class == Runtime && c.raw[j] != s.defaults[j] {
				t.Fatalf("Random drew runtime parameter %s under a NaN weight", p.Name)
			}
		}
	}
}

func TestRandomRespectsFixed(t *testing.T) {
	s := testSpace(t)
	if err := s.Fix("vm.swappiness", IntValue(10)); err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		c := s.Random(r)
		if got := c.GetInt("vm.swappiness", -1); got != 10 {
			t.Fatalf("fixed parameter varied: %d", got)
		}
	}
}

func TestFixErrors(t *testing.T) {
	s := testSpace(t)
	if err := s.Fix("nope", IntValue(1)); err == nil {
		t.Fatal("fixing unknown parameter should fail")
	}
	if err := s.Fix("vm.swappiness", IntValue(1000)); err == nil {
		t.Fatal("fixing out-of-domain value should fail")
	}
}

func TestLogUniformSamplingHitsSmallEnd(t *testing.T) {
	// A [16, 65536] range sampled log-uniformly should produce values below
	// 256 reasonably often (~40% of draws); plain uniform would give ~0.4%.
	s := NewSpace("log")
	s.MustAdd(&Param{Name: "n", Type: Int, Class: Runtime, Min: 16, Max: 1 << 16, Default: IntValue(128)})
	r := rng.New(77)
	small := 0
	const n = 2000
	for i := 0; i < n; i++ {
		c := s.Random(r)
		if c.GetInt("n", 0) < 256 {
			small++
		}
	}
	if frac := float64(small) / n; frac < 0.2 {
		t.Fatalf("small-end fraction = %v, expected log-uniform behaviour", frac)
	}
}

func TestMutateChangesExactlyK(t *testing.T) {
	s := testSpace(t)
	r := rng.New(9)
	base := s.Default()
	for k := 1; k <= 3; k++ {
		// Mutation may re-draw the same value; diff count is <= k, and the
		// mutated indices are within the space.
		c := s.Mutate(base, k, r)
		if d := len(base.Diff(c)); d > k {
			t.Fatalf("Mutate(k=%d) changed %d parameters", k, d)
		}
	}
}

func TestMutateRespectsFavor(t *testing.T) {
	s := testSpace(t)
	s.Favor(CompileTime, 0)
	s.Favor(BootTime, 0)
	r := rng.New(13)
	base := s.Default()
	for i := 0; i < 100; i++ {
		c := s.Mutate(base, 2, r)
		for _, idx := range base.Diff(c) {
			if s.Param(idx).Class != Runtime {
				t.Fatalf("mutation touched %s despite zero weight", s.Param(idx).Name)
			}
		}
	}
}

func TestMutateRespectsFixed(t *testing.T) {
	s := testSpace(t)
	if err := s.Fix("net.core.somaxconn", IntValue(1024)); err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	base := s.Default()
	for i := 0; i < 200; i++ {
		c := s.Mutate(base, s.Len(), r)
		if got := c.GetInt("net.core.somaxconn", -1); got != 1024 {
			t.Fatalf("fixed param mutated to %d", got)
		}
	}
}

func TestNeighborStaysInDomain(t *testing.T) {
	s := testSpace(t)
	r := rng.New(21)
	c := s.Default()
	for i := 0; i < 500; i++ {
		c = s.Neighbor(c, r)
		for j, p := range s.Params() {
			if !p.InDomain(c.Value(j)) {
				t.Fatalf("neighbor left domain for %s: %v", p.Name, c.Value(j))
			}
		}
	}
}

func TestNeighborChangesAtMostOne(t *testing.T) {
	s := testSpace(t)
	r := rng.New(23)
	base := s.Default()
	for i := 0; i < 100; i++ {
		c := s.Neighbor(base, r)
		if d := len(base.Diff(c)); d > 1 {
			t.Fatalf("neighbor changed %d parameters", d)
		}
	}
}

func TestSortedNames(t *testing.T) {
	s := testSpace(t)
	names := s.SortedNames()
	if len(names) != s.Len() {
		t.Fatal("wrong count")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}
