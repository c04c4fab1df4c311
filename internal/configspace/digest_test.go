package configspace

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"sync"
	"testing"

	"wayfinder/internal/rng"
)

// mutateClass returns a copy of base with up to k randomly-chosen
// parameters of the given class resampled — a targeted mutation that keeps
// every other class's assignment intact.
func mutateClass(base *Config, class Class, k int, r *rng.RNG) *Config {
	out := base.Clone()
	s := base.Space()
	var idx []int
	for i, p := range s.Params() {
		if p.Class == class {
			idx = append(idx, i)
		}
	}
	for j := 0; j < k && len(idx) > 0; j++ {
		i := idx[r.Intn(len(idx))]
		out.SetIndex(i, sampleValue(s.Param(i), r))
	}
	return out
}

// TestStageDigestsReproducePairwiseSkipDecisions is the property the
// content-addressed cache rests on: for any pair of configurations,
// CompileKey equality must decide the build skip exactly as the pairwise
// OnlyBootOrRuntimeDiff predicate did, and BootKey equality the reboot
// skip exactly as OnlyRuntimeDiff did. The pair pool mixes unrelated
// random configurations (almost surely compile-differing) with targeted
// single-class mutations and exact clones, so both sides of each
// equivalence are exercised many times.
func TestStageDigestsReproducePairwiseSkipDecisions(t *testing.T) {
	s := testSpace(t)
	r := rng.New(42)
	pairs := 0
	check := func(a, b *Config) {
		t.Helper()
		pairs++
		if got, want := a.CompileKey() == b.CompileKey(), a.OnlyBootOrRuntimeDiff(b); got != want {
			t.Fatalf("CompileKey equality %v but OnlyBootOrRuntimeDiff %v for\n  a=%s\n  b=%s",
				got, want, a.String(), b.String())
		}
		if got, want := a.BootKey() == b.BootKey(), a.OnlyRuntimeDiff(b); got != want {
			t.Fatalf("BootKey equality %v but OnlyRuntimeDiff %v for\n  a=%s\n  b=%s",
				got, want, a.String(), b.String())
		}
	}
	for i := 0; i < 400; i++ {
		a := s.Random(r)
		check(a, a.Clone())
		check(a, s.Random(r))
		check(a, mutateClass(a, Runtime, 1+r.Intn(3), r))
		check(a, mutateClass(a, BootTime, 1, r))
		check(a, mutateClass(a, CompileTime, 1+r.Intn(2), r))
		// Mixed boot+runtime mutation: reuses the image, not the instance.
		check(a, mutateClass(mutateClass(a, Runtime, 2, r), BootTime, 1, r))
	}
	if pairs != 400*6 {
		t.Fatalf("exercised %d pairs", pairs)
	}
}

// TestStageDigestsStable pins the digests' invariants: clones agree,
// runtime-only changes leave both digests alone, boot changes move BootKey
// but not CompileKey, and compile changes move both.
func TestStageDigestsStable(t *testing.T) {
	s := testSpace(t)
	a := s.Default()
	if a.CompileKey() != a.Clone().CompileKey() || a.BootKey() != a.Clone().BootKey() {
		t.Fatal("equal configs must digest equal")
	}
	if a.CompileKey() == a.BootKey() {
		t.Fatal("stage digests of the same config should be decorrelated by their salts")
	}
	b := a.Clone()
	b.MustSet("vm.swappiness", IntValue(0))
	if a.CompileKey() != b.CompileKey() || a.BootKey() != b.BootKey() {
		t.Fatal("runtime change must not move stage digests")
	}
	b.MustSet("mitigations", EnumValue("off"))
	if a.CompileKey() != b.CompileKey() {
		t.Fatal("boot change must not move CompileKey")
	}
	if a.BootKey() == b.BootKey() {
		t.Fatal("boot change must move BootKey")
	}
	b.MustSet("CONFIG_PREEMPT", BoolValue(true))
	if a.CompileKey() == b.CompileKey() || a.BootKey() == b.BootKey() {
		t.Fatal("compile change must move both digests")
	}
}

// digestSpace has every parameter type in every class, with enum domains
// holding an empty string and multi-byte UTF-8 values, and integer
// ranges reaching negative and above 2³² values, so every byte of the
// digest stream varies.
func digestSpace(t testing.TB) *Space {
	t.Helper()
	s := NewSpace("digest")
	enum := []string{"", "auto", "ünïcödé", "日本語", "a\x00b"}
	for _, class := range []Class{CompileTime, BootTime, Runtime} {
		pre := class.String() + "."
		s.MustAdd(&Param{Name: pre + "bool", Type: Bool, Class: class, Default: BoolValue(false)})
		s.MustAdd(&Param{Name: pre + "tri", Type: Tristate, Class: class, Default: TriValue(TriModule)})
		s.MustAdd(&Param{Name: pre + "int", Type: Int, Class: class, Min: -1 << 40, Max: 1 << 40, Default: IntValue(-3)})
		s.MustAdd(&Param{Name: pre + "hex", Type: Hex, Class: class, Min: 0x1000, Max: 0xffffffffff, Default: IntValue(0x2000)})
		s.MustAdd(&Param{Name: pre + "enum", Type: Enum, Class: class, Values: enum, Default: EnumValue("")})
		s.MustAdd(&Param{Name: pre + "enum2", Type: Enum, Class: class, Values: enum, Default: EnumValue("日本語")})
	}
	return s
}

// oracleFold feeds v into h as the digests always have: the 8
// little-endian bytes of I, the bytes of S, then 0x00.
func oracleFold(h hash.Hash64, v Value) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v.I))
	h.Write(buf[:])
	h.Write([]byte(v.S))
	h.Write([]byte{0})
}

// oracleDigests computes Hash, CompileKey and BootKey from scratch with
// hash/fnv, ignoring any memo.
func oracleDigests(c *Config) (hashV, compileKey, bootKey uint64) {
	stage := func(salt string, includeBoot bool) uint64 {
		h := fnv.New64a()
		h.Write([]byte(salt))
		for i, p := range c.Space().Params() {
			if p.Class == Runtime || (p.Class == BootTime && !includeBoot) {
				continue
			}
			oracleFold(h, c.Value(i))
		}
		return h.Sum64()
	}
	h := fnv.New64a()
	for i := range c.Space().Len() {
		oracleFold(h, c.Value(i))
	}
	return h.Sum64(), stage(compileKeySalt, false), stage(bootKeySalt, true)
}

// checkDigests fails unless c's (possibly memoized) digests equal the
// oracle's fresh computation.
func checkDigests(t *testing.T, what string, c *Config) {
	t.Helper()
	h, ck, bk := oracleDigests(c)
	if c.Hash() != h || c.CompileKey() != ck || c.BootKey() != bk {
		t.Fatalf("%s: digests (%#x, %#x, %#x), fresh FNV-64a (%#x, %#x, %#x) for %s",
			what, c.Hash(), c.CompileKey(), c.BootKey(), h, ck, bk, c)
	}
}

// TestDigestsMatchFNV64a pins the digest contract: Hash, CompileKey and
// BootKey equal hash/fnv's New64a fed the byte stream above, for the
// default, every enum value (the empty and multi-byte ones included) and
// random configurations of every parameter type; queried twice, so the
// memoized answer is checked as well as the first.
func TestDigestsMatchFNV64a(t *testing.T) {
	s := digestSpace(t)
	checkDigests(t, "default", s.Default())
	for _, name := range []string{"compile.enum", "boot.enum", "runtime.enum"} {
		for _, v := range s.Param(s.Index(name)).Values {
			c := s.Default()
			c.MustSet(name, EnumValue(v))
			checkDigests(t, name+"="+v, c)
			checkDigests(t, name+"="+v+" (memoized)", c)
		}
	}
	r := rng.New(5)
	for i := 0; i < 500; i++ {
		c := s.Random(r)
		checkDigests(t, "random", c)
		checkDigests(t, "random (memoized)", c)
		checkDigests(t, "clone", c.Clone())
	}
}

// TestDigestMemoInvalidation: every mutator leaves the memoized digests
// exactly as a fresh computation over the new values — each runs on a
// configuration whose digests were all computed first, so a mutator that
// kept a stale memo fails here.
func TestDigestMemoInvalidation(t *testing.T) {
	s := digestSpace(t)
	r := rng.New(9)
	primed := func() *Config {
		c := s.Random(r)
		c.Hash()
		c.CompileKey()
		c.BootKey()
		return c
	}
	// fresh picks a parameter and a value for it that c does not hold.
	fresh := func(c *Config) (int, Value) {
		i := r.Intn(s.Len())
		v := sampleValue(s.Param(i), r)
		for v == c.Value(i) {
			v = sampleValue(s.Param(i), r)
		}
		return i, v
	}
	mutators := []struct {
		name string
		do   func(c *Config)
	}{
		{"Set", func(c *Config) {
			i, v := fresh(c)
			c.MustSet(s.Param(i).Name, v)
		}},
		{"SetIndex", func(c *Config) { c.SetIndex(fresh(c)) }},
		{"RandomInto", func(c *Config) { s.RandomInto(c, r) }},
		{"MutateInto", func(c *Config) { s.MutateInto(c, s.Random(r), 1+r.Intn(3), r) }},
		{"MutateInto in place", func(c *Config) { s.MutateInto(c, c, 1+r.Intn(3), r) }},
		{"NeighborInto", func(c *Config) { s.NeighborInto(c, s.Random(r), r) }},
		{"NeighborInto in place", func(c *Config) { s.NeighborInto(c, c, r) }},
	}
	for _, m := range mutators {
		moved := 0
		for i := 0; i < 50; i++ {
			c := primed()
			before := c.Hash()
			m.do(c)
			checkDigests(t, m.name, c)
			if c.Hash() != before {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("%s never changed a configuration: the check saw no invalidation", m.name)
		}
	}
	// Clone carries the memo, and the copies invalidate independently.
	a := primed()
	b := a.Clone()
	checkDigests(t, "clone", b)
	b.SetIndex(0, BoolValue(b.Value(0).I == 0))
	checkDigests(t, "mutated clone", b)
	checkDigests(t, "clone's original", a)
}

// TestDigestConcurrentReads hashes one shared configuration from several
// goroutines at once: the memo is written by whichever goroutine computes
// first, and every goroutine must read the oracle's digests. Run under
// -race this checks the memo is race-free.
func TestDigestConcurrentReads(t *testing.T) {
	s := digestSpace(t)
	for round := 0; round < 20; round++ {
		c := s.Random(rng.New(uint64(round)))
		h, ck, bk := oracleDigests(c)
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if c.BootKey() != bk || c.Hash() != h || c.CompileKey() != ck {
						errs <- "concurrent digest differs from the oracle"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
