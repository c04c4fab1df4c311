package configspace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"wayfinder/internal/rng"
)

func TestConfigSetGet(t *testing.T) {
	s := testSpace(t)
	c := s.Default()
	if err := c.Set("vm.swappiness", IntValue(10)); err != nil {
		t.Fatal(err)
	}
	if got := c.GetInt("vm.swappiness", -1); got != 10 {
		t.Fatalf("GetInt = %d", got)
	}
	if got := c.GetString("net.core.default_qdisc", ""); got != "pfifo_fast" {
		t.Fatalf("GetString = %q", got)
	}
	if got := c.GetInt("missing", -7); got != -7 {
		t.Fatal("missing int should return default")
	}
	if got := c.GetString("missing", "d"); got != "d" {
		t.Fatal("missing string should return default")
	}
}

func TestConfigSetErrors(t *testing.T) {
	s := testSpace(t)
	c := s.Default()
	if err := c.Set("missing", IntValue(1)); err == nil {
		t.Fatal("set of unknown param should fail")
	}
	if err := c.Set("vm.swappiness", IntValue(101)); err == nil {
		t.Fatal("out-of-domain set should fail")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := testSpace(t)
	a := s.Default()
	b := a.Clone()
	b.MustSet("vm.swappiness", IntValue(0))
	if a.GetInt("vm.swappiness", -1) != 60 {
		t.Fatal("clone aliases original")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone should be equal")
	}
	if a.Equal(b) {
		t.Fatal("diverged clone should not be equal")
	}
}

func TestDiff(t *testing.T) {
	s := testSpace(t)
	a := s.Default()
	b := a.Clone()
	if len(a.Diff(b)) != 0 {
		t.Fatal("identical configs should have empty diff")
	}
	b.MustSet("CONFIG_PREEMPT", BoolValue(true))
	b.MustSet("vm.swappiness", IntValue(0))
	d := a.Diff(b)
	if len(d) != 2 {
		t.Fatalf("diff = %v", d)
	}
}

func TestOnlyRuntimeDiff(t *testing.T) {
	s := testSpace(t)
	a := s.Default()
	b := a.Clone()
	b.MustSet("vm.swappiness", IntValue(0))
	if !a.OnlyRuntimeDiff(b) {
		t.Fatal("runtime-only diff not detected")
	}
	b.MustSet("mitigations", EnumValue("off"))
	if a.OnlyRuntimeDiff(b) {
		t.Fatal("boot param change should not be runtime-only")
	}
	if !a.OnlyBootOrRuntimeDiff(b) {
		t.Fatal("boot+runtime diff should allow build reuse")
	}
	b.MustSet("CONFIG_PREEMPT", BoolValue(true))
	if a.OnlyBootOrRuntimeDiff(b) {
		t.Fatal("compile change should force rebuild")
	}
}

func TestHashStability(t *testing.T) {
	s := testSpace(t)
	a := s.Default()
	if a.Hash() != a.Clone().Hash() {
		t.Fatal("equal configs must hash equal")
	}
	b := a.Clone()
	b.MustSet("vm.swappiness", IntValue(61))
	if a.Hash() == b.Hash() {
		t.Fatal("different configs should (almost surely) hash differently")
	}
}

func TestHashDistinguishesRandoms(t *testing.T) {
	s := testSpace(t)
	r := rng.New(3)
	seen := map[uint64]*Config{}
	for i := 0; i < 500; i++ {
		c := s.Random(r)
		if prev, ok := seen[c.Hash()]; ok && !prev.Equal(c) {
			t.Fatal("hash collision between distinct configs")
		}
		seen[c.Hash()] = c
	}
}

func TestStringListsNonDefaults(t *testing.T) {
	s := testSpace(t)
	c := s.Default()
	c.MustSet("vm.swappiness", IntValue(1))
	c.MustSet("CONFIG_PREEMPT", BoolValue(true))
	str := c.String()
	if !strings.Contains(str, "vm.swappiness=1") || !strings.Contains(str, "CONFIG_PREEMPT=y") {
		t.Fatalf("String() = %q", str)
	}
	if strings.Contains(str, "mitigations") {
		t.Fatalf("String() should omit defaults: %q", str)
	}
}

func TestEncoderDim(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	// 3 scalar compile + 3-wide boot enum + 2 scalar runtime + 3-wide enum.
	want := 1 + 1 + 1 + 3 + 1 + 1 + 3
	if e.Dim() != want {
		t.Fatalf("Dim = %d, want %d", e.Dim(), want)
	}
	if len(e.FeatureNames()) != want {
		t.Fatal("FeatureNames length mismatch")
	}
}

func TestEncoderRanges(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		v := e.Encode(s.Random(r))
		for _, x := range v {
			if x < 0 || x > 1 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncoderOneHot(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	c := s.Default()
	c.MustSet("net.core.default_qdisc", EnumValue("fq"))
	v := e.Encode(c)
	names := e.FeatureNames()
	ones := 0
	for i, name := range names {
		if strings.HasPrefix(name, "net.core.default_qdisc=") {
			if v[i] == 1 {
				ones++
				if name != "net.core.default_qdisc=fq" {
					t.Fatalf("wrong hot slot %s", name)
				}
			} else if v[i] != 0 {
				t.Fatalf("one-hot slot %s = %v", name, v[i])
			}
		}
	}
	if ones != 1 {
		t.Fatalf("one-hot block had %d ones", ones)
	}
}

func TestEncoderDeterministic(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	c := s.Random(rng.New(8))
	a, b := e.Encode(c), e.Encode(c)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("encoding not deterministic")
		}
	}
}

func TestEncoderMonotoneInt(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	lo, hi := s.Default(), s.Default()
	lo.MustSet("net.core.somaxconn", IntValue(16))
	hi.MustSet("net.core.somaxconn", IntValue(1<<16))
	_, idx := s.Lookup("net.core.somaxconn")
	off := e.ParamOffset(idx)
	vl, vh := e.Encode(lo)[off], e.Encode(hi)[off]
	if vl != 0 || vh != 1 {
		t.Fatalf("range endpoints encode to %v, %v", vl, vh)
	}
	mid := s.Default()
	mid.MustSet("net.core.somaxconn", IntValue(1024))
	vm := e.Encode(mid)[off]
	if !(vl < vm && vm < vh) {
		t.Fatalf("encoding not monotone: %v %v %v", vl, vm, vh)
	}
}

func TestCategoricalMask(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	mask := e.CategoricalMask()
	names := e.FeatureNames()
	for i, name := range names {
		isCat := strings.Contains(name, "=") || name == "CONFIG_PREEMPT" || name == "CONFIG_E1000"
		if mask[i] != isCat {
			t.Fatalf("mask[%s] = %v, want %v", name, mask[i], isCat)
		}
	}
}

func TestParamOfFeature(t *testing.T) {
	s := testSpace(t)
	e := NewEncoder(s)
	for i := 0; i < s.Len(); i++ {
		off := e.ParamOffset(i)
		if e.ParamOfFeature(off) != i {
			t.Fatalf("ParamOfFeature(%d) != %d", off, i)
		}
	}
	// Last feature of an enum still maps back to the enum parameter.
	_, qi := s.Lookup("net.core.default_qdisc")
	off := e.ParamOffset(qi)
	if e.ParamOfFeature(off+2) != qi {
		t.Fatal("enum tail feature maps to wrong parameter")
	}
}

// TestKVRoundTrip: KV/FromKV invert each other for every random
// configuration — the property report serialization and session snapshots
// depend on.
func TestKVRoundTrip(t *testing.T) {
	s := testSpace(t)
	r := rng.New(11)
	check := func(c *Config) {
		kv := c.KV()
		back, err := s.FromKV(kv)
		if err != nil {
			t.Fatalf("FromKV(%v): %v", kv, err)
		}
		if !back.Equal(c) {
			t.Fatalf("round trip lost values:\n got %s\nwant %s", back, c)
		}
		if back.Hash() != c.Hash() || back.CompileKey() != c.CompileKey() || back.BootKey() != c.BootKey() {
			t.Fatal("round trip changed digests")
		}
	}
	check(s.Default()) // empty map
	if len(s.Default().KV()) != 0 {
		t.Fatal("default config should serialize to an empty KV map")
	}
	for i := 0; i < 200; i++ {
		check(s.Random(r))
	}
}

// TestFromKVErrors: unknown names and bad values fail loudly.
func TestFromKVErrors(t *testing.T) {
	s := testSpace(t)
	if _, err := s.FromKV(map[string]string{"nope": "1"}); err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if _, err := s.FromKV(map[string]string{"vm.swappiness": "banana"}); err == nil {
		t.Fatal("unparseable value accepted")
	}
	if _, err := s.FromKV(map[string]string{"vm.swappiness": "9999"}); err == nil {
		t.Fatal("out-of-domain value accepted")
	}
}

// refEncodeInt is the integer encoding as written before the encoder
// cached its range-end logarithms.
func refEncodeInt(v, min, max int64) float64 {
	if max == min {
		return 0
	}
	if min > 0 && float64(max)/float64(min) >= 100 {
		return (math.Log(float64(v)) - math.Log(float64(min))) /
			(math.Log(float64(max)) - math.Log(float64(min)))
	}
	return float64(v-min) / float64(max-min)
}

// TestEncoderIntMatchesReference: every integer feature equals the
// uncached formula bit for bit, over log-scaled, linear, negative and
// degenerate ranges.
func TestEncoderIntMatchesReference(t *testing.T) {
	s := digestSpace(t)
	s.MustAdd(&Param{Name: "one", Type: Int, Class: Runtime, Min: 7, Max: 7, Default: IntValue(7)})
	s.MustAdd(&Param{Name: "somaxconn", Type: Int, Class: Runtime, Min: 16, Max: 1 << 16, Default: IntValue(128)})
	s.MustAdd(&Param{Name: "swappiness", Type: Int, Class: Runtime, Min: 0, Max: 100, Default: IntValue(60)})
	e := NewEncoder(s)
	r := rng.New(9)
	for i := 0; i < 300; i++ {
		c := s.Random(r)
		x := e.Encode(c)
		for j, p := range s.params {
			if p.Type != Int && p.Type != Hex {
				continue
			}
			want := refEncodeInt(c.raw[j], p.Min, p.Max)
			if got := x[e.ParamOffset(j)]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s = %d: feature %v, reference %v", p.Name, c.raw[j], got, want)
			}
		}
	}
}
