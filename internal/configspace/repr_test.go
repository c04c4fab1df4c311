package configspace

import (
	"reflect"
	"strings"
	"testing"

	"wayfinder/internal/rng"
)

// sampleValue is sampleRaw's draw as a Value: the same RNG draws, so a
// test that sets its result through the API consumes the stream exactly as
// the samplers do.
func sampleValue(p *Param, r *rng.RNG) Value { return p.value(sampleRaw(p, r)) }

// domainValues lists values that exercise p's domain: both ends of an
// integer range and its default, every bool and tristate state, every enum
// string.
func domainValues(p *Param) []Value {
	switch p.Type {
	case Bool:
		return []Value{BoolValue(false), BoolValue(true)}
	case Tristate:
		return []Value{TriValue(TriNo), TriValue(TriModule), TriValue(TriYes)}
	case Int, Hex:
		return []Value{IntValue(p.Min), p.Default, IntValue(p.Max)}
	default:
		out := make([]Value, len(p.Values))
		for i, v := range p.Values {
			out[i] = EnumValue(v)
		}
		return out
	}
}

// TestSetValueRoundTrip: a value set through Set reads back unchanged
// through Value and Get, for every type in every class (enum strings that
// are empty, multi-byte or hold a NUL included), and leaves every other
// parameter alone.
func TestSetValueRoundTrip(t *testing.T) {
	s := digestSpace(t)
	for i, p := range s.Params() {
		for _, v := range domainValues(p) {
			c := s.Default()
			if err := c.Set(p.Name, v); err != nil {
				t.Fatalf("Set(%s, %+v): %v", p.Name, v, err)
			}
			if got := c.Value(i); got != v {
				t.Fatalf("%s: Set %+v, Value %+v", p.Name, v, got)
			}
			if got, ok := c.Get(p.Name); !ok || got != v {
				t.Fatalf("%s: Set %+v, Get %+v", p.Name, v, got)
			}
			for j, q := range s.Params() {
				if j != i && c.Value(j) != q.Default {
					t.Fatalf("setting %s moved %s to %+v", p.Name, q.Name, c.Value(j))
				}
			}
		}
	}
}

// TestInDomainRejectsOtherTypesField: a value that sets the field its
// parameter's type does not use is out of domain, so Set and Fix refuse
// it instead of storing (and hashing) a field the value vector drops.
func TestInDomainRejectsOtherTypesField(t *testing.T) {
	s := testSpace(t)
	for _, bad := range []struct {
		name string
		v    Value
	}{
		{"CONFIG_PREEMPT", Value{I: 1, S: "y"}},
		{"CONFIG_E1000", Value{I: 2, S: "y"}},
		{"CONFIG_LOG_BUF_SHIFT", Value{I: 17, S: "17"}},
		{"mitigations", Value{I: 1, S: "off"}},
	} {
		name, v := bad.name, bad.v
		p, _ := s.Lookup(name)
		if p.InDomain(v) {
			t.Errorf("%s: InDomain(%+v) = true", name, v)
		}
		if err := s.Default().Set(name, v); err == nil {
			t.Errorf("%s: Set(%+v) accepted", name, v)
		}
		if err := s.Fix(name, v); err == nil {
			t.Errorf("%s: Fix(%+v) accepted", name, v)
		}
	}
}

// TestValidateRejectsAmbiguousParams: duplicate enum strings (two indices
// for one value) and defaults that set the other type's field are invalid
// definitions.
func TestValidateRejectsAmbiguousParams(t *testing.T) {
	for _, p := range []Param{
		{Name: "dup", Type: Enum, Values: []string{"a", "b", "a"}, Default: EnumValue("a")},
		{Name: "enum-i", Type: Enum, Values: []string{"a", "b"}, Default: Value{I: 1, S: "a"}},
		{Name: "bool-s", Type: Bool, Default: Value{S: "y"}},
		{Name: "int-s", Type: Int, Min: 0, Max: 9, Default: Value{I: 3, S: "3"}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", p.Name, p)
		}
		if err := NewSpace("x").Add(&p); err == nil {
			t.Errorf("%s: Add accepted %+v", p.Name, p)
		}
	}
}

// TestSetIndexPanicsOnUnknownEnum: SetIndex skips the domain check, but an
// enum string outside the domain has no index to store; it panics naming
// the parameter rather than widening the domain.
func TestSetIndexPanicsOnUnknownEnum(t *testing.T) {
	s := testSpace(t)
	i := s.Index("mitigations")
	c := s.Default()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "mitigations") {
				t.Fatalf("SetIndex of an unknown enum string: panic %q, want one naming the parameter", msg)
			}
		}()
		c.SetIndex(i, EnumValue("nosmt"))
	}()
	if n := len(s.Param(i).Values); n != 3 {
		t.Fatalf("SetIndex widened the domain to %d values", n)
	}
	if !c.Equal(s.Default()) {
		t.Fatalf("the failed SetIndex changed the configuration: %s", c)
	}
}

// hasPointers reports whether values of type t hold pointers the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	}
	return false
}

// TestValueVectorIsPointerFree: every slice a Config holds has
// pointer-free elements, so a history of configurations is never scanned
// value by value.
func TestValueVectorIsPointerFree(t *testing.T) {
	if !hasPointers(reflect.TypeFor[Value]()) {
		t.Fatal("hasPointers misses Value's string")
	}
	ct := reflect.TypeFor[Config]()
	slices := 0
	for i := range ct.NumField() {
		f := ct.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		slices++
		if hasPointers(f.Type.Elem()) {
			t.Errorf("Config.%s is a %s: its elements hold pointers", f.Name, f.Type)
		}
	}
	if slices == 0 {
		t.Fatal("Config holds no value slice")
	}
}

// TestDefaultAllocatesOnlyTheVector: Default copies the defaults vector,
// with no per-parameter work and no clearing; when the Config itself does
// not escape, the vector is its one heap allocation.
func TestDefaultAllocatesOnlyTheVector(t *testing.T) {
	s := digestSpace(t)
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Default() }); allocs != 1 {
		t.Fatalf("Space.Default allocates %.0f times, want 1", allocs)
	}
	c := s.Random(rng.New(3))
	if allocs := testing.AllocsPerRun(100, func() { s.DefaultInto(c) }); allocs != 0 {
		t.Fatalf("Space.DefaultInto allocates %.0f times, want 0", allocs)
	}
	if !c.Equal(s.Default()) {
		t.Fatalf("DefaultInto left %s", c)
	}
}

// TestDefaultsTrackFixAndRebase: Fix and SetDefaultsFrom move the defaults
// vector with Param.Default, so Default, DefaultInto, String and KV all
// see the new baseline; DefaultInto drops the memoized digests.
func TestDefaultsTrackFixAndRebase(t *testing.T) {
	s := testSpace(t)
	if err := s.Fix("mitigations", EnumValue("off")); err != nil {
		t.Fatal(err)
	}
	if got := s.Default().GetString("mitigations", ""); got != "off" {
		t.Fatalf("Default after Fix: mitigations=%q", got)
	}
	base := s.Random(rng.New(8))
	if err := s.SetDefaultsFrom(base); err != nil {
		t.Fatal(err)
	}
	c := s.Random(rng.New(9))
	c.Hash()
	c.CompileKey()
	c.BootKey()
	s.DefaultInto(c)
	checkDigests(t, "DefaultInto", c)
	for i, p := range s.Params() {
		if d := s.Default().Value(i); d != p.Default || d != base.Value(i) || c.Value(i) != d {
			t.Fatalf("%s: Default %+v, DefaultInto %+v, Param.Default %+v, baseline %+v",
				p.Name, d, c.Value(i), p.Default, base.Value(i))
		}
	}
	if got := base.String(); got != "<default>" || len(base.KV()) != 0 {
		t.Fatalf("the rebased baseline renders as %q, KV %v", got, base.KV())
	}
}

// TestKVRoundTripSpacedEnum: an enum string with surrounding space round
// trips through KV and FromKV; ParseValue matches it verbatim before
// trimming.
func TestKVRoundTripSpacedEnum(t *testing.T) {
	s := NewSpace("spaced")
	s.MustAdd(&Param{Name: "e", Type: Enum, Values: []string{"a", " a", "b "}, Default: EnumValue("a")})
	for _, v := range []string{" a", "b "} {
		c := s.Default()
		c.MustSet("e", EnumValue(v))
		back, err := s.FromKV(c.KV())
		if err != nil || !back.Equal(c) {
			t.Fatalf("%q: FromKV(%v) = %v, %v", v, c.KV(), back, err)
		}
	}
}

// fuzzSpace is digestSpace plus an enum whose strings differ only in
// surrounding space.
func fuzzSpace(t testing.TB) *Space {
	s := digestSpace(t)
	s.MustAdd(&Param{Name: "runtime.spaced", Type: Enum, Class: Runtime, Values: []string{"x", " x", "x "}, Default: EnumValue(" x")})
	return s
}

// FuzzFromKV: FromKV over an arbitrary name → value map either fails or
// returns an in-domain configuration that survives KV → FromKV unchanged,
// digests included; it never panics. The input is the map as
// "name=value" lines.
func FuzzFromKV(f *testing.F) {
	s := fuzzSpace(f)
	f.Fuzz(func(t *testing.T, in string) {
		kv := map[string]string{}
		for _, line := range strings.Split(in, "\n") {
			if name, v, ok := strings.Cut(line, "="); ok {
				kv[name] = v
			}
		}
		c, err := s.FromKV(kv)
		if err != nil {
			if c != nil {
				t.Fatalf("FromKV(%q) returned a config with error %v", kv, err)
			}
			return
		}
		for i, p := range s.Params() {
			if !p.InDomain(c.Value(i)) {
				t.Fatalf("FromKV(%q): %s = %+v is out of domain", kv, p.Name, c.Value(i))
			}
		}
		back, err := s.FromKV(c.KV())
		if err != nil {
			t.Fatalf("FromKV(%q) gave KV %q, which fails: %v", kv, c.KV(), err)
		}
		if !back.Equal(c) || back.Hash() != c.Hash() || back.BootKey() != c.BootKey() {
			t.Fatalf("FromKV(%q) = %s, but its KV round trips to %s", kv, c, back)
		}
	})
}
