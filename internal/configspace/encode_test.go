package configspace

import (
	"encoding/json"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"wayfinder/internal/rng"
)

// sortedRendering is String as it was first written, the reference the
// display order must reproduce: every non-default "name=value" part,
// sorted as strings, joined by spaces.
func sortedRendering(c *Config) string {
	var parts []string
	for i, p := range c.Space().Params() {
		if v := c.Value(i); v != p.Default {
			parts = append(parts, p.Name+"="+p.FormatValue(v))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "<default>"
	}
	return strings.Join(parts, " ")
}

// orderSpace holds names where String's order and plain name order part:
// HZ prefixes HZ100, and '1' sorts below '=', so "HZ100=…" sorts before
// "HZ=…"; "a" prefixes "a.b" ('.' is below '=') and "a_b" ('_' is
// above it). The enum's strings need JSON escaping.
func orderSpace(t testing.TB, extra ...string) *Space {
	t.Helper()
	s := NewSpace("order")
	names := append([]string{"HZ100", "HZ", "HZ_PERIODIC", "a_b", "a", "a.b", "Z", "<tag>&"}, extra...)
	for i, name := range names {
		switch i % 4 {
		case 0:
			s.MustAdd(&Param{Name: name, Type: Int, Class: Runtime, Min: 1, Max: 1 << 20, Default: IntValue(100)})
		case 1:
			s.MustAdd(&Param{Name: name, Type: Bool, Class: Runtime, Default: BoolValue(false)})
		case 2:
			s.MustAdd(&Param{Name: name, Type: Hex, Class: Runtime, Min: -0x100, Max: 0xffff, Default: IntValue(0x10)})
		default:
			s.MustAdd(&Param{Name: name, Type: Enum, Class: Runtime,
				Values: []string{"plain", "<b>&", "tab\there", "\xff\xfe", "line\u2028sep", `q"uote\`, "ünï"}, Default: EnumValue("plain")})
		}
	}
	return s
}

// TestStringMatchesSortedRendering: String's display order gives the
// sort-based rendering on every configuration, where names prefix one
// another included, and on a space whose names hold '=' (where the order
// depends on the values).
func TestStringMatchesSortedRendering(t *testing.T) {
	spaces := map[string]*Space{
		"prefix names": orderSpace(t),
		"digest":       digestSpace(t),
		"eq in names":  orderSpace(t, "a=b", "a=", "HZ=1"),
	}
	for _, name := range slices.Sorted(maps.Keys(spaces)) {
		s := spaces[name]
		r := rng.New(7)
		cfgs := []*Config{s.Default()}
		for k := 0; k < 200; k++ {
			cfgs = append(cfgs, s.Mutate(s.Default(), 1+k%len(s.Params()), r), s.Random(r))
		}
		for _, c := range cfgs {
			if got, want := c.String(), sortedRendering(c); got != want {
				t.Fatalf("%s: String() = %q, want %q", name, got, want)
			}
		}
	}
}

// TestAppendKVJSONMatchesMarshal: AppendKVJSON writes the bytes
// encoding/json writes for KV's map, escaping included, after whatever
// dst already holds.
func TestAppendKVJSONMatchesMarshal(t *testing.T) {
	for _, s := range []*Space{orderSpace(t), digestSpace(t), fuzzSpace(t)} {
		r := rng.New(3)
		cfgs := []*Config{s.Default()}
		for k := 0; k < 200; k++ {
			cfgs = append(cfgs, s.Mutate(s.Default(), 1+k%3, r), s.Random(r))
		}
		for _, c := range cfgs {
			want, err := json.Marshal(c.KV())
			if err != nil {
				t.Fatal(err)
			}
			if got := c.AppendKVJSON([]byte("x")); string(got) != "x"+string(want) {
				t.Fatalf("%s: AppendKVJSON = %s, want x%s", s.Name, got, want)
			}
		}
	}
}

// TestStringAllocatesOnce: String builds its result in one exact-size
// allocation, with no per-part strings and no sort.
func TestStringAllocatesOnce(t *testing.T) {
	s := orderSpace(t)
	c := s.Random(rng.New(5))
	if c.String() == "<default>" {
		t.Fatal("the random configuration is the default")
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = c.String() }); allocs != 1 {
		t.Fatalf("String allocated %.0f times, want 1", allocs)
	}
}

// TestSortedNamesOrder: SortedNames lists every name in byte order.
func TestSortedNamesOrder(t *testing.T) {
	s := orderSpace(t, "a=b")
	var want []string
	for _, p := range s.Params() {
		want = append(want, p.Name)
	}
	sort.Strings(want)
	if got := s.SortedNames(); !slices.Equal(got, want) {
		t.Fatalf("SortedNames = %q, want %q", got, want)
	}
}
