package configspace

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode/utf8"
)

// Config is a concrete assignment of a value to every parameter in a Space.
// The paper calls these "permutations".
//
// The assignment is a pointer-free value vector, one int64 per parameter
// in space order: an enum's index into Param.Values, any other type's
// integer. The garbage collector never scans it, and copying or comparing
// two configurations is a copy or comparison of integers. Value builds the
// API view from the space's parameter table.
//
// Hash, CompileKey and BootKey are memoized: each digest is computed on
// first use and kept until a setter (Set, SetIndex, or a Space's
// DefaultInto, RandomInto, MutateInto or NeighborInto writing into the
// Config) invalidates it. Reads, digests included, are safe from several
// goroutines at once; mutating a Config while another goroutine reads it
// is not.
type Config struct {
	space *Space
	raw   []int64

	// hash, compileKey and bootKey memoize the digests; 0 means "not yet
	// computed", so a digest whose true value is 0 is merely recomputed.
	hash, compileKey, bootKey atomic.Uint64
}

func newConfig(s *Space) *Config {
	return &Config{space: s, raw: make([]int64, s.Len())}
}

// Space returns the space the configuration belongs to.
func (c *Config) Space() *Space { return c.space }

// Clone returns a deep copy, memoized digests included.
func (c *Config) Clone() *Config {
	out := &Config{space: c.space, raw: slices.Clone(c.raw)}
	out.hash.Store(c.hash.Load())
	out.compileKey.Store(c.compileKey.Load())
	out.bootKey.Store(c.bootKey.Load())
	return out
}

// invalidate drops the memoized digests; every write to raw calls it.
func (c *Config) invalidate() {
	c.hash.Store(0)
	c.compileKey.Store(0)
	c.bootKey.Store(0)
}

// Value returns the value of the i-th parameter. It does not allocate.
func (c *Config) Value(i int) Value { return c.space.params[i].value(c.raw[i]) }

// Get returns the value of the named parameter. The boolean reports whether
// the parameter exists.
func (c *Config) Get(name string) (Value, bool) {
	i := c.space.Index(name)
	if i < 0 {
		return Value{}, false
	}
	return c.Value(i), true
}

// GetInt returns the integer value of a named Bool/Tristate/Int/Hex
// parameter, or def when the parameter does not exist.
func (c *Config) GetInt(name string, def int64) int64 {
	if v, ok := c.Get(name); ok {
		return v.I
	}
	return def
}

// GetString returns the string value of a named Enum parameter, or def.
func (c *Config) GetString(name, def string) string {
	if v, ok := c.Get(name); ok {
		return v.S
	}
	return def
}

// Set assigns the named parameter. Out-of-domain values and unknown names
// are errors.
func (c *Config) Set(name string, v Value) error {
	p, i := c.space.Lookup(name)
	if p == nil {
		return fmt.Errorf("configspace: set of unknown parameter %q", name)
	}
	if !p.InDomain(v) {
		return fmt.Errorf("configspace: %s: value %s out of domain", name, p.FormatValue(v))
	}
	c.raw[i] = p.raw(v)
	c.invalidate()
	return nil
}

// MustSet is Set that panics on error.
func (c *Config) MustSet(name string, v Value) {
	if err := c.Set(name, v); err != nil {
		panic(err)
	}
}

// SetIndex assigns the i-th parameter without domain checking; the caller
// must guarantee validity. An enum string outside the domain has no index
// to store, so it panics naming the parameter.
func (c *Config) SetIndex(i int, v Value) {
	p := c.space.params[i]
	r := p.raw(v)
	if p.Type == Enum && r < 0 {
		panic(fmt.Sprintf("configspace: SetIndex: %s: %q not in enum domain", p.Name, v.S))
	}
	c.raw[i] = r
	c.invalidate()
}

// Equal reports whether two configurations over the same space assign
// identical values.
func (c *Config) Equal(o *Config) bool {
	return c.space == o.space && slices.Equal(c.raw, o.raw)
}

// Diff returns the indices of parameters whose values differ between c and
// o. Both configurations must belong to the same space.
func (c *Config) Diff(o *Config) []int {
	var out []int
	for i := range c.raw {
		if c.raw[i] != o.raw[i] {
			out = append(out, i)
		}
	}
	return out
}

// OnlyRuntimeDiff reports whether every parameter that differs between c
// and o is a Runtime parameter — the predicate behind the §3.1 build-skip
// optimization (and, when boot-time params also match, the reboot skip).
func (c *Config) OnlyRuntimeDiff(o *Config) bool {
	for _, i := range c.Diff(o) {
		if c.space.Param(i).Class != Runtime {
			return false
		}
	}
	return true
}

// OnlyBootOrRuntimeDiff reports whether every differing parameter is
// boot-time or runtime, i.e. the previous build artifact can be reused.
func (c *Config) OnlyBootOrRuntimeDiff(o *Config) bool {
	for _, i := range c.Diff(o) {
		if c.space.Param(i).Class == CompileTime {
			return false
		}
	}
	return true
}

// Hash returns a stable 64-bit fingerprint of the assignment, used for
// deduplicating explored configurations: 64-bit FNV-1a over, per Value in
// space order, the 8 little-endian bytes of I, the bytes of S, then 0x00.
// An enum's bytes are its string's, from the parameter table, so the
// digest does not depend on how the value vector stores it.
func (c *Config) Hash() uint64 {
	if h := c.hash.Load(); h != 0 {
		return h
	}
	h := uint64(fnvOffset)
	for i, p := range c.space.params {
		h = foldRaw(h, p, c.raw[i])
	}
	c.hash.Store(h)
	return h
}

// The 64-bit FNV-1a parameters (the constants hash/fnv's New64a uses).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// foldString folds the bytes of s into the FNV-1a state h.
func foldString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// fnvPow[k] is fnvPrime^k. Folding a zero byte is a bare multiply (h ^= 0
// is a no-op), so a run of k zero bytes folds as one multiply by fnvPow[k].
var fnvPow = func() (pow [10]uint64) {
	pow[0] = 1
	for k := 1; k < len(pow); k++ {
		pow[k] = pow[k-1] * fnvPrime
	}
	return pow
}()

// foldRaw folds the digest bytes of parameter p's value r into the FNV-1a
// state h: the 8 little-endian bytes of its Value's I, the bytes of its S,
// then a 0x00 terminator. An enum's I is zero and its S comes from the
// parameter table; an integer's S is empty, so its high zero bytes and the
// terminator fold as one multiply.
func foldRaw(h uint64, p *Param, r int64) uint64 {
	if p.Type == Enum {
		return foldString(h*fnvPow[8], p.Values[r]) * fnvPrime
	}
	u := uint64(r)
	n := (bits.Len64(u) + 7) / 8 // bytes up to the highest nonzero one
	for b := 0; b < n; b++ {
		h ^= u & 0xff
		h *= fnvPrime
		u >>= 8
	}
	return h * fnvPow[9-n]
}

// Stage-digest salts keep CompileKey, BootKey, and Hash trivially distinct
// even for configurations whose included values coincide.
const (
	compileKeySalt = "wayfinder/compile\x00"
	bootKeySalt    = "wayfinder/boot\x00"
)

// CompileKey returns the canonical digest of the build-stage assignment:
// every compile-time parameter's value, hashed in space order. Two
// configurations share a CompileKey exactly when they can share a built
// image — the content address of the §3.1 build artifact, replacing the
// pairwise OnlyBootOrRuntimeDiff comparison with a digest any cache can
// index on.
func (c *Config) CompileKey() uint64 {
	return c.stageKey(&c.compileKey, compileKeySalt, false)
}

// BootKey returns the canonical digest of the build+boot-stage assignment:
// compile-time and boot-time parameter values, hashed in space order. Two
// configurations share a BootKey exactly when a running instance of one
// can serve the other by applying runtime deltas live (the reboot-skip
// predicate, previously the pairwise OnlyRuntimeDiff comparison).
func (c *Config) BootKey() uint64 {
	return c.stageKey(&c.bootKey, bootKeySalt, true)
}

// stageKey hashes the salt, then the values of the compile-time (and,
// when includeBoot is set, boot-time) parameters in space order, as Hash
// does, memoizing the digest in memo. The included subset is fixed per
// space, so sequence positions line up across configurations and digest
// equality is exactly value equality over the subset.
func (c *Config) stageKey(memo *atomic.Uint64, salt string, includeBoot bool) uint64 {
	if h := memo.Load(); h != 0 {
		return h
	}
	h := foldString(fnvOffset, salt)
	for i, p := range c.space.Params() {
		if p.Class == Runtime || (p.Class == BootTime && !includeBoot) {
			continue
		}
		h = foldRaw(h, p, c.raw[i])
	}
	memo.Store(h)
	return h
}

// String renders the non-default assignments compactly: "name=value"
// parts sorted as strings, joined by spaces, or "<default>". The parts
// come out in the space's display order, so the string is built in one
// exact-size allocation with no sort.
func (c *Config) String() string {
	s := c.space
	o := s.nameOrders()
	if o.eqInName {
		return c.sortedString()
	}
	n := -1
	for i, r := range c.raw {
		if r != s.defaults[i] {
			n += len(s.params[i].Name) + 2 + formattedLen(s.params[i], r)
		}
	}
	if n < 0 {
		return "<default>"
	}
	var b strings.Builder
	b.Grow(n)
	var tmp [24]byte
	for _, i := range o.byDisplay {
		r := c.raw[i]
		if r == s.defaults[i] {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		p := s.params[i]
		b.WriteString(p.Name)
		b.WriteByte('=')
		if p.Type == Enum {
			b.WriteString(p.Values[r])
		} else {
			b.Write(appendFormatted(tmp[:0], p, r))
		}
	}
	return b.String()
}

// sortedString is String for a space with '=' inside a name, where the
// order of the "name=value" parts depends on the values: it sorts them.
func (c *Config) sortedString() string {
	var parts []string
	for i, p := range c.space.Params() {
		if c.raw[i] == c.space.defaults[i] {
			continue
		}
		parts = append(parts, p.Name+"="+p.FormatValue(c.Value(i)))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "<default>"
	}
	return strings.Join(parts, " ")
}

// appendFormatted appends Param.FormatValue of the non-enum value-vector
// entry r: y/m/n, decimal, or 0x-prefixed hex, all plain ASCII.
func appendFormatted(dst []byte, p *Param, r int64) []byte {
	switch p.Type {
	case Bool:
		if r != 0 {
			return append(dst, 'y')
		}
		return append(dst, 'n')
	case Tristate:
		switch TristateValue(r) {
		case TriYes:
			return append(dst, 'y')
		case TriModule:
			return append(dst, 'm')
		}
		return append(dst, 'n')
	case Hex:
		return strconv.AppendInt(append(dst, "0x"...), r, 16)
	}
	return strconv.AppendInt(dst, r, 10)
}

// formattedLen returns the length of Param.FormatValue of value-vector
// entry r.
func formattedLen(p *Param, r int64) int {
	if p.Type == Enum {
		return len(p.Values[r])
	}
	var tmp [24]byte
	return len(appendFormatted(tmp[:0], p, r))
}

// AppendKVJSON appends the KV assignment to dst as encoding/json writes
// that map: keys in byte order, strings HTML-escaped, "{}" for the
// all-default configuration. It writes straight from the value vector,
// with no map and no sort.
func (c *Config) AppendKVJSON(dst []byte) []byte {
	s := c.space
	o := s.nameOrders()
	dst = append(dst, '{')
	first := true
	for _, i := range o.byName {
		r := c.raw[i]
		if r == s.defaults[i] {
			continue
		}
		if !first {
			dst = append(dst, ',')
		}
		first = false
		p := s.params[i]
		if o.plainName[i] {
			dst = append(append(append(dst, '"'), p.Name...), '"')
		} else {
			dst = AppendJSONString(dst, p.Name)
		}
		dst = append(dst, ':')
		if p.Type == Enum {
			dst = AppendJSONString(dst, p.Values[r])
		} else {
			dst = append(appendFormatted(append(dst, '"'), p, r), '"')
		}
	}
	return append(dst, '}')
}

// AppendJSONString appends s as encoding/json writes a string: between
// quotes as it is when it is printable ASCII with nothing to escape, and
// through json.Marshal otherwise (quotes, backslashes, control bytes, the
// HTML-escaped '<', '>' and '&', and anything beyond ASCII, where
// json.Marshal replaces invalid UTF-8 and escapes U+2028 and U+2029).
func AppendJSONString(dst []byte, s string) []byte {
	if !jsonSafe(s) {
		b, _ := json.Marshal(s) // a string always marshals
		return append(dst, b...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonSafe reports whether encoding/json writes s verbatim between quotes:
// printable ASCII other than '"', '\\' and the HTML-escaped '<', '>', '&'.
func jsonSafe(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// KV returns the canonical non-default assignment as a name → formatted
// value map — the round-trippable form of String(). The map is empty for
// the all-default configuration. Space.FromKV inverts it.
func (c *Config) KV() map[string]string {
	out := map[string]string{}
	for i, p := range c.space.Params() {
		if c.raw[i] == c.space.defaults[i] {
			continue
		}
		out[p.Name] = p.FormatValue(c.Value(i))
	}
	return out
}

// FromKV reconstructs a configuration from a KV assignment over this
// space: the space defaults overlaid with each named value, parsed and
// domain-checked. Unknown names and out-of-domain values are errors, so a
// snapshot taken against a different space version fails loudly instead of
// silently searching the wrong point.
func (s *Space) FromKV(kv map[string]string) (*Config, error) {
	c := s.Default()
	for _, name := range slices.Sorted(maps.Keys(kv)) {
		raw := kv[name]
		p, _ := s.Lookup(name)
		if p == nil {
			return nil, fmt.Errorf("configspace: assignment for unknown parameter %q", name)
		}
		v, err := p.ParseValue(raw)
		if err != nil {
			return nil, fmt.Errorf("configspace: %s: %w", name, err)
		}
		if err := c.Set(name, v); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Encoder maps configurations to fixed-length feature vectors for the
// learning algorithms: booleans to {0,1}, tristates to {0,½,1}, integers to
// a log-scaled position within their range, and enums to one-hot blocks.
// The paper splits a permutation x into categorical x_k and numerical x_n
// (§3.2); the encoder realizes that split while keeping a single flat
// vector, exposing which dimensions are categorical via CategoricalMask.
type Encoder struct {
	space   *Space
	offsets []int // starting feature index per parameter
	dim     int
	catMask []bool
	// logs holds, per parameter, the range-end logarithms of a log-scaled
	// integer parameter, computed once here.
	logs []logRange
}

// logRange is a log-scaled integer parameter's Log(min) and
// Log(max) − Log(min); ok is false for every other parameter.
type logRange struct {
	ok        bool
	min, span float64
}

// NewEncoder builds an encoder for the given space.
func NewEncoder(s *Space) *Encoder {
	e := &Encoder{space: s, offsets: make([]int, s.Len()), logs: make([]logRange, s.Len())}
	dim := 0
	for i, p := range s.Params() {
		e.offsets[i] = dim
		dim += e.width(p)
		if (p.Type == Int || p.Type == Hex) && logScaled(p.Min, p.Max) {
			lo := math.Log(float64(p.Min))
			e.logs[i] = logRange{ok: true, min: lo, span: math.Log(float64(p.Max)) - lo}
		}
	}
	e.dim = dim
	e.catMask = make([]bool, dim)
	for i, p := range s.Params() {
		switch p.Type {
		case Bool, Tristate, Enum:
			for j := 0; j < e.width(p); j++ {
				e.catMask[e.offsets[i]+j] = true
			}
		}
	}
	return e
}

func (e *Encoder) width(p *Param) int {
	if p.Type == Enum {
		return len(p.Values)
	}
	return 1
}

// Dim returns the feature-vector length.
func (e *Encoder) Dim() int { return e.dim }

// CategoricalMask reports, per feature dimension, whether it encodes a
// categorical parameter (x_k in the paper's notation) as opposed to a
// numerical one (x_n).
func (e *Encoder) CategoricalMask() []bool { return e.catMask }

// Encode maps a configuration to its feature vector.
func (e *Encoder) Encode(c *Config) []float64 {
	out := make([]float64, e.dim)
	e.EncodeInto(c, out)
	return out
}

// EncodeInto writes the feature vector of c into dst, which must have
// length Dim().
func (e *Encoder) EncodeInto(c *Config, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for i, p := range e.space.Params() {
		off, r := e.offsets[i], c.raw[i]
		switch p.Type {
		case Bool:
			dst[off] = float64(r)
		case Tristate:
			dst[off] = float64(r) / 2
		case Int, Hex:
			// A position in [0,1], log-scaled when the range spans ≥2 orders
			// of magnitude so that the encoding resolution matches the
			// log-uniform sampler.
			switch lr := e.logs[i]; {
			case lr.ok:
				dst[off] = (math.Log(float64(r)) - lr.min) / lr.span
			case p.Max != p.Min:
				dst[off] = float64(r-p.Min) / float64(p.Max-p.Min)
			}
		case Enum:
			dst[off+int(r)] = 1 // an enum's value is its one-hot slot
		}
	}
}

// logScaled reports whether an integer range [min,max] is encoded and
// sampled on a log scale: it must span ≥2 orders of magnitude.
func logScaled(min, max int64) bool { return min > 0 && float64(max)/float64(min) >= 100 }

// FeatureNames returns a human-readable name per feature dimension
// (parameter name, with "=value" suffixes for one-hot enum slots).
func (e *Encoder) FeatureNames() []string {
	names := make([]string, e.dim)
	for i, p := range e.space.Params() {
		off := e.offsets[i]
		if p.Type == Enum {
			for j, v := range p.Values {
				names[off+j] = p.Name + "=" + v
			}
			continue
		}
		names[off] = p.Name
	}
	return names
}

// ParamOffset returns the first feature index of the i-th parameter.
func (e *Encoder) ParamOffset(i int) int { return e.offsets[i] }

// ParamOfFeature returns the index of the parameter that feature dimension
// d belongs to.
func (e *Encoder) ParamOfFeature(d int) int {
	// offsets are sorted; binary search for the containing parameter.
	lo, hi := 0, len(e.offsets)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if e.offsets[mid] <= d {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
