package configspace

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"

	"wayfinder/internal/rng"
)

// Space is an ordered collection of parameters defining an OS configuration
// space. Order is significant: it fixes the layout of feature vectors fed
// to the learning algorithms.
type Space struct {
	// Name identifies the space (e.g. "linux-6.0", "unikraft-nginx").
	Name string

	params  []*Param
	byName  map[string]int
	favored map[Class]float64 // sampling weight per class (§3.5)

	// mutable lists, in parameter order, the parameters Random, Mutate and
	// Neighbor may change — not fixed, class weight above 0 — weights
	// their class weights and total the weights' sum, accumulated in that
	// order (rng.Choice's own sum, bit for bit). Every change to them (Add,
	// Fix, Favor) updates them eagerly, never lazily, so proposals only
	// read them and a Space shared between goroutines stays safe to
	// propose from.
	mutable []int
	weights []float64
	total   float64

	// defaults is the default configuration's value vector. Add, Fix and
	// SetDefaultsFrom keep it current with every Param.Default.
	defaults []int64

	// orders holds the name orders configurations serialize in, built on
	// first use and dropped by Add. Building them is a sort, which a
	// set-up that never serializes does not pay; concurrent first users
	// may each build them, and publish equal tables.
	orders atomic.Pointer[nameOrders]
}

// nameOrders are a space's serialization tables. byName lists the
// parameters sorted by name: encoding/json's map-key order, in which
// config_kv is written. byDisplay sorts them by name+"=", the order of
// String's "name=value" parts; it differs from byName where one name
// prefixes another and the next byte sorts below '=' (HZ100 before HZ).
// eqInName records a name holding '=' itself, which makes String's order
// depend on the values. plainName[i] reports that parameter i's name is
// written between quotes as it is, with nothing to escape.
type nameOrders struct {
	byName, byDisplay []int
	eqInName          bool
	plainName         []bool
}

// NewSpace returns an empty space with the given name.
func NewSpace(name string) *Space {
	return &Space{
		Name:   name,
		byName: make(map[string]int),
		favored: map[Class]float64{
			CompileTime: 1,
			BootTime:    1,
			Runtime:     1,
		},
	}
}

// Add appends a parameter to the space. Adding a duplicate or invalid
// parameter is an error.
func (s *Space) Add(p *Param) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if _, dup := s.byName[p.Name]; dup {
		return fmt.Errorf("configspace: duplicate parameter %q", p.Name)
	}
	i := len(s.params)
	s.byName[p.Name] = i
	s.params = append(s.params, p)
	s.defaults = append(s.defaults, p.raw(p.Default))
	s.track(i)
	s.orders.Store(nil)
	return nil
}

// nameOrders returns the space's serialization tables, building them
// on first use.
func (s *Space) nameOrders() *nameOrders {
	if o := s.orders.Load(); o != nil {
		return o
	}
	n := len(s.params)
	o := &nameOrders{byName: make([]int, n), byDisplay: make([]int, n), plainName: make([]bool, n)}
	for i, p := range s.params {
		o.byName[i] = i
		o.eqInName = o.eqInName || strings.Contains(p.Name, "=")
		o.plainName[i] = jsonSafe(p.Name)
	}
	slices.SortFunc(o.byName, func(a, b int) int { return strings.Compare(s.params[a].Name, s.params[b].Name) })
	// Display order is name order with each run of prefixed names
	// reordered, so a stable sort from name order has little to move.
	copy(o.byDisplay, o.byName)
	slices.SortStableFunc(o.byDisplay, func(a, b int) int { return compareDisplay(s.params[a].Name, s.params[b].Name) })
	s.orders.Store(o)
	return o
}

// compareDisplay compares a+"=" with b+"=" without building either.
func compareDisplay(a, b string) int {
	n := min(len(a), len(b))
	if c := strings.Compare(a[:n], b[:n]); c != 0 || len(a) == len(b) {
		return c
	}
	if len(a) < len(b) {
		return -compareEq(b[n:])
	}
	return compareEq(a[n:])
}

// compareEq compares rest+"=" with "=", for a non-empty rest.
func compareEq(rest string) int {
	if c := cmp.Compare(rest[0], '='); c != 0 {
		return c
	}
	return 1 // "=…=" extends "="
}

// track appends parameter i to the mutable lists if Mutate and Neighbor
// may change it.
func (s *Space) track(i int) {
	if p, w := s.params[i], s.favored[s.params[i].Class]; !p.Fixed && w > 0 {
		s.mutable, s.weights = append(s.mutable, i), append(s.weights, w)
		s.total += w
	}
}

// reindex rebuilds the mutable lists from scratch.
func (s *Space) reindex() {
	s.mutable, s.weights, s.total = s.mutable[:0], s.weights[:0], 0
	for i := range s.params {
		s.track(i)
	}
}

// MustAdd is Add that panics on error, for statically-known spaces.
func (s *Space) MustAdd(p *Param) {
	if err := s.Add(p); err != nil {
		panic(err)
	}
}

// Len returns the number of parameters.
func (s *Space) Len() int { return len(s.params) }

// Param returns the i-th parameter.
func (s *Space) Param(i int) *Param { return s.params[i] }

// Params returns the parameters in order. The returned slice must not be
// modified.
func (s *Space) Params() []*Param { return s.params }

// Lookup returns the parameter with the given name and its index, or nil
// and -1.
func (s *Space) Lookup(name string) (*Param, int) {
	if i, ok := s.byName[name]; ok {
		return s.params[i], i
	}
	return nil, -1
}

// Index returns the index of the named parameter, or -1.
func (s *Space) Index(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// Favor biases the class-level sampling weights used when generating random
// configurations or mutations. The paper configures Wayfinder to "favor
// exploration of runtime parameters" for the performance experiments (§4.1)
// and compile-time options for the memory-footprint experiment (§4.4).
// A negative or NaN weight counts as 0.
func (s *Space) Favor(class Class, weight float64) {
	if !(weight > 0) {
		weight = 0
	}
	s.favored[class] = weight
	s.reindex()
}

// ClassWeight returns the sampling weight of a class.
func (s *Space) ClassWeight(class Class) float64 { return s.favored[class] }

// Fix pins the named parameter to a fixed value: the search will not vary
// it (§3.5, security-aware mode). Returns an error for unknown names or
// out-of-domain values.
func (s *Space) Fix(name string, v Value) error {
	p, i := s.Lookup(name)
	if p == nil {
		return fmt.Errorf("configspace: fix of unknown parameter %q", name)
	}
	if !p.InDomain(v) {
		return fmt.Errorf("configspace: fix of %q to out-of-domain value", name)
	}
	p.Fixed = true
	p.Default = v
	s.defaults[i] = p.raw(v)
	s.reindex()
	return nil
}

// Census summarizes a space the way the paper's Table 1 does: option counts
// by class, and compile-time counts broken down by type.
type Census struct {
	CompileBool     int
	CompileTristate int
	CompileString   int
	CompileHex      int
	CompileInt      int
	Boot            int
	Runtime         int
}

// Total returns the total number of parameters counted.
func (c Census) Total() int {
	return c.CompileBool + c.CompileTristate + c.CompileString +
		c.CompileHex + c.CompileInt + c.Boot + c.Runtime
}

// Census counts the space's parameters by class and (for compile-time) type.
func (s *Space) Census() Census {
	var c Census
	for _, p := range s.params {
		switch p.Class {
		case BootTime:
			c.Boot++
		case Runtime:
			c.Runtime++
		default:
			switch p.Type {
			case Bool:
				c.CompileBool++
			case Tristate:
				c.CompileTristate++
			case Enum:
				c.CompileString++
			case Hex:
				c.CompileHex++
			case Int:
				c.CompileInt++
			}
		}
	}
	return c
}

// LogCardinality returns log10 of the number of distinct configurations,
// i.e. the size of the search space (Fig 9 quotes 3.7×10¹³ permutations for
// the Unikraft space).
func (s *Space) LogCardinality() float64 {
	sum := 0.0
	for _, p := range s.params {
		if p.Fixed {
			continue
		}
		sum += math.Log10(p.Cardinality())
	}
	return sum
}

// Default returns the OS's default configuration: a copy of the space's
// defaults vector.
func (s *Space) Default() *Config {
	return &Config{space: s, raw: slices.Clone(s.defaults)}
}

// DefaultInto overwrites every value of c, a configuration of this space,
// with the default.
func (s *Space) DefaultInto(c *Config) {
	copy(c.raw, s.defaults)
	c.invalidate()
}

// sampleRaw draws a uniform value from p's domain, in value-vector form.
// Integer parameters are sampled log-uniformly when their range spans
// multiple orders of magnitude, matching how the probing heuristic of §3.4
// builds ranges (default scaled by powers of ten): a plain uniform draw
// would almost never visit the small end of a [16, 1e7] range.
func sampleRaw(p *Param, r *rng.RNG) int64 {
	switch p.Type {
	case Bool:
		if r.Bool() {
			return 1
		}
		return 0
	case Tristate:
		return int64(r.Intn(3))
	case Int, Hex:
		lo, hi := p.Min, p.Max
		if lo == hi {
			return lo
		}
		if logScaled(lo, hi) {
			lg := math.Log(float64(lo)) + r.Float64()*(math.Log(float64(hi))-math.Log(float64(lo)))
			v := int64(math.Round(math.Exp(lg)))
			if v < lo {
				v = lo
			}
			if v > hi {
				v = hi
			}
			return v
		}
		return lo + r.Int63n(hi-lo+1)
	case Enum:
		return int64(r.Intn(len(p.Values)))
	}
	return 0
}

// Random returns a configuration with every non-fixed parameter drawn
// uniformly from its domain — the generator behind the random-search
// baseline and Fig 2's 800 random configurations. Parameters whose class
// weight has been set to 0 via Favor stay at their defaults: this is how
// the paper's "favor runtime parameters" / "favor compile-time options"
// search modes (§3.5, §4.1, §4.4) constrain generation.
func (s *Space) Random(r *rng.RNG) *Config {
	c := newConfig(s)
	s.RandomInto(c, r)
	return c
}

// RandomInto overwrites every value of c, a configuration of this space,
// with a Random draw: the same RNG draws in the same order, so redrawing
// a reused configuration consumes the stream exactly as Random does. It
// copies the defaults and redraws the mutable parameters, which are in
// parameter order.
func (s *Space) RandomInto(c *Config, r *rng.RNG) {
	c.invalidate()
	copy(c.raw, s.defaults)
	for _, i := range s.mutable {
		c.raw[i] = sampleRaw(s.params[i], r)
	}
}

// Mutate returns a copy of base with k randomly-chosen non-fixed parameters
// resampled. Parameter choice respects the class weights set via Favor.
// k is clamped to [1, number of mutable parameters].
func (s *Space) Mutate(base *Config, k int, r *rng.RNG) *Config {
	c := newConfig(s)
	s.MutateInto(c, base, k, r)
	return c
}

// MutateInto overwrites dst, a configuration of this space, with a
// Mutate of base (dst may be base): the same RNG draws in the same order,
// so redrawing a reused configuration consumes the stream exactly as
// Mutate does.
func (s *Space) MutateInto(dst, base *Config, k int, r *rng.RNG) {
	if dst != base {
		copy(dst.raw, base.raw)
	}
	dst.invalidate()
	if len(s.mutable) == 0 {
		return
	}
	k = max(1, min(k, len(s.mutable)))
	var buf [8]int
	seen := buf[:0] // the distinct parameters resampled so far
	for len(seen) < k {
		pick := s.mutable[r.ChoiceTotal(s.weights, s.total)]
		if slices.Contains(seen, pick) {
			continue
		}
		seen = append(seen, pick)
		dst.raw[pick] = sampleRaw(s.params[pick], r)
	}
}

// Neighbor returns a copy of base with one numeric parameter nudged to an
// adjacent magnitude (×/÷ step) or one categorical parameter re-drawn —
// the local move used by exploitation-heavy candidate pools.
func (s *Space) Neighbor(base *Config, r *rng.RNG) *Config {
	c := newConfig(s)
	s.NeighborInto(c, base, r)
	return c
}

// NeighborInto overwrites dst, a configuration of this space, with a
// Neighbor of base (dst may be base), consuming the RNG exactly as
// Neighbor does.
func (s *Space) NeighborInto(dst, base *Config, r *rng.RNG) {
	if dst != base {
		copy(dst.raw, base.raw)
	}
	dst.invalidate()
	if len(s.mutable) == 0 {
		return
	}
	pick := s.mutable[r.ChoiceTotal(s.weights, s.total)]
	p := s.params[pick]
	switch p.Type {
	case Int, Hex:
		cur := dst.raw[pick]
		factor := 1.0 + r.Float64() // step in [1,2)
		var next int64
		if r.Bool() {
			next = int64(math.Round(float64(cur) * factor))
		} else {
			next = int64(math.Round(float64(cur) / factor))
		}
		if next == cur {
			next = cur + 1
		}
		if next < p.Min {
			next = p.Min
		}
		if next > p.Max {
			next = p.Max
		}
		dst.raw[pick] = next
	default:
		dst.raw[pick] = sampleRaw(p, r)
	}
}

// SetDefaultsFrom rebases every parameter's default onto the values of
// the given configuration. Searches that pin a class (weight 0) or mutate
// from the default will then operate around this baseline — how Wayfinder
// layers its runtime search on top of a Cozart-debloated compile-time
// configuration (§4.4, Fig 11).
func (s *Space) SetDefaultsFrom(c *Config) error {
	if c.space != s {
		return fmt.Errorf("configspace: SetDefaultsFrom with config from a different space")
	}
	for i, p := range s.params {
		if !p.InDomain(c.Value(i)) {
			return fmt.Errorf("configspace: %s: baseline value out of domain", p.Name)
		}
	}
	for i, p := range s.params {
		p.Default = c.Value(i)
	}
	copy(s.defaults, c.raw)
	return nil
}

// Fingerprint returns a stable content digest of the space's structure:
// its name plus every parameter's name, type, class, domain, default and
// fixedness, in definition order. Two Space values with the same
// fingerprint define the same configuration space, so cross-session
// consumers (the transfer corpus) can match entries to a space without
// holding a pointer to it. Sampling weights set via Favor are deliberately
// excluded: they steer generation, not the space itself.
func (s *Space) Fingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "space %s\n", s.Name)
	for _, p := range s.params {
		fmt.Fprintf(h, "param %s %s %s min=%d max=%d fixed=%v default=%s values=%q\n",
			p.Name, p.Type, p.Class, p.Min, p.Max, p.Fixed,
			p.FormatValue(p.Default), p.Values)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SortedNames returns the parameter names in lexical order, for stable
// reporting.
func (s *Space) SortedNames() []string {
	byName := s.nameOrders().byName
	names := make([]string, len(byName))
	for k, i := range byName {
		names[k] = s.params[i].Name
	}
	return names
}
