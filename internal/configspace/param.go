// Package configspace models the configuration space of an operating
// system: typed parameters (bool, tristate, int, hex, string/enum) across
// the three classes the paper optimizes (compile-time, boot-time, runtime),
// concrete configurations over those parameters, feature-vector encodings
// for the learning algorithms, and job files describing a space (§3.4).
package configspace

import (
	"fmt"
	"strconv"
	"strings"
)

// Type is the value type of a configuration parameter, mirroring Kconfig's
// option kinds (Table 1 of the paper).
type Type int

const (
	// Bool parameters are on/off switches.
	Bool Type = iota
	// Tristate parameters are off/module/built-in, Kconfig's n/m/y.
	Tristate
	// Int parameters take arbitrary integers within a (possibly inferred)
	// range.
	Int
	// Hex parameters are integers conventionally rendered in hexadecimal.
	Hex
	// Enum parameters take one of a fixed set of strings (Kconfig "string"
	// options restricted to automatically extractable values — §3.4).
	Enum
)

// String returns the Kconfig-style name of the type.
func (t Type) String() string {
	switch t {
	case Bool:
		return "bool"
	case Tristate:
		return "tristate"
	case Int:
		return "int"
	case Hex:
		return "hex"
	case Enum:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType parses a type name as written in job files.
func ParseType(s string) (Type, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "bool", "boolean":
		return Bool, nil
	case "tristate":
		return Tristate, nil
	case "int", "integer":
		return Int, nil
	case "hex":
		return Hex, nil
	case "string", "enum":
		return Enum, nil
	default:
		return 0, fmt.Errorf("configspace: unknown parameter type %q", s)
	}
}

// Class is when in an OS's lifecycle a parameter is applied. The build-skip
// optimization (§3.1) and the paper's "favor runtime/compile-time options"
// modes both key off the class.
type Class int

const (
	// CompileTime parameters require rebuilding the OS image.
	CompileTime Class = iota
	// BootTime parameters are kernel command-line arguments; changing them
	// requires a reboot but not a rebuild.
	BootTime
	// Runtime parameters are writable at run time (e.g. /proc/sys, /sys).
	Runtime
)

// String returns the job-file name of the class.
func (c Class) String() string {
	switch c {
	case CompileTime:
		return "compile"
	case BootTime:
		return "boot"
	case Runtime:
		return "runtime"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ParseClass parses a class name as written in job files.
func ParseClass(s string) (Class, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "compile", "compile-time", "compiletime", "build":
		return CompileTime, nil
	case "boot", "boot-time", "boottime", "cmdline":
		return BootTime, nil
	case "runtime", "run-time", "run":
		return Runtime, nil
	default:
		return 0, fmt.Errorf("configspace: unknown parameter class %q", s)
	}
}

// TristateValue enumerates the three Kconfig states of a tristate option.
type TristateValue int

const (
	// TriNo disables the feature ("n").
	TriNo TristateValue = iota
	// TriModule builds the feature as a module ("m").
	TriModule
	// TriYes builds the feature in ("y").
	TriYes
)

// Value is a concrete value of some parameter. Exactly one representation
// is meaningful for a given parameter type: I for Bool (0/1), Tristate
// (0/1/2), Int and Hex; S for Enum. The other field must be zero. Value is
// the API view of a configuration: a Config stores each value as one
// int64 (an enum as its index into Param.Values) and builds the Value on
// read.
type Value struct {
	I int64
	S string
}

// BoolValue returns the Value encoding of a boolean.
func BoolValue(on bool) Value {
	if on {
		return Value{I: 1}
	}
	return Value{I: 0}
}

// IntValue returns the Value encoding of an integer (Int or Hex).
func IntValue(v int64) Value { return Value{I: v} }

// TriValue returns the Value encoding of a tristate state.
func TriValue(v TristateValue) Value { return Value{I: int64(v)} }

// EnumValue returns the Value encoding of an enum string.
func EnumValue(s string) Value { return Value{S: s} }

// Param describes one configuration parameter: its identity, type, class,
// default value, and domain. Once added to a Space, a Param belongs to
// that space, and its fields must not change except through the space's
// Fix and SetDefaultsFrom: the space keeps its defaults as a value vector,
// and its configurations store enums as indices into Values.
type Param struct {
	// Name is the canonical parameter name, e.g. "net.core.somaxconn" for a
	// runtime sysctl or "CONFIG_PREEMPT" for a compile-time option.
	Name string
	// Type is the value type.
	Type Type
	// Class is the lifecycle stage at which the parameter applies.
	Class Class
	// Default is the value the OS ships with.
	Default Value
	// Min and Max bound Int/Hex parameters (inclusive). For parameters
	// whose range was inferred by the probing heuristic of §3.4, these are
	// the default scaled down/up by powers of ten that survived probing.
	Min, Max int64
	// Values enumerates the domain of Enum parameters.
	Values []string
	// Fixed marks parameters pinned by the user (e.g. security options the
	// search must not vary — §3.5).
	Fixed bool
	// Help is optional human-readable documentation.
	Help string
}

// Validate reports whether the parameter definition is internally
// consistent.
func (p *Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("configspace: parameter with empty name")
	}
	if (p.Type == Enum && p.Default.I != 0) || (p.Type != Enum && p.Default.S != "") {
		return fmt.Errorf("configspace: %s: %s default sets the other type's field", p.Name, p.Type)
	}
	switch p.Type {
	case Bool:
		if p.Default.I != 0 && p.Default.I != 1 {
			return fmt.Errorf("configspace: %s: bool default %d out of range", p.Name, p.Default.I)
		}
	case Tristate:
		if p.Default.I < 0 || p.Default.I > 2 {
			return fmt.Errorf("configspace: %s: tristate default %d out of range", p.Name, p.Default.I)
		}
	case Int, Hex:
		if p.Min > p.Max {
			return fmt.Errorf("configspace: %s: min %d > max %d", p.Name, p.Min, p.Max)
		}
		if p.Default.I < p.Min || p.Default.I > p.Max {
			return fmt.Errorf("configspace: %s: default %d outside [%d,%d]", p.Name, p.Default.I, p.Min, p.Max)
		}
	case Enum:
		if len(p.Values) == 0 {
			return fmt.Errorf("configspace: %s: enum with no values", p.Name)
		}
		for i, v := range p.Values {
			if p.enumIndex(v) != i {
				return fmt.Errorf("configspace: %s: duplicate enum value %q", p.Name, v)
			}
		}
		if p.enumIndex(p.Default.S) < 0 {
			return fmt.Errorf("configspace: %s: default %q not in enum domain", p.Name, p.Default.S)
		}
	default:
		return fmt.Errorf("configspace: %s: unknown type %d", p.Name, int(p.Type))
	}
	return nil
}

// InDomain reports whether v is a legal value for the parameter. A value
// that sets the other type's field (an enum's I, a non-enum's S) is not.
func (p *Param) InDomain(v Value) bool {
	if p.Type == Enum {
		return v.I == 0 && p.enumIndex(v.S) >= 0
	}
	if v.S != "" {
		return false
	}
	switch p.Type {
	case Bool:
		return v.I == 0 || v.I == 1
	case Tristate:
		return v.I >= 0 && v.I <= 2
	case Int, Hex:
		return v.I >= p.Min && v.I <= p.Max
	}
	return false
}

// raw returns v's value-vector form: an enum's index into Values (-1 when
// v.S is not in the domain), any other type's integer.
func (p *Param) raw(v Value) int64 {
	if p.Type == Enum {
		return int64(p.enumIndex(v.S))
	}
	return v.I
}

// value returns the Value a value-vector entry stands for, the inverse of
// raw. It does not allocate: an enum's string is the one in Values.
func (p *Param) value(r int64) Value {
	if p.Type == Enum {
		return Value{S: p.Values[r]}
	}
	return Value{I: r}
}

func (p *Param) enumIndex(s string) int {
	for i, v := range p.Values {
		if v == s {
			return i
		}
	}
	return -1
}

// Cardinality returns the number of distinct values the parameter can take,
// saturating at maxCard for very large integer ranges. It is used to report
// the size of the search space (e.g. Fig 9's 3.7×10¹³ permutations).
func (p *Param) Cardinality() float64 {
	switch p.Type {
	case Bool:
		return 2
	case Tristate:
		return 3
	case Int, Hex:
		return float64(p.Max-p.Min) + 1
	case Enum:
		return float64(len(p.Values))
	}
	return 1
}

// FormatValue renders v in the parameter's natural syntax: y/n for bool,
// y/m/n for tristate, decimal for int, 0x-prefixed for hex, the literal
// string for enums.
func (p *Param) FormatValue(v Value) string {
	switch p.Type {
	case Bool, Tristate, Int, Hex:
		var tmp [24]byte
		return string(appendFormatted(tmp[:0], p, v.I))
	case Enum:
		return v.S
	}
	return ""
}

// ParseValue parses a value in the parameter's natural syntax (the inverse
// of FormatValue). It accepts the common Kconfig spellings.
func (p *Param) ParseValue(s string) (Value, error) {
	if p.Type == Enum && p.enumIndex(s) >= 0 {
		// Matched verbatim first, so an enum value with surrounding space
		// round-trips through FormatValue.
		return EnumValue(s), nil
	}
	s = strings.TrimSpace(s)
	switch p.Type {
	case Bool:
		switch strings.ToLower(s) {
		case "y", "yes", "1", "true", "on":
			return BoolValue(true), nil
		case "n", "no", "0", "false", "off":
			return BoolValue(false), nil
		}
		return Value{}, fmt.Errorf("configspace: %s: bad bool %q", p.Name, s)
	case Tristate:
		switch strings.ToLower(s) {
		case "y", "2":
			return TriValue(TriYes), nil
		case "m", "1":
			return TriValue(TriModule), nil
		case "n", "0":
			return TriValue(TriNo), nil
		}
		return Value{}, fmt.Errorf("configspace: %s: bad tristate %q", p.Name, s)
	case Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("configspace: %s: bad int %q", p.Name, s)
		}
		return IntValue(i), nil
	case Hex:
		t := strings.TrimPrefix(strings.ToLower(s), "0x")
		i, err := strconv.ParseInt(t, 16, 64)
		if err != nil {
			return Value{}, fmt.Errorf("configspace: %s: bad hex %q", p.Name, s)
		}
		return IntValue(i), nil
	case Enum:
		if p.enumIndex(s) < 0 {
			return Value{}, fmt.Errorf("configspace: %s: %q not in enum domain", p.Name, s)
		}
		return EnumValue(s), nil
	}
	return Value{}, fmt.Errorf("configspace: %s: unknown type", p.Name)
}
