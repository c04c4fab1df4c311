// Package vm simulates the QEMU/KVM layer Wayfinder boots OS images on,
// plus the virtual clock that makes time-budget experiments tractable: all
// evaluation costs (builds, boots, benchmark runs) are charged to a Clock
// in virtual seconds, so a "3-hour" search session (Figs 9–11) executes in
// milliseconds while preserving budget semantics.
//
// The VM exposes the runtime pseudo-filesystems (/proc/sys, /sys) of the
// booted kernel, which is what the §3.4 probing heuristic walks to derive
// the runtime configuration space without documentation: list writable
// files, read defaults, infer types, and scale values by powers of ten to
// find accepted ranges.
package vm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"wayfinder/internal/configspace"
	"wayfinder/internal/simos"
)

// Clock is a virtual clock measured in seconds.
type Clock struct {
	now float64
}

// NewClockAt returns a clock whose current time is the given number of
// virtual seconds — used to start per-worker clocks at a shared baseline.
func NewClockAt(seconds float64) *Clock { return &Clock{now: seconds} }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward; negative advances are ignored.
func (c *Clock) Advance(seconds float64) {
	if seconds > 0 {
		c.now += seconds
	}
}

// WallClock merges the per-worker virtual clocks of a parallel evaluation
// session into a shared wall-clock notion: workers evaluate configurations
// concurrently, so the session's virtual wall time is the maximum over the
// worker clocks, while the aggregate compute time — what a cloud bill or
// the paper's CPU-hour accounting would charge — is the sum of per-worker
// advances past the common baseline.
//
// Each worker owns its clock exclusively, so worker goroutines advance
// their clocks without synchronization; Now and ComputeSec are meant to be
// read from the coordinator between rounds (or after the workers join).
type WallClock struct {
	base   float64
	clocks []*Clock
	// stalls is the per-worker idle time the scheduler injected via Stall
	// (barrier waits, staleness-bound waits) — clock advances that must
	// count as idle, not compute.
	stalls []float64
}

// NewWallClock returns a wall clock over n worker clocks, all starting at
// the baseline virtual time.
func NewWallClock(n int, base float64) *WallClock {
	w := &WallClock{base: base, clocks: make([]*Clock, n), stalls: make([]float64, n)}
	for i := range w.clocks {
		w.clocks[i] = NewClockAt(base)
	}
	return w
}

// Stall advances worker i's clock to the given virtual time (a no-op if
// the clock is already past it), accounting the gap as scheduler-imposed
// idle time rather than compute. Schedulers call it when a worker must
// wait — at a round barrier, or for the observation that admits its next
// dispatch — so evaluation start times stay causally consistent and the
// wait is charged to the wall-clock.
func (w *WallClock) Stall(i int, until float64) {
	gap := until - w.clocks[i].now
	if gap <= 0 {
		return
	}
	w.clocks[i].Advance(gap)
	w.stalls[i] += gap
}

// WorkerStallSec returns worker i's scheduler-imposed stall total — the
// component of its idle time that is already settled (unlike the drain gap,
// which depends on the final wall time). Used for checkpointing.
func (w *WallClock) WorkerStallSec(i int) float64 { return w.stalls[i] }

// RestoreWorker forces worker i's clock and stall total to checkpointed
// values, re-establishing a serialized session's exact time state. The
// clock must not move backwards past the wall-clock baseline.
func (w *WallClock) RestoreWorker(i int, nowSec, stallSec float64) {
	w.clocks[i].now = nowSec
	w.stalls[i] = stallSec
}

// Workers returns the number of worker clocks.
func (w *WallClock) Workers() int { return len(w.clocks) }

// Worker returns worker i's private clock.
func (w *WallClock) Worker(i int) *Clock { return w.clocks[i] }

// Now returns the virtual wall time: the maximum over worker clocks (the
// baseline when there are no workers).
func (w *WallClock) Now() float64 {
	now := w.base
	for _, c := range w.clocks {
		if c.now > now {
			now = c.now
		}
	}
	return now
}

// ComputeSec returns the aggregate compute time: the sum over workers of
// the virtual time each advanced past the baseline, excluding
// scheduler-imposed stalls.
func (w *WallClock) ComputeSec() float64 {
	total := 0.0
	for i, c := range w.clocks {
		total += c.now - w.base - w.stalls[i]
	}
	return total
}

// WorkerIdleSec returns worker i's idle time: its scheduler-imposed
// stalls plus the gap between the session wall clock and the worker's own
// clock (the end-of-session drain).
func (w *WallClock) WorkerIdleSec(i int) float64 {
	return w.stalls[i] + w.Now() - w.clocks[i].now
}

// IdleSec returns the aggregate idle time summed over workers — the
// wall-clock wasted waiting (round barriers behind a straggler,
// staleness-bound waits, tail drain) rather than spent evaluating.
// Utilization of a session is ComputeSec / (ComputeSec + IdleSec).
func (w *WallClock) IdleSec() float64 {
	now := w.Now()
	total := 0.0
	for i, c := range w.clocks {
		total += w.stalls[i] + now - c.now
	}
	return total
}

// VM is one booted (simulated) virtual machine.
type VM struct {
	model  *simos.Model
	config *configspace.Config
	booted bool

	// sysctl state: current values by name.
	values map[string]int64
	specs  map[string]simos.RuntimeSpec
}

// New creates a VM for a model/configuration pair; call Boot before using
// the pseudo-filesystem.
func New(model *simos.Model, config *configspace.Config) *VM {
	v := &VM{
		model:  model,
		config: config,
		values: map[string]int64{},
		specs:  map[string]simos.RuntimeSpec{},
	}
	for _, s := range model.RuntimeSpecs {
		v.specs[s.Name] = s
	}
	return v
}

// Boot starts the VM. It fails when the configuration's hidden crash
// outcome is a build or boot failure.
func (v *VM) Boot() error {
	stage, reason := v.model.CrashOutcome(v.config)
	if stage == simos.StageBuild || stage == simos.StageBoot {
		return fmt.Errorf("vm: %s failure: %s", stage, reason)
	}
	// Runtime pseudo-files start at the kernel defaults, then the
	// configuration's runtime assignments are applied as Wayfinder's test
	// task would (sysctl -w for each parameter).
	for _, s := range v.model.RuntimeSpecs {
		v.values[s.Name] = s.Default
	}
	for i, p := range v.config.Space().Params() {
		if p.Class != configspace.Runtime {
			continue
		}
		if _, ok := v.specs[p.Name]; ok {
			v.values[p.Name] = v.config.Value(i).I
		}
	}
	v.booted = true
	return nil
}

// Booted reports whether Boot succeeded.
func (v *VM) Booted() bool { return v.booted }

// ListWritable returns the writable pseudo-file paths under /proc/sys and
// /sys, sorted — step one of the probing heuristic.
func (v *VM) ListWritable() []string {
	var out []string
	for _, s := range v.model.RuntimeSpecs {
		if s.Writable {
			out = append(out, s.Path)
		}
	}
	sort.Strings(out)
	return out
}

// ReadFile reads a pseudo-file's current value.
func (v *VM) ReadFile(path string) (string, error) {
	if !v.booted {
		return "", fmt.Errorf("vm: not booted")
	}
	name, err := v.nameForPath(path)
	if err != nil {
		return "", err
	}
	return strconv.FormatInt(v.values[name], 10), nil
}

// WriteFile writes a pseudo-file, enforcing the kernel's hidden accepted
// range: out-of-range writes fail with EINVAL, as real sysctls do.
func (v *VM) WriteFile(path, value string) error {
	if !v.booted {
		return fmt.Errorf("vm: not booted")
	}
	name, err := v.nameForPath(path)
	if err != nil {
		return err
	}
	spec := v.specs[name]
	iv, err := strconv.ParseInt(strings.TrimSpace(value), 10, 64)
	if err != nil {
		return fmt.Errorf("vm: %s: invalid value %q", path, value)
	}
	if iv < spec.HardMin || iv > spec.HardMax {
		return fmt.Errorf("vm: %s: EINVAL (value %d outside accepted range)", path, iv)
	}
	v.values[name] = iv
	return nil
}

func (v *VM) nameForPath(path string) (string, error) {
	for _, s := range v.model.RuntimeSpecs {
		if s.Path == path {
			return s.Name, nil
		}
	}
	return "", fmt.Errorf("vm: no such pseudo-file %q", path)
}

// ProbeOptions tunes the §3.4 space-derivation heuristic.
type ProbeOptions struct {
	// ScaleFactor is the multiplicative probe step ("scaling up and down
	// the default value several times by a high factor (10)").
	ScaleFactor int64
	// MaxSteps bounds how many scalings are attempted in each direction.
	MaxSteps int
	// SecondsPerWrite is the virtual cost charged per probe write.
	SecondsPerWrite float64
}

// DefaultProbeOptions matches the paper's description.
func DefaultProbeOptions() ProbeOptions {
	return ProbeOptions{ScaleFactor: 10, MaxSteps: 6, SecondsPerWrite: 0.05}
}

// ProbeSpace implements the heuristic of §3.4 against a booted VM: for
// every writable pseudo-file, read the default; treat 0/1 defaults as
// boolean and other numbers as arbitrary integers; then scale the default
// up and down by the factor, writing each candidate — values the write
// accepts (without crashing the VM) are considered in range. The result is
// a runtime-parameter Space (an approximation of the kernel's true limits,
// intentionally coarse: refining values is the search's job).
func (v *VM) ProbeSpace(name string, opts ProbeOptions, clock *Clock) (*configspace.Space, error) {
	if !v.booted {
		return nil, fmt.Errorf("vm: not booted")
	}
	space := configspace.NewSpace(name)
	for _, path := range v.ListWritable() {
		raw, err := v.ReadFile(path)
		if err != nil {
			return nil, err
		}
		def, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			continue // non-numeric runtime parameters are skipped (§3.4)
		}
		pname, _ := v.nameForPath(path)
		if def == 0 || def == 1 {
			space.MustAdd(&configspace.Param{
				Name: pname, Type: configspace.Bool, Class: configspace.Runtime,
				Default: configspace.BoolValue(def == 1),
			})
			continue
		}
		lo, hi := def, def
		// Scale up. The multiply is overflow-checked: runtime defaults can
		// sit near the top of the int64 range, where another ×ScaleFactor
		// step would wrap negative and corrupt the derived Min/Max range.
		val := def
		for step := 0; step < opts.MaxSteps; step++ {
			next, ok := mulInt64(val, opts.ScaleFactor)
			if !ok {
				break
			}
			val = next
			clock.Advance(opts.SecondsPerWrite)
			if err := v.WriteFile(path, strconv.FormatInt(val, 10)); err != nil {
				break
			}
			// Scaling a negative default "up" moves away from zero downward,
			// so accepted values extend whichever bound they actually pass.
			if val > hi {
				hi = val
			}
			if val < lo {
				lo = val
			}
		}
		// Scale down.
		val = def
		for step := 0; step < opts.MaxSteps; step++ {
			val /= opts.ScaleFactor
			if val == 0 {
				break
			}
			clock.Advance(opts.SecondsPerWrite)
			if err := v.WriteFile(path, strconv.FormatInt(val, 10)); err != nil {
				break
			}
			if val < lo {
				lo = val
			}
			if val > hi {
				hi = val
			}
		}
		// Restore the default.
		clock.Advance(opts.SecondsPerWrite)
		if err := v.WriteFile(path, raw); err != nil {
			return nil, fmt.Errorf("vm: restoring %s: %w", path, err)
		}
		space.MustAdd(&configspace.Param{
			Name: pname, Type: configspace.Int, Class: configspace.Runtime,
			Min: lo, Max: hi, Default: configspace.IntValue(def),
		})
	}
	return space, nil
}

// mulInt64 multiplies two int64s, reporting false on overflow instead of
// silently wrapping.
func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		// |MinInt64| is not representable; any multiply by a magnitude > 1
		// overflows, and ×±1 is handled below without division tricks.
		if b == 1 {
			return a, true
		}
		if a == 1 {
			return b, true
		}
		return 0, false
	}
	c := a * b
	if c/b != a {
		return 0, false
	}
	return c, true
}
