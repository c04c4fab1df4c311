// Package fault defines deterministic fault schedules for the fleet
// schedulers: a serializable list of timed events in *virtual* time —
// hosts going down and coming back (artifacts lost, workers offline),
// workers being preempted mid-evaluation (spot instances), and
// stage-level transient build/boot failures targeted at specific
// (iteration, attempt) pairs — plus the bounded-attempt retry policy the
// engine applies when an evaluation is lost.
//
// The package is pure data and pure queries: no wall-clock, no
// randomness, no engine imports. A session consuming a schedule remains a
// pure function of (seed, workers, staleness, hosts, schedule) — the same
// schedule always produces the byte-identical report, and the empty
// schedule is exactly today's fault-free behavior.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind names one fault event type.
type Kind string

const (
	// HostDown takes a host offline at AtSec: every artifact in its store
	// partition is lost, its workers stop accepting dispatches, and any
	// evaluation running on it is killed.
	HostDown Kind = "host-down"
	// HostUp brings a downed host back at AtSec (empty disk, idle workers).
	HostUp Kind = "host-up"
	// WorkerPreempt kills whatever evaluation worker Worker is running at
	// AtSec (the spot-instance reclaim); the worker itself survives.
	WorkerPreempt Kind = "preempt"
	// BuildFail injects a transient build-stage failure into iteration
	// Iter's Attempt-th attempt (1-based).
	BuildFail Kind = "build-fail"
	// BootFail injects a transient boot-stage failure into iteration
	// Iter's Attempt-th attempt (1-based).
	BootFail Kind = "boot-fail"
)

// Event is one scheduled fault. Which fields are meaningful depends on
// Kind: host events use Host+AtSec, preemptions Worker+AtSec, and
// stage-failure injections Iter+Attempt (they are positional in the
// iteration sequence, not timed).
type Event struct {
	Kind    Kind    `json:"kind"`
	AtSec   float64 `json:"at_sec,omitempty"`
	Host    int     `json:"host,omitempty"`
	Worker  int     `json:"worker,omitempty"`
	Iter    int     `json:"iter,omitempty"`
	Attempt int     `json:"attempt,omitempty"`
}

// RetryPolicy bounds how the engine retries a faulted evaluation. The
// zero value means the defaults: 3 attempts total, 30s initial backoff,
// doubling per failure.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per iteration (0 = default
	// 3). 1 disables retries: the first fault becomes a recorded crash.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// BackoffSec is the virtual-time backoff after the first failure
	// (0 = default 30).
	BackoffSec float64 `json:"backoff_sec,omitempty"`
	// BackoffMult multiplies the backoff per additional failure
	// (0 = default 2).
	BackoffMult float64 `json:"backoff_mult,omitempty"`
}

// Default retry-policy values (applied when the corresponding field is 0).
const (
	DefaultMaxAttempts = 3
	DefaultBackoffSec  = 30.0
	DefaultBackoffMult = 2.0
)

// Max returns the effective total attempt budget.
func (p RetryPolicy) Max() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// Backoff returns the virtual-time delay before the attempt following the
// given failure count (failures ≥ 1): BackoffSec · BackoffMult^(failures−1).
func (p RetryPolicy) Backoff(failures int) float64 {
	b := p.BackoffSec
	if b <= 0 {
		b = DefaultBackoffSec
	}
	m := p.BackoffMult
	if m <= 0 {
		m = DefaultBackoffMult
	}
	for i := 1; i < failures; i++ {
		b *= m
	}
	return b
}

// Schedule is a deterministic fault plan: the events, in any order, plus
// the retry policy. The zero value (and nil) is the empty schedule.
type Schedule struct {
	Events []Event     `json:"events,omitempty"`
	Retry  RetryPolicy `json:"retry,omitempty"`

	once  sync.Once
	order []int // event indices sorted by (AtSec, original index)
}

// Empty reports whether the schedule injects nothing (nil-safe). An empty
// schedule leaves a session byte-identical to a fault-free one.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// sorted returns the event indices in stable (AtSec, original index)
// order, computed once.
func (s *Schedule) sorted() []int {
	s.once.Do(func() {
		s.order = make([]int, len(s.Events))
		for i := range s.order {
			s.order[i] = i
		}
		sort.SliceStable(s.order, func(a, b int) bool {
			return s.Events[s.order[a]].AtSec < s.Events[s.order[b]].AtSec
		})
	})
	return s.order
}

// At returns event k, 0 ≤ k < len(Events), of the schedule's timeline:
// its events in stable virtual-time order, the order the engine's fault
// cursor applies them. It reads the cached order and copies nothing.
func (s *Schedule) At(k int) Event { return s.Events[s.sorted()[k]] }

// HostUpAt reports whether the host is up at virtual time t: the latest
// host event at or before t wins; a host with no prior event is up.
func (s *Schedule) HostUpAt(host int, t float64) bool {
	if s.Empty() {
		return true
	}
	up := true
	for _, i := range s.sorted() {
		ev := s.Events[i]
		if ev.AtSec > t {
			break
		}
		if ev.Host != host {
			continue
		}
		switch ev.Kind {
		case HostDown:
			up = false
		case HostUp:
			up = true
		}
	}
	return up
}

// NextUpAt returns the earliest virtual time ≥ t at which the host is up
// (t itself when it already is), and false when the host stays down for
// the rest of the schedule.
func (s *Schedule) NextUpAt(host int, t float64) (float64, bool) {
	if s.HostUpAt(host, t) {
		return t, true
	}
	for _, i := range s.sorted() {
		ev := s.Events[i]
		if ev.AtSec <= t || ev.Host != host {
			continue
		}
		switch ev.Kind {
		case HostUp:
			return ev.AtSec, true
		case HostDown:
			// Still down; keep scanning.
		}
	}
	return 0, false
}

// KillBetween returns the earliest fault that kills an evaluation running
// on (worker, host) over the open interval (start, end): a preemption of
// that worker or a down event of that host. The interval is open on both
// ends — an evaluation starting exactly at a fault starts after it (the
// dispatcher already saw the event), and one ending exactly at a fault
// completed first.
func (s *Schedule) KillBetween(worker, host int, start, end float64) (Kind, float64, bool) {
	if s.Empty() {
		return "", 0, false
	}
	for _, i := range s.sorted() {
		ev := s.Events[i]
		if ev.AtSec >= end {
			break
		}
		if ev.AtSec <= start {
			continue
		}
		if (ev.Kind == WorkerPreempt && ev.Worker == worker) ||
			(ev.Kind == HostDown && ev.Host == host) {
			return ev.Kind, ev.AtSec, true
		}
	}
	return "", 0, false
}

// Inject returns the stage-failure kind scheduled for the iteration's
// attempt (1-based), if any.
func (s *Schedule) Inject(iter, attempt int) (Kind, bool) {
	if s.Empty() {
		return "", false
	}
	for _, ev := range s.Events {
		if (ev.Kind == BuildFail || ev.Kind == BootFail) && ev.Iter == iter && ev.Attempt == attempt {
			return ev.Kind, true
		}
	}
	return "", false
}

// Downtime returns the total virtual time the host spends down within
// [from, to].
func (s *Schedule) Downtime(host int, from, to float64) float64 {
	if s.Empty() || to <= from {
		return 0
	}
	total := 0.0
	up := true
	downSince := from
	for _, i := range s.sorted() {
		ev := s.Events[i]
		if ev.AtSec > to {
			break
		}
		if ev.Host != host || (ev.Kind != HostDown && ev.Kind != HostUp) {
			continue
		}
		at := ev.AtSec
		if at < from {
			at = from
		}
		switch ev.Kind {
		case HostDown:
			if up {
				up, downSince = false, at
			}
		case HostUp:
			if !up {
				up = true
				total += at - downSince
			}
		}
	}
	if !up {
		total += to - downSince
	}
	return total
}

// Validate rejects schedules that reference hosts, workers, or attempts a
// session of the given shape cannot have (nil-safe: the empty schedule is
// always valid).
func (s *Schedule) Validate(hosts, workers int) error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		if ev.AtSec < 0 {
			return fmt.Errorf("fault: event %d (%s) at negative time %g", i, ev.Kind, ev.AtSec)
		}
		switch ev.Kind {
		case HostDown, HostUp:
			if ev.Host < 0 || ev.Host >= hosts {
				return fmt.Errorf("fault: event %d (%s) targets host %d of a %d-host fleet", i, ev.Kind, ev.Host, hosts)
			}
			if ev.Kind == HostDown && hosts < 2 {
				return fmt.Errorf("fault: event %d downs the only host; host churn needs Hosts ≥ 2", i)
			}
		case WorkerPreempt:
			if ev.Worker < 0 || ev.Worker >= workers {
				return fmt.Errorf("fault: event %d preempts worker %d of %d", i, ev.Worker, workers)
			}
		case BuildFail, BootFail:
			if ev.Iter < 0 {
				return fmt.Errorf("fault: event %d (%s) targets negative iteration %d", i, ev.Kind, ev.Iter)
			}
			if ev.Attempt < 1 {
				return fmt.Errorf("fault: event %d (%s) targets attempt %d (attempts are 1-based)", i, ev.Kind, ev.Attempt)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	p := s.Retry
	if p.MaxAttempts < 0 {
		return fmt.Errorf("fault: negative retry attempt budget %d", p.MaxAttempts)
	}
	if p.BackoffSec < 0 {
		return fmt.Errorf("fault: negative retry backoff %g", p.BackoffSec)
	}
	if p.BackoffMult < 0 {
		return fmt.Errorf("fault: negative retry backoff multiplier %g", p.BackoffMult)
	}
	return nil
}

// Parse decodes the schedule DSL the CLIs speak: a comma-separated event
// list —
//
//	down:H@T     host H down at virtual second T
//	up:H@T       host H back up at T
//	preempt:W@T  worker W preempted at T
//	buildfail:I#A  build failure on iteration I, attempt A (A defaults 1)
//	bootfail:I#A   boot failure on iteration I, attempt A
//	retry:M/B/X  retry policy: M attempts, B s backoff, ×X per failure
//	             (each segment after M optional)
//
// e.g. "down:1@300,up:1@900,preempt:3@120,buildfail:7,retry:4/20/2".
// The empty string parses to the empty schedule (nil).
func Parse(src string) (*Schedule, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, nil
	}
	s := &Schedule{}
	for _, tok := range strings.Split(src, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		op, arg, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("fault: %q is not op:arg", tok)
		}
		switch op {
		case "down", "up":
			host, at, err := parseAt(arg)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %w", tok, err)
			}
			kind := HostDown
			if op == "up" {
				kind = HostUp
			}
			s.Events = append(s.Events, Event{Kind: kind, Host: host, AtSec: at})
		case "preempt":
			worker, at, err := parseAt(arg)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %w", tok, err)
			}
			s.Events = append(s.Events, Event{Kind: WorkerPreempt, Worker: worker, AtSec: at})
		case "buildfail", "bootfail":
			iter, attempt, err := parseIterAttempt(arg)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %w", tok, err)
			}
			kind := BuildFail
			if op == "bootfail" {
				kind = BootFail
			}
			s.Events = append(s.Events, Event{Kind: kind, Iter: iter, Attempt: attempt})
		case "retry":
			p, err := parseRetry(arg)
			if err != nil {
				return nil, fmt.Errorf("fault: %q: %w", tok, err)
			}
			s.Retry = p
		default:
			return nil, fmt.Errorf("fault: unknown event %q (down, up, preempt, buildfail, bootfail, retry)", op)
		}
	}
	if len(s.Events) == 0 && s.Retry == (RetryPolicy{}) {
		return nil, nil
	}
	return s, nil
}

// String renders the schedule back into the DSL Parse accepts (nil-safe;
// the empty schedule renders as "").
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	var toks []string
	for _, ev := range s.Events {
		switch ev.Kind {
		case HostDown:
			toks = append(toks, fmt.Sprintf("down:%d@%s", ev.Host, fmtSec(ev.AtSec)))
		case HostUp:
			toks = append(toks, fmt.Sprintf("up:%d@%s", ev.Host, fmtSec(ev.AtSec)))
		case WorkerPreempt:
			toks = append(toks, fmt.Sprintf("preempt:%d@%s", ev.Worker, fmtSec(ev.AtSec)))
		case BuildFail:
			toks = append(toks, fmt.Sprintf("buildfail:%d#%d", ev.Iter, ev.Attempt))
		case BootFail:
			toks = append(toks, fmt.Sprintf("bootfail:%d#%d", ev.Iter, ev.Attempt))
		}
	}
	if p := s.Retry; p != (RetryPolicy{}) {
		toks = append(toks, fmt.Sprintf("retry:%d/%s/%s", p.MaxAttempts, fmtSec(p.BackoffSec), fmtSec(p.BackoffMult)))
	}
	return strings.Join(toks, ",")
}

// fmtSec renders a float without a trailing ".0" noise for whole values.
func fmtSec(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// parseAt decodes "N@T".
func parseAt(arg string) (int, float64, error) {
	idx, at, ok := strings.Cut(arg, "@")
	if !ok {
		return 0, 0, fmt.Errorf("want index@seconds")
	}
	n, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return 0, 0, fmt.Errorf("bad index %q", idx)
	}
	t, err := strconv.ParseFloat(strings.TrimSpace(at), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad time %q", at)
	}
	return n, t, nil
}

// parseIterAttempt decodes "I" or "I#A" (attempt defaults to 1).
func parseIterAttempt(arg string) (int, int, error) {
	iter, att, hasAtt := strings.Cut(arg, "#")
	i, err := strconv.Atoi(strings.TrimSpace(iter))
	if err != nil {
		return 0, 0, fmt.Errorf("bad iteration %q", iter)
	}
	a := 1
	if hasAtt {
		a, err = strconv.Atoi(strings.TrimSpace(att))
		if err != nil {
			return 0, 0, fmt.Errorf("bad attempt %q", att)
		}
	}
	return i, a, nil
}

// parseRetry decodes "M", "M/B", or "M/B/X".
func parseRetry(arg string) (RetryPolicy, error) {
	var p RetryPolicy
	parts := strings.Split(arg, "/")
	if len(parts) > 3 {
		return p, fmt.Errorf("want attempts[/backoff[/mult]]")
	}
	m, err := strconv.Atoi(strings.TrimSpace(parts[0]))
	if err != nil {
		return p, fmt.Errorf("bad attempt budget %q", parts[0])
	}
	p.MaxAttempts = m
	if len(parts) > 1 {
		if p.BackoffSec, err = strconv.ParseFloat(strings.TrimSpace(parts[1]), 64); err != nil {
			return p, fmt.Errorf("bad backoff %q", parts[1])
		}
	}
	if len(parts) > 2 {
		if p.BackoffMult, err = strconv.ParseFloat(strings.TrimSpace(parts[2]), 64); err != nil {
			return p, fmt.Errorf("bad backoff multiplier %q", parts[2])
		}
	}
	return p, nil
}
