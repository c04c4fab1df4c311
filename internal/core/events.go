// Typed session events: one shared sink fed from the Session's record
// path, so the identical observation sequence always emits the identical
// event sequence — events are as deterministic as the report itself (only
// the wall-time DecisionCost fields inside carried Results vary between
// runs). Observers run synchronously on the session goroutine in
// registration order; the public API layers a channel on top for
// consumers that want to range over a stream instead.
package core

import "wayfinder/internal/fault"

// Event is one typed session notification. The concrete types are
// EvalDone, NewBest, CacheEvent, RoundBarrier, Progress, SessionDone,
// HostStateChanged, FaultInjected, and RetryScheduled. Events carry
// Result copies; observers must not retain pointers into them across
// calls if they mutate.
type Event interface{ isEvent() }

// EvalDone is emitted for every recorded observation, in deterministic
// observation order (the order the report history grows and the searcher
// observes).
type EvalDone struct {
	// Result is the observation exactly as appended to the report history.
	Result Result
}

// NewBest is emitted immediately after an EvalDone whose observation
// improved the session best.
type NewBest struct {
	// Result is the new best observation.
	Result Result
	// PrevBest is the superseded best, nil for the first viable result.
	PrevBest *Result
}

// CacheEvent is emitted immediately before an EvalDone whose build stage
// was satisfied without compiling.
type CacheEvent struct {
	// Result is the observation whose build was avoided.
	Result Result
	// Source names how: "reuse" for the §3.1 same-worker image skip,
	// "local" for a host-store fetch, "remote" for a cross-host fetch.
	Source string
}

// RoundBarrier is emitted by a multi-worker session with staleness bound
// 0 when a dispatch round's evaluations complete and every worker stalls
// to the round maximum — before the round's observations are recorded.
type RoundBarrier struct {
	// Round is the 1-based completed-round count.
	Round int
	// Size is the number of evaluations the round dispatched.
	Size int
	// WallSec is the virtual wall-clock time of the barrier.
	WallSec float64
}

// Progress is emitted after every observation's other events: a one-line
// summary of the session position, sized for live status rendering.
type Progress struct {
	// Observed is the number of recorded observations.
	Observed int
	// Iterations is the iteration budget (0 = unbounded / time-budgeted).
	Iterations int
	// Crashes is the crash count so far.
	Crashes int
	// Best is the best result so far (nil while everything crashed).
	Best *Result
	// ElapsedSec is the session's virtual wall-clock position.
	ElapsedSec float64
	// Utilization is the workers' compute fraction so far.
	Utilization float64
	// CacheHits and BuildsSaved mirror the report counters.
	CacheHits   int
	BuildsSaved int
}

// SessionDone is emitted exactly once, when the session's budget or
// strategy is exhausted (a canceled Run does not emit it — the session is
// still resumable). The report is final at that point.
type SessionDone struct {
	Report *Report
}

// CorpusEvent is emitted when a session touches its transfer corpus:
// Kind "warmstart" on the first step of a session that resolved seeds or
// weights from the corpus (emitted lazily so observers attached after
// construction still see it), Kind "deposit" when a completed session
// stores its outcome (immediately before SessionDone).
type CorpusEvent struct {
	// Kind is "warmstart" or "deposit".
	Kind string
	// Hash is the corpus content hash: at query time for a warm start,
	// after the deposit for a deposit.
	Hash string
	// Seeds is the number of seed configurations injected (warm start).
	Seeds int
	// DTM reports whether DeepTune weights transferred (warm start).
	DTM bool
	// Digest is the deposited entry's content digest (deposit).
	Digest string
}

// HostStateChanged is emitted when the fault schedule takes a host down
// or brings it back up, at the moment the scheduler's decision time
// passes the event (schedule-timeline order).
type HostStateChanged struct {
	// Host is the host index.
	Host int
	// Up is the host's new state.
	Up bool
	// AtSec is the schedule's virtual time for the transition.
	AtSec float64
}

// FaultInjected is emitted when a scheduled fault lands on a dispatched
// evaluation: a kill (host-down or preemption, at the kill instant) or an
// injected build/boot failure (at the evaluation's end).
//
// Ordering guarantee: HostStateChanged, FaultInjected, and RetryScheduled
// are emitted at dispatch/resolve boundaries — between per-observation
// event groups (CacheEvent/EvalDone/NewBest/Progress), never inside one —
// in schedule order for host events and dispatch order for the rest. The
// sequence is as deterministic as the observation stream itself.
type FaultInjected struct {
	// Kind is the schedule event kind that landed.
	Kind fault.Kind
	// Iter is the iteration the evaluation carried.
	Iter int
	// Attempt is the attempt that failed, 1-based.
	Attempt int
	// Worker and Host locate the evaluation.
	Worker int
	Host   int
	// AtSec is the virtual time the fault took effect.
	AtSec float64
}

// RetryScheduled is emitted immediately after a FaultInjected whose
// iteration still has attempt budget: the observation is lost for now and
// queued for re-dispatch.
type RetryScheduled struct {
	// Iter is the iteration to be re-dispatched.
	Iter int
	// Attempt is the upcoming attempt number, 1-based.
	Attempt int
	// NotBeforeSec is the backoff deadline the re-dispatch waits for.
	NotBeforeSec float64
}

func (EvalDone) isEvent()         {}
func (NewBest) isEvent()          {}
func (CacheEvent) isEvent()       {}
func (RoundBarrier) isEvent()     {}
func (Progress) isEvent()         {}
func (SessionDone) isEvent()      {}
func (CorpusEvent) isEvent()      {}
func (HostStateChanged) isEvent() {}
func (FaultInjected) isEvent()    {}
func (RetryScheduled) isEvent()   {}

// AddObserver registers a synchronous event observer. Observers are
// invoked on the session's stepping goroutine in registration order;
// register before the first step so the stream starts at observation 0.
// AddObserver is the one Session method safe to call while another
// goroutine drives Run — a late registration just misses the events
// already emitted.
func (s *Session) AddObserver(fn func(Event)) {
	if fn == nil {
		return
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	// Copy-on-write: emit iterates a snapshot of the slice header, so an
	// append must never extend the backing array a concurrent emit reads.
	observers := make([]func(Event), len(s.observers), len(s.observers)+1)
	copy(observers, s.observers)
	s.observers = append(observers, fn)
}

// observerList snapshots the observer slice for one emission group.
func (s *Session) observerList() []func(Event) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return s.observers
}

// emit delivers an event to every observer (a no-op without observers —
// sessions without listeners pay nothing for the stream).
func (s *Session) emit(ev Event) {
	for _, fn := range s.observerList() {
		fn(ev)
	}
}

// emitObservation emits the per-observation event group in canonical
// order: CacheEvent (when the build was avoided), EvalDone, NewBest (when
// the best improved), Progress.
func (s *Session) emitObservation(res Result, improved bool, prevBest *Result) {
	if len(s.observerList()) == 0 {
		return
	}
	switch {
	case res.CacheHit && res.CacheRemote:
		s.emit(CacheEvent{Result: res, Source: "remote"})
	case res.CacheHit:
		s.emit(CacheEvent{Result: res, Source: "local"})
	case res.BuildSkipped:
		s.emit(CacheEvent{Result: res, Source: "reuse"})
	}
	s.emit(EvalDone{Result: res})
	if improved {
		s.emit(NewBest{Result: res, PrevBest: prevBest})
	}
	rep := s.report
	s.emit(Progress{
		Observed:    s.observed,
		Iterations:  s.opts.Iterations,
		Crashes:     rep.Crashes,
		Best:        rep.Best,
		ElapsedSec:  s.wall.Now(),
		Utilization: utilization(s.wall.ComputeSec(), s.wall.IdleSec()),
		CacheHits:   rep.CacheHits,
		BuildsSaved: rep.BuildsSaved,
	})
}
