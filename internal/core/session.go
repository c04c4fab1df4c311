// Stepwise session state machine: one specialization session as a
// first-class Session object that advances by exactly one recorded
// observation per step. That single primitive is what the public API's
// whole v2 lifecycle is built from:
//
//   - Run(ctx) is a step loop with a cancellation check at every
//     observation boundary, so interruption always leaves a consistent
//     prefix-of-the-uninterrupted-run report.
//   - Step(n) advances n observations and returns, letting a caller
//     interleave many sessions over one process (the daemon primitive) or
//     implement custom stopping rules.
//   - Typed events (events.go) are emitted from the one shared record
//     path, in deterministic observation order.
//   - Snapshot/Restore (snapshot.go) serialize the machine's explicit
//     state — worker clocks and RNG streams, cache and in-flight builds,
//     unobserved in-flight evaluations, searcher checkpoints.
//
// Every session steps with the one event-driven scheduler of async.go: a
// sequential session is that scheduler with one worker, a round-barrier
// session is it with staleness bound 0. A session is a pure function of
// (Seed, Workers, Staleness, Hosts) — the golden tests pin Run,
// Step-driven, and snapshot/resume sessions to byte-identical reports.
package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"wayfinder/internal/configspace"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/vm"
)

// Session is one specialization session as an explicit, steppable state
// machine. It is not safe for concurrent use: Step, Run, and Snapshot
// must be called from one goroutine at a time. AddObserver is the
// exception — it may hook in while another goroutine drives Run (Run may
// be driven from its own goroutine while a consumer drains an event
// channel; the channel, not the Session, is the concurrency boundary).
type Session struct {
	eng  *Engine
	opts Options

	report  *Report
	batcher search.BatchSearcher // the searcher's batch-protocol view; every proposal and observation goes through it
	cache   *sessionCache
	// observers is guarded by obsMu so AddObserver (the public Events()
	// hookup) is safe while another goroutine drives Run; the list is
	// copy-on-write and emit iterates a snapshot.
	obsMu     sync.Mutex
	observers []func(Event)

	base    float64
	wall    *vm.WallClock
	workers []*evalState

	next     int // next iteration index to propose/dispatch
	observed int // observations recorded so far
	// done is atomic so the public layer's Done()/Events() may read it
	// while another goroutine drives Run; everything else on the stepping
	// path remains single-driver.
	done   atomic.Bool
	folded float64 // wall-clock advance already folded onto the engine clock

	// Scheduler state (async.go).
	staleBound int
	round      int          // completed staleness-0 barriers (RoundBarrier.Round)
	inflight   []*batchEval // per worker; nil = idle
	busy       int          // dispatched-but-unobserved evaluations
	exhausted  bool         // the strategy stopped producing
	frontier   float64      // virtual time of the latest observation

	// Fault runtime state (fault.go): lost observations awaiting
	// re-dispatch (ascending iteration order) and the schedule-timeline
	// cursor of already-applied host events.
	retries  []*retryItem
	faultCur int

	// Corpus warm-start state (corpus.go): seed configurations resolved
	// at construction (or restored from a snapshot), consumed ahead of
	// searcher proposals; whether corpus weights warm-started the
	// DeepTune searcher; and whether the lazy warm-start event fired.
	seeds           []*configspace.Config
	warmDTM         bool
	corpusAnnounced bool
}

// NewSession validates the options and assembles a session in its initial
// state. Nothing is proposed or evaluated until the first step.
func (e *Engine) NewSession(opts Options) (*Session, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := e.applySurrogateWindow(opts); err != nil {
		return nil, err
	}
	s := e.newSession(opts)
	if err := s.resolveCorpus(); err != nil {
		return nil, err
	}
	return s, nil
}

// applySurrogateWindow pushes Options.SurrogateWindow onto the engine's
// searcher. It runs during session assembly — and, on restore, before the
// searcher checkpoint is restored, so the restored surrogate keeps sliding
// its window exactly as the live session did.
func (e *Engine) applySurrogateWindow(opts Options) error {
	if opts.SurrogateWindow == 0 {
		return nil
	}
	w, ok := e.Searcher.(search.Windowed)
	if !ok {
		return fmt.Errorf("core: SurrogateWindow set, but searcher %q has no learned surrogate to bound",
			e.Searcher.Name())
	}
	return w.SetSurrogateWindow(opts.SurrogateWindow)
}

// newSession assembles a session in its initial state: a wall clock over
// the worker clocks and a private noise stream per worker. Only a session
// with more than one worker, Async set, and a non-zero Staleness runs
// with a staleness bound above 0; every other session steps with the
// barrier rules (async.go).
func (e *Engine) newSession(opts Options) *Session {
	w := opts.effWorkers()
	bound := 0
	if w > 1 && opts.Async && opts.Staleness != 0 {
		bound = opts.Staleness
		if bound < 0 || bound > w-1 {
			bound = w - 1
		}
	}
	now := e.Clock.Now()
	s := &Session{
		eng:   e,
		opts:  opts,
		cache: newSessionCache(opts),
		base:  now,
		report: &Report{
			Searcher:  e.Searcher.Name(),
			Metric:    e.Metric.Name(),
			Unit:      e.Metric.Unit(),
			Maximize:  e.Metric.Maximize(),
			Workers:   w,
			Hosts:     opts.effHosts(),
			Async:     bound > 0,
			Staleness: bound,
		},
		wall:       vm.NewWallClock(w, now),
		workers:    make([]*evalState, w),
		batcher:    search.AsBatch(e.Searcher),
		staleBound: bound,
		inflight:   make([]*batchEval, w),
		frontier:   now,
	}
	for i := range s.workers {
		s.workers[i] = &evalState{
			worker: i,
			host:   opts.HostOf(i),
			clock:  s.wall.Worker(i),
			wall:   s.wall,
			noise:  rng.New(rng.WorkerSeed(e.seed, i) ^ noiseSalt),
			speed:  opts.workerSpeed(i),
		}
	}
	return s
}

// Done reports whether the session has exhausted its budget (or its
// strategy): further steps record nothing.
func (s *Session) Done() bool { return s.done.Load() }

// Observed returns the number of observations recorded so far.
func (s *Session) Observed() int { return s.observed }

// Options returns the options the session runs with.
func (s *Session) Options() Options { return s.opts }

// Report returns the session's report, finalized to the current position:
// aggregates (elapsed/compute/idle/utilization/builds) are recomputed so a
// partially-run session yields a valid report. The returned report is live
// — it keeps growing as the session advances.
func (s *Session) Report() *Report {
	s.finalize()
	return s.report
}

// Step advances the session by up to n observations (exactly n unless the
// budget or strategy is exhausted first) and returns how many were
// recorded. The report is finalized on return, so interleaved callers
// always observe a valid partial report.
func (s *Session) Step(n int) int {
	advanced := 0
	for advanced < n && !s.done.Load() {
		if !s.stepOnce() {
			s.markDone()
			break
		}
		advanced++
	}
	s.finalize()
	return advanced
}

// Run drives the session to completion, honoring context cancellation and
// deadline at every observation boundary. On interruption it returns the
// context's error together with a valid partial report — the exact
// observation-prefix of what the uninterrupted run would have produced —
// and the session remains resumable (further Step or Run calls continue
// it).
func (s *Session) Run(ctx context.Context) (*Report, error) {
	for !s.done.Load() {
		if err := ctx.Err(); err != nil {
			s.finalize()
			return s.report, err
		}
		if !s.stepOnce() {
			s.markDone()
		}
	}
	s.finalize()
	return s.report, nil
}

// stepOnce advances the scheduler by exactly one recorded observation,
// reporting false when the session is exhausted.
func (s *Session) stepOnce() bool {
	if s.done.Load() {
		return false
	}
	s.announceCorpus()
	return s.stepAsync()
}

// markDone transitions the session to its terminal state and notifies
// observers once.
func (s *Session) markDone() {
	if s.done.Load() {
		return
	}
	s.done.Store(true)
	s.finalize()
	s.depositCorpus()
	s.emit(SessionDone{Report: s.report})
}

// record publishes the evaluation's image to the shared artifact store
// (commitArtifact — in observation order, so store state is a pure
// function of the observation sequence), reports the observation back
// through the batch view (so pending-set bookkeeping sees it and decision
// costs are read with batch semantics), stamps the decision cost on the
// result, appends it to the report, maintains best/crash accounting, and
// emits the observation's events. The cost is stamped first, so the
// history entry and the best result carry the same one.
func (s *Session) record(res Result) {
	e, report := s.eng, s.report
	s.commitArtifact(report, &res)
	s.batcher.Observe(search.Observation{
		Config:  res.Config,
		Metric:  res.Metric,
		Crashed: res.Crashed,
		Stage:   res.Stage,
	})
	res.DecisionCost = s.batcher.DecisionCost()
	report.History = append(report.History, res)
	var prevBest *Result
	improved := false
	if res.Crashed {
		report.Crashes++
	} else if report.Best == nil ||
		(report.Maximize && res.Metric > report.Best.Metric) ||
		(!report.Maximize && res.Metric < report.Best.Metric) {
		prevBest = report.Best
		best := res
		report.Best = &best
		report.BestTimeSec = res.EndSec
		improved = true
	}
	// Grid adopts improvements as its sweep base.
	if g, ok := e.Searcher.(*search.Grid); ok && report.Best != nil && report.Best.Config != nil {
		g.AdoptBase(report.Best.Config)
	}
	s.observed++
	s.emitObservation(report.History[len(report.History)-1], improved, prevBest)
}

// finalize recomputes the report's aggregate fields for the session's
// current position. It is idempotent, so partial reports are always valid,
// and folds any new wall-clock advance onto the engine clock exactly once,
// keeping engines that share a clock (sequential experiment chains)
// consistent.
func (s *Session) finalize() {
	rep := s.report
	rep.ElapsedSec = s.wall.Now()
	rep.ComputeSec = s.wall.ComputeSec()
	rep.IdleSec = s.wall.IdleSec()
	rep.Utilization = utilization(rep.ComputeSec, rep.IdleSec)
	if adv := s.wall.Now() - s.base - s.folded; adv > 0 {
		s.eng.Clock.Advance(adv)
		s.folded += adv
	}
	rep.Builds = 0
	for _, st := range s.workers {
		rep.Builds += st.builds
	}
	if s.faultsActive() {
		rep.HostDowntimeSec = 0
		for h := 0; h < s.opts.effHosts(); h++ {
			rep.HostDowntimeSec += s.opts.Faults.Downtime(h, s.base, rep.ElapsedSec)
		}
		if s.done.Load() {
			// Retries still queued when the session ends are observations
			// the budget (or a permanent outage) swallowed.
			rep.LostObservations = len(s.retries)
		}
	}
}

// SetBudget replaces the session's budget — the one option a resumed (or
// finished) session may legitimately change, to continue longer or stop
// earlier. A session completed under the old budget becomes steppable
// again when the new budget allows more observations.
func (s *Session) SetBudget(iterations int, timeBudgetSec float64) error {
	o := s.opts
	o.Iterations, o.TimeBudgetSec = iterations, timeBudgetSec
	if err := o.Validate(); err != nil {
		return err
	}
	s.opts = o
	s.done.Store(false)
	return nil
}

// Usage is the session's cumulative quantum accounting: the two axes a
// multiplexing daemon charges a tenant for — observations recorded and
// aggregate virtual compute seconds consumed across the session's
// workers. Both are virtual, so the charge is deterministic. A daemon
// reads Usage before and after a Step quantum and charges the tenant the
// difference.
type Usage struct {
	// Observations is the number of recorded observations (== Observed()).
	Observations int `json:"observations"`
	// ComputeSec is the aggregate virtual compute time over all workers.
	ComputeSec float64 `json:"compute_sec"`
}

// Sub returns the usage delta u − prev: what one quantum consumed, given
// the accounting read before it.
func (u Usage) Sub(prev Usage) Usage {
	return Usage{
		Observations: u.Observations - prev.Observations,
		ComputeSec:   u.ComputeSec - prev.ComputeSec,
	}
}

// Usage returns the session's cumulative quantum accounting at the current
// position. Like Report, it is valid at any observation boundary; unlike
// the report it is O(1) to read, sized for a per-quantum charging loop.
func (s *Session) Usage() Usage {
	s.finalize()
	return Usage{
		Observations: s.observed,
		ComputeSec:   s.report.ComputeSec,
	}
}

// checkpointable returns the checkpoint interface of the session's batch
// view — the searcher itself, or the adapter that wraps the searcher's
// checkpoint with its pending set — or an error naming the strategy when
// the searcher does not support one.
func (s *Session) checkpointable() (search.Checkpointable, error) {
	ck, ok := s.batcher.(search.Checkpointable)
	if _, inner := s.eng.Searcher.(search.Checkpointable); !ok || !inner {
		return nil, fmt.Errorf("core: searcher %q does not implement search.Checkpointable", s.eng.Searcher.Name())
	}
	return ck, nil
}
