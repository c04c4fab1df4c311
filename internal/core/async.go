// The session scheduler: the §3.1 platform evaluates configurations on
// many worker VMs concurrently. This file implements that as one
// event-driven scheduler over the simulated substrate: a virtual event
// queue hands the next proposal to a worker the moment its previous
// evaluation completes, so one straggling build does not stall the pool.
// A sequential session is this scheduler with one worker; a round-barrier
// session is it with staleness bound 0.
//
// Determinism is the design constraint: a session must be reproducible
// for a fixed (Seed, Workers, Staleness) triple regardless of goroutine
// scheduling. Four rules make that hold:
//
//  1. Private worker state — each worker owns its clock (merged by
//     vm.WallClock), its rng stream (rng.WorkerSeed derivation; worker 0
//     draws from the session seed itself), its speed factor, and its §3.1
//     skip digests. The shared artifact store is consulted by the
//     coordinator only, at planning time (pipeline.go); worker goroutines
//     touch nothing shared.
//  2. Virtual-time dispatch — placement and completion order are pure
//     functions of virtual time with worker index as the tie-break, never
//     of goroutine scheduling. The coordinator pops exactly one
//     completion event per step, measures it on the evaluating worker's
//     noise stream, and Observes it. Proposals come from the
//     search.BatchSearcher pending-set protocol (Grid, Bayesian, and
//     DeepTune batch natively — Bayesian via constant-liar fantasized
//     observations, DeepTune via diversity-penalized pool ranking — and
//     the AsBatch adapter wraps the rest), so later slots of a batch
//     condition on earlier picks.
//  3. Bounded staleness — Options.Staleness caps how many unobserved
//     in-flight evaluations may exist when a proposal batch is drawn, so
//     no proposal conditions on a history more than S evaluations behind
//     the frontier. S ≥ W-1 (or negative) is full asynchrony, since one
//     evaluation per worker bounds in-flight work at W anyway.
//  4. The barrier — with bound 0 (every session that is not Async with
//     W > 1 and S ≠ 0) three rules make each batch a synchronous round:
//     nothing is dispatched, retries included, while any evaluation is in
//     flight; after a batch every worker stalls to the batch's slowest
//     evaluation (charged as idle time) and, with W > 1, RoundBarrier is
//     emitted; completions are popped in iteration order, not completion
//     order. Iteration i prefers worker i mod W, so which configurations
//     share a worker's noise stream, clock, and caches is a pure function
//     of the iteration index.
//
// The report's history is ordered by observation — virtual completion
// time under a staleness bound, iteration order under the barrier — the
// order the searcher actually observed. The scheduler's state (in-flight
// table, busy count, frontier, exhaustion) is Session data, which is what
// makes a session interruptible and serializable between observations:
// in-flight evaluations are finished virtual work awaiting observation,
// and snapshot as such.
//
// Host-side concurrency note: evaluations within one dispatch batch run
// on goroutines, but in the unbounded steady state a batch refills a
// single worker, so the host executes the session nearly serially — a
// consequence of the data dependency (each refill's proposal conditions
// on the observation that freed the worker), not of the implementation.
// Evaluation here is microseconds of host time; the concurrency being
// scheduled is virtual. The goroutines exist for protocol fidelity (the
// race detector patrols the worker-state handoff), not host speedup.
package core

import (
	"wayfinder/internal/configspace"
)

// dispatchSlot is one slot of a dispatch batch: a fresh proposal or the
// re-dispatch of a fault-lost iteration.
type dispatchSlot struct {
	iter    int
	attempt int
	cfg     *configspace.Config
}

// stepAsync refills idle workers (staleness bound permitting), pops the
// next completion event, and records it. Under a fault schedule a
// dispatch may produce no in-flight work (everything killed, or the
// session waiting out a backoff or a host outage with an advanced
// frontier); the loop re-dispatches until an event exists or the
// dispatcher reports no way to make progress.
func (s *Session) stepAsync() bool {
	for {
		progressed := s.dispatchAsync()
		if s.busy > 0 {
			break
		}
		if !progressed {
			return false
		}
	}
	// Pop the next completion event: the lowest iteration under the
	// barrier, otherwise the minimum virtual finish time with the lowest
	// worker index on ties. Strict < keeps the first (lowest index)
	// candidate on equal keys.
	sel := -1
	for i, ev := range s.inflight {
		if ev == nil {
			continue
		}
		if sel < 0 || (s.staleBound == 0 && ev.iter < s.inflight[sel].iter) ||
			(s.staleBound > 0 && ev.res.EndSec < s.inflight[sel].res.EndSec) {
			sel = i
		}
	}
	ev := s.inflight[sel]
	s.inflight[sel] = nil
	s.busy--
	res := ev.res
	if res.EndSec > s.frontier {
		s.frontier = res.EndSec
	}
	if !res.Crashed {
		// The worker is quiescent between completion and observation, so
		// its noise stream sits exactly past this evaluation's stage
		// jitters.
		res.Metric = s.eng.Metric.Measure(s.eng.Model, s.eng.App, ev.cfg, s.workers[sel].noise)
	}
	s.record(res)
	return true
}

// dispatchAsync refills every idle worker that still has budget, provided
// the staleness bound admits a new proposal batch: drawing now means each
// proposal lags exactly `busy` unobserved evaluations. Workers evaluate
// concurrently (their state is private), and the coordinator joins them
// before touching any clock or result.
//
// frontier is the virtual time of the latest observation — the moment the
// current dispatch decision became possible. A refilled worker whose
// clock lags it (it sat out waiting for the staleness bound) stalls
// forward to the frontier, so no evaluation starts before the observation
// that admitted it and the wait is charged as idle time.
// It reports whether it made progress — dispatched work, or advanced the
// frontier over dead air (a backoff deadline or a host outage with no
// event to pop) — so stepAsync knows when the session truly cannot move.
func (s *Session) dispatchAsync() bool {
	e, o := s.eng, &s.opts
	barrier := s.staleBound == 0
	if barrier && s.busy > 0 {
		return false
	}
	s.advanceFaults(s.frontier)
	w := len(s.workers)
	idle := make([]int, 0, w)
	for i, ev := range s.inflight {
		if ev != nil {
			continue
		}
		// A refilled worker starts no earlier than max(own clock,
		// frontier) — the budget and liveness checks use that effective
		// start, so a worker whose host is down at dispatch time is
		// simply not refilled (its proposals are never burned).
		start := s.workers[i].clock.Now()
		if start < s.frontier {
			start = s.frontier
		}
		if !s.workerLive(i, start) {
			continue
		}
		if o.TimeBudgetSec > 0 && start >= o.TimeBudgetSec {
			continue
		}
		idle = append(idle, i)
	}
	// Ready retries dispatch first; they are re-dispatches of proposals
	// the searcher already conditioned on, so the staleness bound does not
	// gate them.
	slots := make([]dispatchSlot, 0, len(idle))
	for _, r := range s.takeReadyRetries(s.frontier, len(idle)) {
		slots = append(slots, dispatchSlot{iter: r.iter, attempt: r.attempt, cfg: r.cfg})
		s.report.Retries++
	}
	if fresh := len(idle) - len(slots); fresh > 0 && !s.exhausted && s.busy <= s.staleBound {
		n := fresh
		if o.Iterations > 0 && o.Iterations-s.next < n {
			n = o.Iterations - s.next
		}
		if n > 0 {
			cfgs := make([]*configspace.Config, 0, n)
			if o.WarmStart && s.next == 0 {
				cfgs = append(cfgs, e.Model.Space.Default())
			}
			// Corpus warm-start seeds dispatch ahead of the searcher's own
			// proposals, exactly like the WarmStart default.
			for len(s.seeds) > 0 && len(cfgs) < n {
				cfgs, s.seeds = append(cfgs, s.seeds[0]), s.seeds[1:]
			}
			if want := n - len(cfgs); want > 0 {
				cfgs = append(cfgs, s.batcher.ProposeBatch(want)...)
			}
			if len(cfgs) == 0 {
				// The strategy produced nothing at all; never re-ask.
				s.exhausted = true
			}
			for _, cfg := range cfgs {
				slots = append(slots, dispatchSlot{iter: s.next, cfg: cfg})
				s.next++
			}
		}
	}
	if len(slots) == 0 {
		if s.busy > 0 {
			return false // an event is pending; popping it advances the frontier
		}
		return s.idleForward()
	}
	// Plan builds in dispatch order (coordinator-only store access,
	// pipeline.go), then execute the batch. An in-flight build from an
	// earlier dispatch is already resolved — its goroutines joined before
	// this dispatch — so an awaiter planned here reads a settled ticket;
	// same-batch duplicates run in runBatch's second wave. Placement draws
	// from the idle live workers (iteration mod W under the barrier, the
	// lowest index otherwise; the locality policy may reorder to chase
	// image digests).
	avail := make([]bool, w)
	for _, i := range idle {
		avail[i] = true
	}
	batch := make([]*batchEval, 0, len(slots))
	for _, sl := range slots {
		wi := s.placeSlot(avail, sl.iter, sl.cfg, barrier)
		if wi < 0 {
			break
		}
		avail[wi] = false
		s.wall.Stall(wi, s.frontier)
		st := s.workers[wi]
		plan := s.planBuild(sl.cfg, st)
		plan.inject = s.injectFor(sl.iter, sl.attempt+1)
		batch = append(batch, &batchEval{iter: sl.iter, cfg: sl.cfg, st: st, plan: plan,
			attempt: sl.attempt, preImageKey: st.imageKey, preHaveImage: st.haveImage,
			preBuilds: st.builds, preStall: s.wall.WorkerStallSec(wi)})
	}
	e.runBatch(batch)
	for _, ev := range s.resolveFaults(batch) {
		s.inflight[ev.st.worker] = ev
		s.busy++
	}
	if barrier {
		// Every worker waits for the batch's slowest evaluation (killed
		// evaluations were already rolled back to their kill instant), so
		// the next batch starts causally after all of this one and the
		// wait shows up in ElapsedSec/IdleSec.
		roundMax := s.wall.Now()
		s.stallAll(roundMax)
		if w > 1 {
			s.round++
			s.emit(RoundBarrier{Round: s.round, Size: len(batch), WallSec: roundMax})
		}
	}
	return true
}

// idleForward handles a dispatch that found nothing to run and nothing in
// flight: it jumps the frontier to the next instant at which something
// may become dispatchable — a backoff deadline or a host revival — and
// reports false when there is none or the budget is spent. The barrier
// waits as a synchronous round does: for the next revival while the whole
// fleet is down, otherwise for the earliest backoff deadline, with every
// worker idling forward to it.
func (s *Session) idleForward() bool {
	if b := s.opts.TimeBudgetSec; b > 0 && s.frontier >= b {
		return false
	}
	retryAt, retry := s.earliestRetry()
	upAt, up := s.nextRevival(s.frontier)
	barrier := s.staleBound == 0
	if barrier {
		live := len(s.liveWorkers(s.frontier)) > 0
		retry, up = retry && live, up && !live
	}
	target, ok := 0.0, false
	if retry && retryAt > s.frontier {
		target, ok = retryAt, true
	}
	if up && upAt > s.frontier && (!ok || upAt < target) {
		target, ok = upAt, true
	}
	if !ok {
		return false
	}
	if barrier {
		s.stallAll(target)
	} else {
		s.frontier = target
	}
	return true
}

// stallAll idles every worker forward to t, which becomes the frontier.
func (s *Session) stallAll(t float64) {
	for i := range s.workers {
		s.wall.Stall(i, t)
	}
	s.frontier = t
}
