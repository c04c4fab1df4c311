// Session fault runtime: the machinery that turns a fault.Schedule into
// deterministic scheduler behavior. Three mechanisms, all coordinator-side
// and all pure functions of the session inputs:
//
//   - The fault cursor (advanceFaults) applies host up/down events as the
//     scheduler's decision time passes them: a host going down loses its
//     artifact-store partition, its in-flight build registrations, and its
//     workers' on-disk image/boot digests, and stops accepting dispatches
//     until the matching up event.
//   - Kill resolution (resolveFaults) settles a just-executed dispatch
//     batch against the schedule after the batch joins: an evaluation
//     overlapping a preemption of its worker or a down of its host is
//     killed at the fault instant — its virtual work past the kill point
//     is refunded (clock rollback), its side effects on the worker are
//     unwound, and its observation is lost-then-retried under the
//     schedule's RetryPolicy (with deterministic virtual-time backoff,
//     and on another host when the original is down, since placement only
//     considers live workers). Injected build/boot failures follow the
//     same retry path without a rollback — the failed attempt's time was
//     genuinely spent. An iteration that exhausts its attempt budget is
//     recorded as a crash at the synthetic "fault" stage.
//   - The retry queue holds lost iterations (ascending iteration order)
//     until their backoff deadline; the scheduler drains it ahead of
//     fresh proposals. Retries keep their iteration index, so the report
//     history still covers every proposed iteration exactly once unless
//     the budget ends first (Report.LostObservations counts that).
//
// Worker noise streams are deliberately NOT rewound on a kill: a retried
// attempt draws fresh jitter, exactly as a re-run build would, and the
// stream position stays a pure function of the dispatch sequence.
//
// Event ordering guarantee: HostStateChanged, FaultInjected, and
// RetryScheduled are emitted at dispatch/resolve boundaries — between
// per-observation event groups, never inside one — in schedule-cursor
// order (host events) and dispatch order (kills, injections, retries).
package core

import (
	"sort"

	"wayfinder/internal/artifact"
	"wayfinder/internal/configspace"
	"wayfinder/internal/fault"
	"wayfinder/internal/simos"
)

// faultStageName is the synthetic Result.Stage of an evaluation killed by
// the fault schedule after exhausting its retry budget.
const faultStageName = "fault"

// injectedReason marks a crash produced by a scheduled build/boot
// injection (vs the model's organic crash outcome).
const injectedReason = "injected fault"

// retryItem is one lost observation awaiting re-dispatch.
type retryItem struct {
	iter      int
	cfg       *configspace.Config
	attempt   int     // failed attempts so far (≥ 1)
	notBefore float64 // virtual backoff deadline
}

// faultsActive reports whether the session has a non-empty schedule.
func (s *Session) faultsActive() bool { return !s.opts.Faults.Empty() }

// advanceFaults applies every schedule event up to the scheduler's
// current decision time, in stable (AtSec, index) order. Host-down events
// take effect here — artifact loss, registration loss, digest loss — so
// their consequences are visible to the very next planning pass.
func (s *Session) advanceFaults(now float64) {
	if !s.faultsActive() {
		return
	}
	sched := s.opts.Faults
	for ; s.faultCur < len(sched.Events); s.faultCur++ {
		ev := sched.At(s.faultCur)
		if ev.AtSec > now {
			break
		}
		switch ev.Kind {
		case fault.HostDown:
			s.applyHostDown(ev.Host)
			s.emit(HostStateChanged{Host: ev.Host, Up: false, AtSec: ev.AtSec})
		case fault.HostUp:
			s.emit(HostStateChanged{Host: ev.Host, Up: true, AtSec: ev.AtSec})
		}
	}
}

// applyHostDown is the state loss of one host-down event: the host's
// store partition empties, its in-flight build registrations vanish (a
// future planner must rebuild, not await a dead build), and its workers
// lose their on-disk image and running instance.
func (s *Session) applyHostDown(host int) {
	if c := s.cache; c != nil && c.store != nil {
		c.store.ClearHost(host)
		keys := make([]uint64, 0, len(c.building))
		for k, t := range c.building {
			if t.host == host {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			delete(c.building, k)
		}
	}
	for _, st := range s.workers {
		if st.host == host {
			st.imageKey, st.haveImage = 0, false
			st.bootKey, st.haveBoot = 0, false
		}
	}
}

// workerLive reports whether worker i's host is up at virtual time t.
func (s *Session) workerLive(i int, t float64) bool {
	if !s.faultsActive() {
		return true
	}
	return s.opts.Faults.HostUpAt(s.workers[i].host, t)
}

// liveWorkers returns the indices of workers whose host is up at t,
// ascending.
func (s *Session) liveWorkers(t float64) []int {
	live := make([]int, 0, len(s.workers))
	for i := range s.workers {
		if s.workerLive(i, t) {
			live = append(live, i)
		}
	}
	return live
}

// nextRevival returns the earliest time after t at which any host that is
// down at t comes back up, and false when every downed host stays down
// for good.
func (s *Session) nextRevival(t float64) (float64, bool) {
	sched := s.opts.Faults
	best, ok := 0.0, false
	for h := 0; h < s.opts.effHosts(); h++ {
		if sched.HostUpAt(h, t) {
			continue
		}
		if at, up := sched.NextUpAt(h, t); up && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// queueRetry enqueues a lost iteration for re-dispatch after its backoff
// deadline, keeping the queue in ascending iteration order.
func (s *Session) queueRetry(iter int, cfg *configspace.Config, failures int, notBefore float64) {
	it := &retryItem{iter: iter, cfg: cfg, attempt: failures, notBefore: notBefore}
	pos := len(s.retries)
	for i, r := range s.retries {
		if r.iter > iter {
			pos = i
			break
		}
	}
	s.retries = append(s.retries, nil)
	copy(s.retries[pos+1:], s.retries[pos:])
	s.retries[pos] = it
	s.emit(RetryScheduled{Iter: iter, Attempt: failures + 1, NotBeforeSec: notBefore})
}

// takeReadyRetries removes and returns up to max retries whose backoff
// deadline has passed, in ascending iteration order.
func (s *Session) takeReadyRetries(now float64, max int) []*retryItem {
	if len(s.retries) == 0 || max <= 0 {
		return nil
	}
	var ready []*retryItem
	rest := s.retries[:0]
	for _, r := range s.retries {
		if len(ready) < max && r.notBefore <= now {
			ready = append(ready, r)
		} else {
			rest = append(rest, r)
		}
	}
	for i := len(rest); i < len(s.retries); i++ {
		s.retries[i] = nil
	}
	s.retries = rest
	return ready
}

// earliestRetry returns the soonest backoff deadline in the retry queue.
func (s *Session) earliestRetry() (float64, bool) {
	ok := false
	best := 0.0
	for _, r := range s.retries {
		if !ok || r.notBefore < best {
			best, ok = r.notBefore, true
		}
	}
	return best, ok
}

// injectFor maps the schedule's injection for (iter, attempt) — attempt is
// 1-based — onto the pipeline's stage enum (StageOK = no injection).
func (s *Session) injectFor(iter, attempt int) simos.Stage {
	if !s.faultsActive() {
		return simos.StageOK
	}
	kind, ok := s.opts.Faults.Inject(iter, attempt)
	if !ok {
		return simos.StageOK
	}
	if kind == fault.BootFail {
		return simos.StageBoot
	}
	return simos.StageBuild
}

// placeSlot picks the worker for one dispatch slot. avail is the
// availability mask (live/idle and not yet taken this dispatch); the
// static preference is the cyclic scan from iter mod W when preferMod is
// set (the staleness-0 barrier) or the lowest available index otherwise.
// Under locality dispatch the slot instead prefers an available worker
// already holding the image — its own disk first, then a worker whose
// host store has the digest — falling back to the static choice, and
// accounts the transfer cost the move avoided. Returns -1 when no worker
// is available.
func (s *Session) placeSlot(avail []bool, iter int, cfg *configspace.Config, preferMod bool) int {
	w := len(s.workers)
	start := 0
	if preferMod {
		start = iter % w
	}
	static := -1
	for j := 0; j < w; j++ {
		c := (start + j) % w
		if avail[c] {
			static = c
			break
		}
	}
	if s.opts.Dispatch != DispatchLocality || static < 0 {
		return static
	}
	var store = s.cacheStore()
	key := cfg.CompileKey()
	chosen := -1
	for j := 0; j < w && chosen < 0; j++ {
		c := (start + j) % w
		if avail[c] && s.workers[c].haveImage && s.workers[c].imageKey == key {
			chosen = c
		}
	}
	if chosen < 0 && store != nil {
		for j := 0; j < w && chosen < 0; j++ {
			c := (start + j) % w
			if avail[c] && store.Contains(s.workers[c].host, key) {
				chosen = c
			}
		}
	}
	if chosen < 0 {
		return static
	}
	if chosen != static && store != nil {
		// The static choice would have paid a cross-host transfer exactly
		// when it could not satisfy the digest locally (no disk reuse, no
		// host-store copy) while some other host's store held it.
		ss := s.workers[static]
		staticRemote := !(ss.haveImage && ss.imageKey == key) &&
			!store.Contains(ss.host, key) && s.storeHasAnywhere(key)
		cs := s.workers[chosen]
		chosenLocal := (cs.haveImage && cs.imageKey == key) || store.Contains(cs.host, key)
		if staticRemote && chosenLocal {
			s.report.TransferSavedSec += s.eng.Model.TransferSeconds
		}
	}
	return chosen
}

// cacheStore returns the session's artifact store (nil when disabled).
func (s *Session) cacheStore() *artifact.Store {
	if s.cache == nil {
		return nil
	}
	return s.cache.store
}

// storeHasAnywhere reports whether any host partition holds the digest.
func (s *Session) storeHasAnywhere(key uint64) bool {
	store := s.cacheStore()
	if store == nil {
		return false
	}
	for h := 0; h < store.Hosts(); h++ {
		if store.Contains(h, key) {
			return true
		}
	}
	return false
}

// killInfo records a builder killed before its build completed, so
// same-batch awaiters of its ticket cascade.
type killInfo struct {
	at   float64
	kind fault.Kind
}

// resolveFaults settles a just-executed dispatch batch against the
// schedule: evaluations overlapping a kill are unwound and
// lost-then-retried (or recorded as fault crashes once their attempt
// budget is gone), injected stage failures are retried the same way, and
// everything else survives to observation. Called by the scheduler
// immediately after runBatch joins, in dispatch order — builders precede
// their same-batch awaiters by planBuild construction, so a single pass
// cascades correctly. Returns the surviving evaluations in dispatch
// order. With an empty schedule this is the identity.
func (s *Session) resolveFaults(evals []*batchEval) []*batchEval {
	if !s.faultsActive() {
		return evals
	}
	sched := s.opts.Faults
	var killedTickets map[*buildTicket]killInfo
	kept := make([]*batchEval, 0, len(evals))
	for _, ev := range evals {
		res := &ev.res
		kind, killAt, killed := sched.KillBetween(ev.st.worker, ev.st.host, res.StartSec, res.EndSec)
		// Cascade: an awaiter that fetched from a builder killed before
		// the build completed lost its artifact retroactively.
		if t := ev.plan.ticket; t != nil && res.CacheHit &&
			(ev.plan.action == buildAwait || ev.plan.action == buildAwaitRemote) {
			if info, ok := killedTickets[t]; ok {
				at := info.at
				if res.StartSec > at {
					at = res.StartSec
				}
				if !killed || at < killAt {
					kind, killAt, killed = info.kind, at, true
				}
			}
		}
		if killed {
			if t := ev.plan.ticket; t != nil && ev.plan.action == buildFull &&
				!(res.buildEndSec > 0 && killAt >= res.buildEndSec) {
				if killedTickets == nil {
					killedTickets = map[*buildTicket]killInfo{}
				}
				killedTickets[t] = killInfo{at: killAt, kind: kind}
			}
			if s.killEval(ev, kind, killAt) {
				kept = append(kept, ev)
			}
			continue
		}
		if res.Crashed && res.Reason == injectedReason {
			failures := ev.attempt + 1
			s.emit(FaultInjected{Kind: injectKind(res.Stage), Iter: ev.iter, Attempt: failures,
				Worker: ev.st.worker, Host: ev.st.host, AtSec: res.EndSec})
			if failures < sched.Retry.Max() {
				s.queueRetry(ev.iter, ev.cfg, failures, res.EndSec+sched.Retry.Backoff(failures))
				continue
			}
		}
		res.Retries = ev.attempt
		kept = append(kept, ev)
	}
	return kept
}

// injectKind maps a crash stage name back to the schedule kind that
// injected it (for the FaultInjected event).
func injectKind(stage string) fault.Kind {
	if stage == simos.StageBoot.String() {
		return fault.BootFail
	}
	return fault.BuildFail
}

// killEval unwinds one killed evaluation: the worker's clock (and stall
// accounting) rolls back to the kill instant, refunding the virtual work
// past it; an interrupted build's side effects — the worker's new image
// digest, its build counter, the in-flight registration — are undone; the
// running instance is always lost. A build the kill arrived after keeps
// its image (the artifact was genuinely produced; only the evaluation's
// observation is lost). Reports true when the iteration's attempt budget
// is exhausted and the evaluation must be recorded as a fault crash.
func (s *Session) killEval(ev *batchEval, kind fault.Kind, killAt float64) bool {
	res, st := &ev.res, ev.st
	buildDone := res.buildEndSec > 0 && killAt >= res.buildEndSec
	if !buildDone {
		if t := ev.plan.ticket; t != nil && ev.plan.action == buildFull {
			t.ok, t.resolved = false, true
			if c := s.cache; c != nil && c.building[res.artifactKey] == t {
				delete(c.building, res.artifactKey)
			}
		}
		st.imageKey, st.haveImage = ev.preImageKey, ev.preHaveImage
		st.builds = ev.preBuilds
		res.buildEndSec = 0
		res.CacheHit, res.CacheRemote, res.BuildSkipped = false, false, false
	}
	st.bootKey, st.haveBoot = 0, false
	// The only in-evaluation stall is the await at build-stage start; roll
	// the stall accounting back to the portion that elapsed before the
	// kill, then pin the clock to the kill instant.
	evStall := st.wall.WorkerStallSec(st.worker) - ev.preStall
	if inEval := killAt - res.StartSec; evStall > inEval {
		evStall = inEval
	}
	st.wall.RestoreWorker(st.worker, killAt, ev.preStall+evStall)
	failures := ev.attempt + 1
	s.emit(FaultInjected{Kind: kind, Iter: ev.iter, Attempt: failures,
		Worker: st.worker, Host: st.host, AtSec: killAt})
	pol := s.opts.Faults.Retry
	if failures < pol.Max() {
		s.queueRetry(ev.iter, ev.cfg, failures, killAt+pol.Backoff(failures))
		return false
	}
	res.Crashed = true
	res.Stage = faultStageName
	res.Reason = string(kind)
	res.Metric = 0
	res.EndSec = killAt
	res.Retries = ev.attempt
	return true
}
