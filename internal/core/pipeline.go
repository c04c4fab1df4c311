// Staged evaluation pipeline: the scheduler runs every configuration
// through the same three explicit stages (Build → Boot → Measure). The build stage is where the §3.1 image reuse
// generalizes from "my previous image" to a fleet-wide content-addressed
// cache:
//
//   - reuse:  the worker's own image already matches the configuration's
//     CompileKey — the historical skip, free.
//   - fetch:  the digest is in the worker's host store partition — pay
//     Model.CacheFetchSeconds instead of a build.
//   - fetch (remote): another host holds it — add Model.TransferSeconds.
//   - await:  another worker is building it right now — stall (idle time)
//     until that build's virtual completion, then fetch.
//   - build:  nobody has it — pay Model.BuildSeconds and publish it.
//
// Determinism discipline: the shared store and the in-flight registry are
// touched only by the coordinator — plans are made before dispatch (in
// dispatch order) and artifacts published at observation (in observation
// order) — so cache outcomes are a pure function of (Seed, Workers,
// Staleness, Hosts) and never of goroutine scheduling. Worker goroutines
// see only their private evalState plus an immutable plan; awaiters read
// their builder's ticket strictly after the scheduler joins the builder's
// wave (a WaitGroup happens-before edge).
package core

import (
	"sync"

	"wayfinder/internal/artifact"
	"wayfinder/internal/configspace"
	"wayfinder/internal/simos"
)

// buildAction is how an evaluation's build stage will be satisfied.
type buildAction int

const (
	// buildFull compiles the image from scratch.
	buildFull buildAction = iota
	// buildReuse uses the image already on the worker's disk (§3.1 skip).
	buildReuse
	// buildFetch copies the image out of the worker's host store.
	buildFetch
	// buildFetchRemote pulls it from another host's store (adds the
	// cross-host transfer term).
	buildFetchRemote
	// buildAwait waits for another worker's in-flight build of the same
	// digest on this host, then fetches it.
	buildAwait
	// buildAwaitRemote waits for an in-flight build on another host.
	buildAwaitRemote
)

// buildTicket tracks one in-flight build of an image digest so that
// concurrently-dispatched duplicates dedupe onto the builder instead of
// re-building. The builder's goroutine resolves it; every reader is
// ordered after that by a scheduler join.
type buildTicket struct {
	host     int
	endSec   float64 // virtual completion time of the build stage
	ok       bool    // the build produced an artifact (no build crash)
	resolved bool
}

// evalPlan is the coordinator's build decision for one evaluation.
type evalPlan struct {
	action buildAction
	key    uint64       // the configuration's CompileKey
	ticket *buildTicket // registration (buildFull) or await target
	// inject is a scheduled fault injection for this dispatch (StageOK =
	// none): the evaluation crashes at that stage with injectedReason,
	// unless the model's organic outcome fails at an earlier stage.
	inject simos.Stage
}

// sessionCache is the per-Run artifact-cache state: the content-addressed
// store shared by the session's hosts and the in-flight build registry.
// store is nil when Options.DisableCache restores the historical
// per-worker-only reuse.
type sessionCache struct {
	store    *artifact.Store
	building map[uint64]*buildTicket
}

// newSessionCache builds the session's cache state from the options.
func newSessionCache(opts Options) *sessionCache {
	if opts.DisableCache {
		return &sessionCache{}
	}
	return &sessionCache{
		store:    artifact.NewStore(opts.effHosts(), opts.CacheCapacity),
		building: map[uint64]*buildTicket{},
	}
}

// planBuild decides how the evaluation's build stage will be satisfied.
// Coordinator-only: it consults worker-private state between dispatches
// and mutates store recency and the in-flight registry in dispatch order.
func (s *Session) planBuild(cfg *configspace.Config, st *evalState) evalPlan {
	key := cfg.CompileKey()
	if st.haveImage && st.imageKey == key {
		return evalPlan{action: buildReuse, key: key}
	}
	c := s.cache
	if c == nil || c.store == nil {
		return evalPlan{action: buildFull, key: key}
	}
	if _, loc := c.store.Lookup(st.host, key); loc != artifact.Miss {
		if loc == artifact.LocalHit {
			return evalPlan{action: buildFetch, key: key}
		}
		return evalPlan{action: buildFetchRemote, key: key}
	}
	if t := c.building[key]; t != nil && (!t.resolved || t.ok) {
		if t.host == st.host {
			return evalPlan{action: buildAwait, key: key, ticket: t}
		}
		return evalPlan{action: buildAwaitRemote, key: key, ticket: t}
	}
	// Nobody has it and nobody is building it: this evaluation becomes the
	// digest's builder (replacing any registration whose build crashed).
	t := &buildTicket{host: st.host}
	c.building[key] = t
	return evalPlan{action: buildFull, key: key, ticket: t}
}

// evaluate runs one configuration through the staged pipeline against the
// worker state and returns the result. Measurement itself (Metric.Measure)
// is the caller's job: the engine defers it so sessions measure in
// canonical observation order, keeping stateful metrics
// deterministic.
func (e *Engine) evaluate(iter int, cfg *configspace.Config, st *evalState, plan evalPlan) Result {
	res := Result{
		Iteration:    iter,
		Config:       cfg,
		ConfigString: cfg.String(),
		Stage:        "ok",
		StartSec:     st.clock.Now(),
		Worker:       st.worker,
		Host:         st.host,
		artifactKey:  plan.key,
		ticket:       plan.ticket,
	}
	stage, reason := e.Model.CrashOutcome(cfg)
	if plan.inject != simos.StageOK && (stage == simos.StageOK || plan.inject < stage) {
		// A scheduled transient failure for this (iteration, attempt):
		// the earlier failing stage wins, so an organic build crash
		// preempts an injected boot failure, never the reverse.
		stage, reason = plan.inject, injectedReason
	}
	if !e.stageBuild(&res, st, plan, stage, reason) {
		return res
	}
	if !e.stageBoot(&res, cfg, st, stage, reason) {
		return res
	}
	e.stageMeasure(&res, st, stage, reason)
	return res
}

// crashOut finalizes a result at the failing stage.
func crashOut(res *Result, st *evalState, stage simos.Stage, reason string) bool {
	res.Crashed, res.Stage, res.Reason = true, stage.String(), reason
	res.EndSec = st.clock.Now()
	return false
}

// chargeFetch charges materializing a cached artifact onto the worker: a
// copy out of the host's store, plus the cross-host transfer when the
// artifact lives on another host.
func (e *Engine) chargeFetch(st *evalState, remote bool) {
	cost := e.Model.CacheFetchSeconds
	if remote {
		cost += e.Model.TransferSeconds
	}
	st.advance(st.jitter(cost, 0.3))
}

// stageBuild charges the build stage per the plan and reports whether the
// pipeline continues (false = build-stage crash). On success the worker
// holds a usable image for the configuration's CompileKey; on a crash the
// worker keeps whatever image and instance it had, exactly as before.
func (e *Engine) stageBuild(res *Result, st *evalState, plan evalPlan, stage simos.Stage, reason string) bool {
	switch plan.action {
	case buildReuse:
		res.BuildSkipped = true
		if stage == simos.StageBuild {
			// The image is reused, but the hidden build outcome is meant to
			// key off compile parameters only, so a skipped build cannot
			// fail. Guard anyway.
			return crashOut(res, st, stage, reason)
		}

	case buildFetch, buildFetchRemote:
		remote := plan.action == buildFetchRemote
		e.chargeFetch(st, remote)
		res.CacheHit, res.CacheRemote = true, remote
		if stage == simos.StageBuild {
			return crashOut(res, st, stage, reason) // same guard as reuse
		}

	case buildAwait, buildAwaitRemote:
		// Wait for the builder's virtual completion. The gap is
		// scheduler-imposed idle time, not compute; Stall touches only
		// this worker's wall-clock slice, so concurrent awaiters race on
		// nothing.
		t := plan.ticket
		st.wall.Stall(st.worker, t.endSec)
		if t.ok {
			remote := plan.action == buildAwaitRemote
			e.chargeFetch(st, remote)
			res.CacheHit, res.CacheRemote = true, remote
		} else {
			// The build this evaluation was deduped onto crashed: fall
			// back to building the image itself.
			st.advance(st.jitter(e.Model.BuildSeconds, 0.3))
			st.builds++
		}
		if stage == simos.StageBuild {
			return crashOut(res, st, stage, reason)
		}

	default: // buildFull
		st.advance(st.jitter(e.Model.BuildSeconds, 0.3))
		st.builds++
		if t := plan.ticket; t != nil {
			t.endSec = st.clock.Now()
			t.ok = stage != simos.StageBuild
			t.resolved = true
		}
		if stage == simos.StageBuild {
			return crashOut(res, st, stage, reason)
		}
	}
	res.buildEndSec = st.clock.Now()
	st.imageKey, st.haveImage = plan.key, true
	if plan.action != buildReuse {
		st.haveBoot = false // a new image must boot
	}
	return true
}

// stageBoot charges the boot stage: a reboot unless the running instance's
// BootKey already matches (then the runtime deltas are applied live — a
// few seconds of sysctl writes).
func (e *Engine) stageBoot(res *Result, cfg *configspace.Config, st *evalState, stage simos.Stage, reason string) bool {
	key := cfg.BootKey()
	if !st.haveBoot || st.bootKey != key {
		st.advance(st.jitter(e.Model.BootSeconds, 0.3))
	} else {
		st.advance(st.jitter(2, 0.5))
	}
	if stage == simos.StageBoot {
		st.haveBoot = false
		return crashOut(res, st, stage, reason)
	}
	st.bootKey, st.haveBoot = key, true
	return true
}

// stageMeasure charges the benchmark run (the §3.1 test task). The metric
// value itself is sampled by the scheduler afterwards, in canonical
// observation order.
func (e *Engine) stageMeasure(res *Result, st *evalState, stage simos.Stage, reason string) {
	benchTime := e.App.BenchSeconds
	if _, isMem := e.Metric.(MemoryMetric); isMem {
		benchTime = 6 // footprint measurement needs no load generation
	}
	if stage == simos.StageRun {
		// Crashes surface partway through the benchmark.
		st.advance(st.jitter(benchTime*0.4, 0.5))
		st.haveBoot = false // crashed instance must be replaced
		crashOut(res, st, stage, reason)
		return
	}
	st.advance(st.jitter(benchTime, 0.25))
	res.EndSec = st.clock.Now()
}

// commitArtifact settles an observed evaluation against the cache: it
// tallies the report's cache counters, clears the in-flight registration,
// and publishes the worker's image to the shared store. Coordinator-only,
// called from record in observation order.
func (s *Session) commitArtifact(report *Report, res *Result) {
	if res.BuildSkipped {
		report.BuildsSaved++
	}
	c := s.cache
	if c == nil || c.store == nil || res.Config == nil {
		return
	}
	if res.Crashed && res.Stage == faultStageName && res.buildEndSec == 0 { //wfvet:ignore floateq 0 is killEval's build-never-finished sentinel, never a computed time
		// A fault kill interrupted the build (or fetch) and exhausted the
		// iteration's retries: nothing was produced, and killEval already
		// unwound the worker digests and any in-flight registration.
		return
	}
	if res.CacheHit {
		report.CacheHits++
		report.BuildsSaved++
		if res.CacheRemote {
			report.CacheRemoteHits++
		}
	} else if !res.BuildSkipped {
		report.CacheMisses++
	}
	if res.ticket != nil && c.building[res.artifactKey] == res.ticket {
		delete(c.building, res.artifactKey)
	}
	if res.Crashed && res.Stage == simos.StageBuild.String() {
		return // no artifact came out of this evaluation
	}
	c.store.Put(artifact.Artifact{
		Key:      res.artifactKey,
		Host:     res.Host,
		Builder:  res.Worker,
		ReadySec: res.buildEndSec,
	})
}

// batchEval is one planned evaluation of a dispatch batch.
type batchEval struct {
	iter int
	cfg  *configspace.Config
	st   *evalState
	plan evalPlan
	res  Result

	// attempt is how many times this iteration already failed to a fault
	// (0 for a first dispatch); resolveFaults reads it to decide between
	// retry and giving up.
	attempt int
	// Pre-dispatch worker state, captured by the scheduler immediately
	// before runBatch so killEval can unwind an interrupted build. Only
	// meaningful until resolveFaults settles the batch — pending
	// (post-resolve) evaluations never need it, so none of this
	// serializes.
	preImageKey  uint64
	preHaveImage bool
	preBuilds    int
	preStall     float64
}

// runBatch executes a dispatch batch concurrently in two waves: first
// every evaluation that depends on nothing (builds, reuses, store
// fetches), then the awaiters, which read their builder's resolved ticket.
// The intermediate join is the happens-before edge that makes the ticket
// handoff race-free; virtual time needs no such care (tickets carry it).
// Await chains are depth one by construction — an awaiter never builds
// unless its builder crashed, and then only from its own resources — so
// two waves always suffice.
func (e *Engine) runBatch(evals []*batchEval) {
	var wg sync.WaitGroup
	run := func(ev *batchEval) {
		defer wg.Done()
		ev.res = e.evaluate(ev.iter, ev.cfg, ev.st, ev.plan)
	}
	var awaiters []*batchEval
	for _, ev := range evals {
		if ev.plan.action == buildAwait || ev.plan.action == buildAwaitRemote {
			awaiters = append(awaiters, ev)
			continue
		}
		wg.Add(1)
		go run(ev)
	}
	wg.Wait()
	for _, ev := range awaiters {
		wg.Add(1)
		go run(ev)
	}
	wg.Wait()
}
