package core

import (
	"fmt"
	"math"
	"time"

	"wayfinder/internal/configspace"
	"wayfinder/internal/corpus"
	"wayfinder/internal/fault"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/stats"
	"wayfinder/internal/vm"
)

// Options configures one search session.
type Options struct {
	// Iterations is the iteration budget (0 = unbounded; TimeBudgetSec
	// must then be set).
	Iterations int
	// TimeBudgetSec is the virtual-time budget in seconds (0 = unbounded).
	TimeBudgetSec float64
	// Seed drives measurement noise and evaluation-time jitter.
	Seed uint64
	// WarmStart evaluates the space default first, anchoring the session
	// (off by default: the paper kickstarts every search with a random
	// configuration).
	WarmStart bool
	// Workers is the number of concurrent evaluators (§3.1's parallel
	// worker VMs; 0 or 1 = one evaluator). W > 1 evaluates W
	// configurations concurrently per round, with per-worker virtual
	// clocks merged into a wall-clock (max over workers) and deterministic
	// per-worker noise streams, so a session is reproducible for a fixed
	// (Seed, Workers) pair.
	Workers int
	// Async lifts the round barrier: the scheduler's virtual event queue,
	// ordered by (finish-time, worker-index), refills each worker the
	// moment its previous evaluation completes, so one slow build no
	// longer stalls the whole pool. Dispatch order is a pure function of
	// virtual finish times, never goroutine scheduling, so sessions stay
	// byte-reproducible for a fixed (Seed, Workers, Staleness) triple.
	// Only meaningful with Workers > 1 and a non-zero Staleness.
	Async bool
	// Staleness bounds the asynchrony: a proposal may be drawn only while
	// at most Staleness already-dispatched evaluations remain unobserved,
	// so no proposal conditions on a history more than Staleness
	// evaluations behind the frontier. 0 is the round barrier (every
	// proposal batch sees a fully-observed history); negative (or
	// ≥ Workers-1) means unbounded — full asynchrony. Ignored unless Async
	// is set.
	Staleness int
	// WorkerSpeedFactors models heterogeneous worker hardware: the virtual
	// duration of every task (build, boot, benchmark) on worker i is
	// multiplied by WorkerSpeedFactors[i]. 1 (or a missing entry) is
	// nominal speed; 4 models a four-times-slower straggler. The factor
	// scales durations only — noise streams draw identically — so
	// sessions remain deterministic.
	WorkerSpeedFactors []float64
	// Hosts partitions the workers into that many simulated hosts (0 or 1
	// = a single host). Workers on one host share an artifact-store
	// partition; an image cached on another host costs an extra
	// Model.TransferSeconds to fetch. Placement is HostOf, a pure function
	// of (worker, Workers, Hosts), so sessions stay byte-reproducible per
	// (Seed, Workers, Staleness, Hosts).
	Hosts int
	// DisableCache turns the shared content-addressed artifact store off,
	// restoring the historical behavior where each worker only ever reuses
	// its own previously-built image. With Hosts ≤ 1 this reproduces
	// pre-cache reports byte-for-byte.
	DisableCache bool
	// CacheCapacity bounds each host's artifact-store partition (the
	// per-host image-cache disk budget, in artifacts); beyond it the
	// least-recently-used artifact is evicted. 0 or below = unbounded.
	CacheCapacity int
	// Faults is the deterministic fault schedule injected into the session
	// (nil = fault-free, today's behavior exactly). Host-down events lose
	// the host's artifacts and kill its in-flight evaluations; preemptions
	// kill one worker's evaluation; build/boot injections fail a specific
	// (iteration, attempt). Killed or injected-failed evaluations are
	// retried under the schedule's RetryPolicy — on another host when the
	// original is down — and the session stays a pure function of (Seed,
	// Workers, Staleness, Hosts, Faults, Dispatch).
	Faults *fault.Schedule
	// Dispatch selects the worker-placement policy: "" or "static" keeps
	// the historical i-mod-W placement; "locality" routes an evaluation to
	// a live worker whose host already holds the image artifact (falling
	// back to static), recovering most of the cross-host transfer cost.
	Dispatch string
	// SurrogateWindow bounds a learned searcher's surrogate to a sliding
	// window of the most recent observations (0 = unbounded history, the
	// historical behavior). With a window, per-decision cost stops growing
	// with session length: the GP downdates the oldest observation out of
	// its factor in O(n²) instead of refitting, and DeepTune retrains over
	// the window only. Requires a searcher implementing search.Windowed
	// (bayesian, deeptune); minimum 8 — smaller windows leave the
	// surrogate nothing to learn from.
	SurrogateWindow int
	// Corpus is the transfer corpus the session draws warm starts from
	// and deposits its outcome into on completion (nil = no tuning
	// memory, the historical behavior). Never serialized: snapshots
	// capture the resolved warm-start seeds instead, so a resumed session
	// replays the exact query answer rather than re-asking a corpus that
	// may have grown since.
	Corpus *corpus.Store `json:"-"`
	// WarmStartK asks the corpus for up to K seed configurations to
	// evaluate before the searcher's own proposals (plus a DTM weight
	// restore when both the corpus entry and the searcher are DeepTune).
	// 0 disables warm starting — the session still deposits on
	// completion. Requires Corpus. An empty corpus resolves to zero seeds
	// and leaves the session byte-identical to one with no corpus at all.
	WarmStartK int
}

// Validate rejects option combinations that would otherwise run a
// silently-misconfigured session. It is the single validation authority:
// Engine.NewSession calls it (and therefore every wayfinder.New session,
// the wfd daemon's and wfctl's through JobSpec.NewSession among them), and
// wfbench probes it directly, so a library caller gets the same errors the
// CLI surfaces instead of a quietly clamped or reinterpreted session.
func (o *Options) Validate() error {
	if o.Iterations <= 0 && o.TimeBudgetSec <= 0 {
		return fmt.Errorf("core: no budget given (iterations or virtual time)")
	}
	if o.Iterations < 0 {
		return fmt.Errorf("core: negative iteration budget %d", o.Iterations)
	}
	if o.TimeBudgetSec < 0 {
		return fmt.Errorf("core: negative time budget %g", o.TimeBudgetSec)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative worker count %d", o.Workers)
	}
	if o.Staleness != 0 && !o.Async {
		return fmt.Errorf("core: Staleness only applies to the async scheduler; set Async")
	}
	if o.Hosts < 0 {
		return fmt.Errorf("core: negative host count %d", o.Hosts)
	}
	if o.Hosts > o.effWorkers() {
		return fmt.Errorf("core: %d hosts exceed %d workers: a host without workers contributes nothing",
			o.Hosts, o.effWorkers())
	}
	if o.DisableCache && o.Hosts > 1 {
		return fmt.Errorf("core: Hosts only shapes artifact-cache locality, which DisableCache disables")
	}
	for i, f := range o.WorkerSpeedFactors {
		if f < 0 {
			return fmt.Errorf("core: negative speed factor %g for worker %d", f, i)
		}
	}
	if o.SurrogateWindow != 0 && o.SurrogateWindow < 8 {
		return fmt.Errorf("core: surrogate window %d is too small for a surrogate to learn from (minimum 8; 0 disables)",
			o.SurrogateWindow)
	}
	if o.WarmStartK < 0 {
		return fmt.Errorf("core: negative warm-start count %d", o.WarmStartK)
	}
	switch o.Dispatch {
	case "", DispatchStatic:
	case DispatchLocality:
		if o.DisableCache {
			return fmt.Errorf("core: locality dispatch routes builds by artifact-store contents, which DisableCache disables")
		}
	default:
		return fmt.Errorf("core: unknown dispatch policy %q (want %q or %q)", o.Dispatch, DispatchStatic, DispatchLocality)
	}
	if err := o.Faults.Validate(o.effHosts(), o.effWorkers()); err != nil {
		return fmt.Errorf("core: fault schedule: %w", err)
	}
	return nil
}

// Dispatch policy names (Options.Dispatch).
const (
	// DispatchStatic is the historical placement: iteration i prefers
	// worker i mod W (staleness 0) or the first idle worker (bounded
	// staleness).
	DispatchStatic = "static"
	// DispatchLocality prefers a live worker already holding the image —
	// its own disk first, then a worker whose host store has the digest —
	// falling back to static placement.
	DispatchLocality = "locality"
)

// effWorkers returns the effective worker count (sequential = 1).
func (o *Options) effWorkers() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// effHosts returns the effective host count, clamped to [1, workers]: a
// host with no workers contributes nothing to a session.
func (o *Options) effHosts() int {
	h := o.Hosts
	if h < 1 {
		h = 1
	}
	if w := o.effWorkers(); h > w {
		h = w
	}
	return h
}

// HostOf returns the host index worker w runs on: workers are split into
// Hosts contiguous, balanced groups (worker·Hosts/Workers), a pure
// function of (worker, Workers, Hosts) so fleet placement never depends
// on scheduling.
func (o *Options) HostOf(worker int) int {
	return worker * o.effHosts() / o.effWorkers()
}

// workerSpeed returns worker i's virtual-duration multiplier (1 = nominal).
func (o *Options) workerSpeed(i int) float64 {
	if i < len(o.WorkerSpeedFactors) && o.WorkerSpeedFactors[i] > 0 {
		return o.WorkerSpeedFactors[i]
	}
	return 1
}

// StragglerFleet returns WorkerSpeedFactors for a fleet of nominal workers
// with the last one slowed by the given factor — the canonical straggler
// scenario the wfctl -straggler knob and the straggler experiment share.
func StragglerFleet(workers int, slow float64) []float64 {
	factors := make([]float64, workers)
	for i := range factors {
		factors[i] = 1
	}
	if workers > 0 {
		factors[workers-1] = slow
	}
	return factors
}

// Result is one evaluated configuration.
type Result struct {
	// Iteration is the 0-based iteration index.
	Iteration int `json:"iteration"`
	// Config is the evaluated configuration (not serialized directly —
	// ConfigKV is its round-trippable form).
	Config *configspace.Config `json:"-"`
	// ConfigString is the compact non-default rendering (lossy: a display
	// string, not a parseable assignment).
	ConfigString string `json:"config"`
	// ConfigKV is the canonical non-default assignment as a name→value
	// map — the round-trippable serialization of Config. A live result
	// leaves it nil, and reports and snapshots write config_kv straight
	// from Config; a result decoded from a snapshot carries the map it
	// was read from, and a non-nil map is written as it is.
	// Space.FromKV inverts it.
	ConfigKV map[string]string `json:"config_kv"`
	// Metric is the measured value; 0 when Crashed.
	Metric float64 `json:"metric"`
	// Crashed reports a build/boot/run failure.
	Crashed bool `json:"crashed"`
	// Stage is the failing stage ("ok" otherwise).
	Stage string `json:"stage"`
	// Reason is the failure reason, if any.
	Reason string `json:"reason,omitempty"`
	// BuildSkipped reports the §3.1 optimization: the previous image was
	// reused because only runtime/boot parameters changed.
	BuildSkipped bool `json:"build_skipped"`
	// CacheHit reports that the build was satisfied from the shared
	// artifact store (or by waiting on another worker's in-flight build of
	// the same image) instead of compiling.
	CacheHit bool `json:"cache_hit,omitempty"`
	// CacheRemote reports a CacheHit served from another host's store
	// partition, paying the cross-host transfer term.
	CacheRemote bool `json:"cache_remote,omitempty"`
	// StartSec/EndSec are virtual timestamps on the evaluating worker's
	// clock.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// Worker is the evaluating worker's index.
	Worker int `json:"worker"`
	// Host is the simulated host the evaluating worker belongs to.
	Host int `json:"host"`
	// DecisionCost is the real time the searcher spent deciding. It is
	// host time, so it lives in memory only: no report, snapshot, event
	// or journal serializes it. It stays for the decision-cost figure
	// (Fig 8) and for benchmark harnesses that sum a live report's costs.
	DecisionCost time.Duration `json:"-"`
	// Retries is the number of prior faulted attempts this observation
	// survived (0 in fault-free sessions — the field stays absent, keeping
	// empty-schedule reports byte-identical to historical ones).
	Retries int `json:"retries,omitempty"`

	// artifactKey is the image digest the build stage resolved; ticket the
	// in-flight-build registration (builders only); buildEndSec the
	// virtual time the worker held a usable image. The coordinator uses
	// them to publish artifacts in canonical observation order.
	artifactKey uint64
	ticket      *buildTicket
	buildEndSec float64
}

// Report summarizes a session.
type Report struct {
	// Searcher names the strategy.
	Searcher string `json:"searcher"`
	// Metric and Unit describe the objective.
	Metric string `json:"metric"`
	Unit   string `json:"unit"`
	// Maximize is the optimization direction.
	Maximize bool `json:"maximize"`
	// History lists every iteration in order.
	History []Result `json:"history"`
	// Best is the best non-crashed result (nil if every run crashed).
	Best *Result `json:"best,omitempty"`
	// BestTimeSec is the virtual time at which Best finished — Table 2's
	// "avg. time to find".
	BestTimeSec float64 `json:"best_time_sec"`
	// Crashes is the total crash count.
	Crashes int `json:"crashes"`
	// ElapsedSec is the session's virtual wall-clock duration: with
	// parallel workers, the maximum over per-worker clocks.
	ElapsedSec float64 `json:"elapsed_sec"`
	// ComputeSec is the aggregate virtual compute time summed over
	// workers — the cost-accounting figure.
	ComputeSec float64 `json:"compute_sec"`
	// IdleSec is the aggregate virtual idle time summed over workers: the
	// wall-clock wasted waiting (round barriers behind a straggler, retry
	// backoffs, the end-of-session drain) rather than evaluating.
	IdleSec float64 `json:"idle_sec"`
	// Utilization is ComputeSec / (ComputeSec + IdleSec) — the fraction of
	// worker-time spent evaluating.
	Utilization float64 `json:"utilization"`
	// Workers is the worker count the session ran with.
	Workers int `json:"workers"`
	// Async reports whether the session ran with a staleness bound above
	// 0 (Workers > 1, Async, and Staleness ≠ 0 in its options).
	Async bool `json:"async,omitempty"`
	// Staleness is the effective staleness bound of an async session: the
	// maximum number of unobserved in-flight evaluations a proposal may
	// lag behind (at most Workers-1, the one-evaluation-per-worker cap).
	Staleness int `json:"staleness,omitempty"`
	// Hosts is the fleet size the session ran with (1 = single host).
	Hosts int `json:"hosts"`
	// Builds counts actual image builds (vs skipped or cache-served).
	Builds int `json:"builds"`
	// CacheHits counts builds served by the shared artifact store (local
	// and cross-host fetches, plus waits on another worker's in-flight
	// build). Always 0 when the store is disabled.
	CacheHits int `json:"cache_hits"`
	// CacheMisses counts full builds the store could not prevent (the
	// image digest was nowhere in the fleet). Always 0 when disabled.
	CacheMisses int `json:"cache_misses"`
	// CacheRemoteHits is the subset of CacheHits served from another
	// host's store partition, paying the cross-host transfer term.
	CacheRemoteHits int `json:"cache_remote_hits"`
	// BuildsSaved counts every avoided image build: §3.1 same-worker skips
	// plus CacheHits.
	BuildsSaved int `json:"builds_saved"`
	// Retries counts re-dispatches of faulted evaluations (each retry
	// attempt, not each retried iteration). 0 — and absent — in fault-free
	// sessions.
	Retries int `json:"retries,omitempty"`
	// LostObservations counts evaluations still awaiting a retry when the
	// session ended — iterations the fault schedule cost the report. The
	// elasticity acceptance criterion is that this stays 0.
	LostObservations int `json:"lost_observations,omitempty"`
	// HostDowntimeSec sums, over hosts, the virtual time spent down within
	// the session span — the independent variable wall-clock degradation
	// is measured against.
	HostDowntimeSec float64 `json:"host_downtime_sec,omitempty"`
	// TransferSavedSec estimates the cross-host transfer seconds locality
	// dispatch avoided versus static placement (accumulated at placement
	// time; 0 under static dispatch).
	TransferSavedSec float64 `json:"transfer_saved_sec,omitempty"`
	// CorpusHash is the content hash of the transfer corpus the session
	// warm-started from — part of the determinism contract: a session is
	// byte-reproducible per (seed, workers, staleness, hosts, schedule,
	// corpus hash). Absent when the session resolved nothing from a
	// corpus (no corpus, empty corpus, or WarmStartK 0), keeping those
	// reports byte-identical to historical ones.
	CorpusHash string `json:"corpus_hash,omitempty"`
	// CorpusSeeds is the number of corpus seed configurations the session
	// evaluated before its searcher's own proposals. Absent when 0.
	CorpusSeeds int `json:"corpus_seeds,omitempty"`
}

// HostStats is one host's slice of a report — the per-host build/fetch
// breakdown the fleet and locality experiments print.
type HostStats struct {
	Host       int     `json:"host"`
	Evals      int     `json:"evals"`
	Builds     int     `json:"builds"`      // full builds charged on this host
	CacheHits  int     `json:"cache_hits"`  // store-served builds (local + remote)
	RemoteHits int     `json:"remote_hits"` // subset fetched from another host
	BuildSkips int     `json:"build_skips"` // §3.1 same-worker reuses
	Crashes    int     `json:"crashes"`
	ComputeSec float64 `json:"compute_sec"` // end−start summed over the host's evals
}

// HostBreakdown aggregates the report history per host. The slice is
// indexed by host (length Hosts).
func (r *Report) HostBreakdown() []HostStats {
	hosts := r.Hosts
	if hosts < 1 {
		hosts = 1
	}
	out := make([]HostStats, hosts)
	for h := range out {
		out[h].Host = h
	}
	for i := range r.History {
		res := &r.History[i]
		if res.Host < 0 || res.Host >= hosts {
			continue
		}
		hs := &out[res.Host]
		hs.Evals++
		switch {
		case res.CacheHit:
			hs.CacheHits++
			if res.CacheRemote {
				hs.RemoteHits++
			}
		case res.BuildSkipped:
			hs.BuildSkips++
		default:
			hs.Builds++
		}
		if res.Crashed {
			hs.Crashes++
		}
		if d := res.EndSec - res.StartSec; d > 0 {
			hs.ComputeSec += d
		}
	}
	return out
}

// utilization is the shared ComputeSec/(ComputeSec+IdleSec) helper.
func utilization(computeSec, idleSec float64) float64 {
	if computeSec+idleSec <= 0 {
		return 0
	}
	return computeSec / (computeSec + idleSec)
}

// CrashRate returns the overall crash fraction.
func (r *Report) CrashRate() float64 {
	if len(r.History) == 0 {
		return 0
	}
	return float64(r.Crashes) / float64(len(r.History))
}

// CrashRateSeries returns the trailing-window crash rate per iteration
// (the dashed curves of Fig 6).
func (r *Report) CrashRateSeries(window int) []float64 {
	events := make([]bool, len(r.History))
	for i, h := range r.History {
		events[i] = h.Crashed
	}
	return stats.MovingRate(events, window)
}

// BestSoFarSeries returns, per iteration, the best metric value observed
// up to and including it (crashes carry the previous best forward).
// Iterations before the first non-crashed observation hold NaN: there is
// no best yet, and emitting 0.0 would chart leading crashes as a best of
// zero — wrong for maximize metrics and catastrophically wrong for
// minimize ones.
func (r *Report) BestSoFarSeries() []float64 {
	out := make([]float64, len(r.History))
	have := false
	best := math.NaN()
	for i, h := range r.History {
		if !h.Crashed {
			if !have || (r.Maximize && h.Metric > best) || (!r.Maximize && h.Metric < best) {
				best, have = h.Metric, true
			}
		}
		out[i] = best
	}
	return out
}

// SmoothedMetricSeries returns the EWMA-smoothed per-iteration metric, with
// crashes holding the previous smoothed value (how the paper's Fig 6
// renders noisy sessions).
func (r *Report) SmoothedMetricSeries(alpha float64) []float64 {
	out := make([]float64, len(r.History))
	var cur float64
	started := false
	for i, h := range r.History {
		if h.Crashed {
			out[i] = cur
			continue
		}
		if !started {
			cur, started = h.Metric, true
		} else {
			cur = alpha*h.Metric + (1-alpha)*cur
		}
		out[i] = cur
	}
	return out
}

// MarshalJSON serializes the report with every result's canonical
// config_kv assignment filled in, so a parsed report (or snapshot) can
// reconstruct the exact configurations via Space.FromKV instead of being
// left with the lossy display string. A report carries no host time, so
// these are the bytes the golden hashes, the snapshot/resume suites and
// the daemon's crash-restart guarantee compare.
func (r *Report) MarshalJSON() ([]byte, error) {
	return encodeScratch(func(dst []byte) ([]byte, error) { return r.appendJSON(dst) })
}

// noiseSalt decorrelates the engine's measurement-noise stream from other
// consumers of the session seed.
const noiseSalt = 0xe7617e

// Engine runs search sessions against a simulated OS model.
type Engine struct {
	Model    *simos.Model
	App      *simos.App
	Metric   Metric
	Searcher search.Searcher
	Clock    *vm.Clock

	// enc encodes the configurations a finished session deposits into
	// the transfer corpus; searchers that learn encode their own.
	enc  *configspace.Encoder
	seed uint64
}

// NewEngine assembles an engine. The clock may be shared across engines
// to model sequential experiments.
func NewEngine(model *simos.Model, app *simos.App, metric Metric, s search.Searcher, clock *vm.Clock, seed uint64) *Engine {
	return &Engine{
		Model:    model,
		App:      app,
		Metric:   metric,
		Searcher: s,
		Clock:    clock,
		enc:      configspace.NewEncoder(model.Space),
		seed:     seed,
	}
}

// evalState is the state one evaluator (worker) threads through its
// evaluations: its virtual clock, its private noise stream, the stage
// digests of the image on its disk and the instance it is running (what
// the §3.1 skip optimizations key off), its build count, and its speed
// factor. Each worker owns one exclusively, so evaluations on distinct
// workers never share mutable state.
type evalState struct {
	worker int
	host   int
	clock  *vm.Clock
	// wall is the session wall-clock; the build stage stalls against it
	// while waiting on another worker's in-flight build, so the wait is
	// charged as idle time. Stall touches only this worker's slice of the
	// wall-clock, so concurrent evaluations stay race-free.
	wall  *vm.WallClock
	noise *rng.RNG
	speed float64 // virtual-duration multiplier; 0 reads as nominal 1

	imageKey  uint64 // CompileKey of the image on the worker's disk
	haveImage bool
	bootKey   uint64 // BootKey of the currently-running instance
	haveBoot  bool
	builds    int
}

// advance charges a virtual duration to the worker's clock, scaled by its
// speed factor. The scaling happens after every noise draw, so slow and
// nominal workers consume their streams identically.
func (st *evalState) advance(seconds float64) {
	if st.speed > 0 {
		seconds *= st.speed
	}
	st.clock.Advance(seconds)
}

// jitter draws one multiplicative noise sample for a stage duration.
// Every build-stage outcome (build, fetch, await) draws exactly once, so
// a worker's stream position after any evaluation is independent of how
// its builds were satisfied.
func (st *evalState) jitter(base, frac float64) float64 {
	return base * (1 + frac*(st.noise.Float64()-0.5))
}

// evaluate — the staged Build → Boot → Measure pipeline the scheduler
// runs every configuration through — lives in pipeline.go, together with
// the coordinator-side build planning that consults the shared artifact
// store. The scheduler itself is the Session state machine: session.go
// holds the stepwise loop, async.go the dispatch and completion rules.
