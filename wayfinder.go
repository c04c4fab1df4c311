// Package wayfinder is the public API of the Wayfinder OS-specialization
// framework — a from-scratch Go reproduction of "Wayfinder: Automated
// Operating System Specialization" (EuroSys 2026).
//
// Wayfinder specializes an operating system's configuration (compile-time,
// boot-time, and runtime parameters) for a target application, workload,
// and metric, fully automatically. The framework couples an automated
// benchmarking pipeline (configure → build → boot → benchmark, with
// virtual-time accounting) with pluggable search algorithms, of which
// DeepTune — a multitask neural network predicting configuration
// performance, crash probability, and uncertainty — is the paper's
// contribution.
//
// # Quick start
//
// The one-liner: build a session and run it to completion.
//
//	model := wayfinder.NewLinuxModel()                  // simulated kernel
//	model.Space.Favor(wayfinder.CompileTime, 0)         // runtime search
//	app := wayfinder.AppNginx()
//	session, err := wayfinder.New(model, app,
//	    wayfinder.WithBudget(250, 0),
//	    wayfinder.WithSeed(7),
//	)
//	report, err := session.Run(context.Background())
//
// The default strategy is DeepTune; WithSearcher selects another, and
// WithMetric another objective (memory footprint, throughput–memory
// score). Run honors the context: on cancellation or deadline it returns
// ctx.Err() together with a valid partial report — the exact observation
// prefix of the uninterrupted run — and the session can be continued
// afterwards.
//
// # Sessions are first-class
//
// A Session is an explicit state machine advanced one observation at a
// time, which is what a multiplexing daemon needs to interleave many
// sessions over one warm fleet, and what custom stopping rules hook into:
//
//	for !session.Done() {
//	    session.Step(1)                       // exactly one observation
//	    if session.Report().CrashRate() > 0.5 {
//	        break                             // custom stopping rule
//	    }
//	}
//
// Typed events stream in deterministic observation order — EvalDone,
// NewBest, CacheEvent, RoundBarrier, Progress, SessionDone — for live
// rendering (wfctl -progress) or fan-out:
//
//	events := session.Events() // subscribe before running
//	go session.Run(ctx)
//	for ev := range events {
//	    if best, ok := ev.(wayfinder.NewBest); ok {
//	        fmt.Println("new best:", best.Result.Metric)
//	    }
//	}
//
// Sessions checkpoint and resume byte-identically — searcher state
// included, via the search package's Checkpointable interface, which
// every built-in searcher implements:
//
//	snap, err := session.Snapshot()           // []byte, JSON
//	...
//	resumed, err := wayfinder.Resume(model, app, snap,
//	    wayfinder.WithSearcher(freshSearcherSameArgs))
//	report, err := resumed.Run(ctx)           // ≡ the uninterrupted run
//
// # Parallel evaluation
//
// Sessions parallelize across simulated worker VMs, as the paper's
// platform does: WithWorkers(W) evaluates W configurations concurrently
// with deterministic per-worker noise streams and per-worker virtual
// clocks merged into a wall-clock. By default each batch is a synchronous
// round; WithAsync(staleness) lifts that barrier, refilling a worker as
// soon as it frees up while at most staleness evaluations are unobserved
// (one slow build no longer stalls the pool). WithHosts(H) splits the
// fleet across hosts sharing per-host artifact-store partitions with a
// cross-host transfer cost:
//
//	session, err := wayfinder.New(model, app,
//	    wayfinder.WithSearcher(searcher),
//	    wayfinder.WithWorkers(8),
//	    wayfinder.WithAsync(-1),              // unbounded asynchrony
//	    wayfinder.WithHosts(4),
//	    wayfinder.WithBudget(250, 0),
//	    wayfinder.WithSeed(7),
//	)
//
// Reproducibility is a platform invariant: reports, event streams, and
// resumed sessions are pure functions of (seed, workers, staleness,
// hosts), never of goroutine scheduling.
//
// The report carries the best configuration found, the full history, and
// the crash-rate/performance series the paper's figures plot. See the
// examples/ directory for runnable end-to-end programs (examples/streaming
// consumes the event stream) and cmd/wfbench for the reproduction of every
// table and figure in the paper's evaluation.
package wayfinder

import (
	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/cozart"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/fault"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// Re-exported configuration-space types.
type (
	// Space is an ordered collection of typed OS configuration parameters.
	Space = configspace.Space
	// Param is one configuration parameter.
	Param = configspace.Param
	// Config is a concrete assignment over a Space (a "permutation").
	Config = configspace.Config
	// Value is a parameter value.
	Value = configspace.Value
	// Job is a parsed YAML job file (§3.1/§3.4).
	Job = configspace.Job
)

// Parameter classes (when in the OS lifecycle a parameter applies).
const (
	CompileTime = configspace.CompileTime
	BootTime    = configspace.BootTime
	Runtime     = configspace.Runtime
)

// Re-exported simulator types.
type (
	// Model is a simulated OS profile (visible space + hidden ground truth).
	Model = simos.Model
	// App is an application workload under test.
	App = simos.App
)

// Re-exported engine types.
type (
	// SessionOptions configures a search session.
	SessionOptions = core.Options
	// Report summarizes a session.
	Report = core.Report
	// EvalResult is one evaluated configuration.
	EvalResult = core.Result
	// Metric maps a configuration evaluation to the optimization target.
	Metric = core.Metric
	// PerfMetric optimizes the application's benchmark metric.
	PerfMetric = core.PerfMetric
	// MemoryMetric minimizes the booted image's footprint.
	MemoryMetric = core.MemoryMetric
	// ScoreMetric co-optimizes throughput and memory (Eq. 4).
	ScoreMetric = core.ScoreMetric
	// ParamImpact is a learned parameter-importance estimate.
	ParamImpact = core.ParamImpact
	// HostStats is one host's per-host report breakdown
	// (Report.HostBreakdown).
	HostStats = core.HostStats
)

// Re-exported fault-injection types (internal/fault): a deterministic,
// serializable schedule of virtual-time fleet faults a session replays
// exactly — same schedule, same seed, same topology → byte-identical
// report.
type (
	// FaultSchedule is a deterministic schedule of virtual-time fleet
	// faults plus the retry policy governing lost observations.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scheduled fault.
	FaultEvent = fault.Event
	// RetryPolicy bounds re-dispatch attempts and paces their backoff.
	RetryPolicy = fault.RetryPolicy
)

// Dispatch policy names for SessionOptions.Dispatch / WithDispatchPolicy.
const (
	// DispatchStatic is the historical static placement (iteration i on
	// worker i mod W in rounds; first idle worker asynchronously).
	DispatchStatic = core.DispatchStatic
	// DispatchLocality prefers placing an evaluation on a worker that
	// already holds its image — its own disk, then its host's store
	// partition — falling back to the static choice.
	DispatchLocality = core.DispatchLocality
)

// ParseFaultSchedule parses the compact fault-schedule DSL shared by the
// CLIs and the daemon spec: comma-separated "down:HOST@SEC",
// "up:HOST@SEC", "preempt:WORKER@SEC", "buildfail:ITER#ATTEMPT",
// "bootfail:ITER#ATTEMPT", and "retry:MAX/BACKOFF/MULT" items. An empty
// string parses to nil (no faults).
func ParseFaultSchedule(src string) (*FaultSchedule, error) { return fault.Parse(src) }

// Searcher decides which configuration to evaluate next (§3.1's pluggable
// search-algorithm API).
type Searcher = search.Searcher

// BatchSearcher is the concurrency-safe batch protocol parallel sessions
// speak; single-proposal searchers are adapted automatically, so custom
// strategies only implement it when they can propose smarter batches.
type BatchSearcher = search.BatchSearcher

// DeepTuneConfig holds the DTM hyperparameters.
type DeepTuneConfig = deeptune.Config

// Clock is the virtual clock evaluation costs are charged to.
type Clock = vm.Clock

// NewLinuxModel returns the simulated Linux kernel profile at the
// experiment scale used throughout the paper's §4.1.
func NewLinuxModel() *Model { return simos.NewLinux(simos.DefaultLinuxOptions()) }

// NewUnikraftModel returns the simulated Unikraft unikernel profile
// (§4.4, Fig 9).
func NewUnikraftModel() *Model { return simos.NewUnikraft(1) }

// NewRiscvModel returns the RISC-V Linux profile used for memory-footprint
// minimization (§4.4, Fig 10).
func NewRiscvModel() *Model { return simos.NewRiscv(simos.DefaultRiscvOptions()) }

// AppNginx returns the Nginx/wrk workload.
func AppNginx() *App { return apps.Nginx() }

// AppRedis returns the Redis/redis-benchmark workload.
func AppRedis() *App { return apps.Redis() }

// AppSQLite returns the SQLite/db_bench workload.
func AppSQLite() *App { return apps.SQLite() }

// AppNPB returns the NAS Parallel Benchmarks workload.
func AppNPB() *App { return apps.NPB() }

// AppByName resolves an application by name ("nginx", "redis", "sqlite",
// "npb").
func AppByName(name string) (*App, error) { return apps.ByName(name) }

// DefaultDeepTuneConfig returns the DTM hyperparameters used in the
// paper's experiments.
func DefaultDeepTuneConfig() DeepTuneConfig { return deeptune.DefaultConfig() }

// NewDeepTuneSearcher returns the DeepTune search strategy (§3.2).
func NewDeepTuneSearcher(space *Space, maximize bool, cfg DeepTuneConfig) *search.DeepTune {
	return search.NewDeepTune(space, maximize, cfg)
}

// NewRandomSearcher returns the random-search baseline.
func NewRandomSearcher(space *Space, seed uint64) *search.Random {
	return search.NewRandom(space, seed)
}

// NewRandomMutateSearcher returns the mutation-based random baseline used
// for compile-time exploration: a Random searcher that re-draws k
// parameters of the space's default per proposal (k = 0 draws uniformly,
// as NewRandomSearcher does).
func NewRandomMutateSearcher(space *Space, k int, seed uint64) *search.Random {
	return search.NewRandomMutate(space, k, seed)
}

// NewGridSearcher returns the grid-search strategy.
func NewGridSearcher(space *Space) *search.Grid { return search.NewGrid(space) }

// NewBayesianSearcher returns the Bayesian-optimization baseline.
func NewBayesianSearcher(space *Space, maximize bool, seed uint64) *search.Bayesian {
	return search.NewBayesian(space, maximize, seed)
}

// NewUnicornSearcher returns the causal-inference comparator (Fig 7).
func NewUnicornSearcher(space *Space, maximize bool, seed uint64) *search.Unicorn {
	return search.NewUnicorn(space, maximize, seed)
}

// ParseJob parses a YAML job file (§3.1, §3.4).
func ParseJob(src string) (*Job, error) { return configspace.ParseJobYAML(src) }

// CozartDebloat applies the Cozart-style compile-time debloater to a
// model: it traces the workload, derives a reduced baseline configuration,
// rebases the space defaults onto it, and returns the baseline (§4.4).
func CozartDebloat(model *Model, app *App, seed uint64) (*Config, error) {
	return cozart.Apply(model, app, seed)
}

// HighImpactParams queries a trained DeepTune searcher for the parameters
// it learned to be most performance-impactful (§4.1).
func HighImpactParams(s *search.DeepTune, model *Model, ref *Config, maximize bool) []ParamImpact {
	return core.HighImpactParams(s.Selector().Model(), s.Selector().Encoder(), model.Space, ref, maximize)
}
