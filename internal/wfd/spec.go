// Job specifications: the declarative description a client submits and
// the daemon journals. A spec is everything needed to (re)construct its
// session deterministically — the crash-restart guarantee rests on a
// session being a pure function of its spec, so specs carry no live
// state; live state travels separately as session snapshots.
package wfd

import (
	"fmt"
	"maps"
	"slices"

	wayfinder "wayfinder"
	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/fault"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
)

// JobSpec declares one tuning job.
type JobSpec struct {
	// Name is a client-chosen label (shown in listings; need not be
	// unique — the daemon assigns the job ID).
	Name string `json:"name,omitempty"`
	// Tenant names the submitting tenant for fair-share scheduling and
	// quota accounting ("default" when empty).
	Tenant string `json:"tenant,omitempty"`
	// OS selects the simulated profile: linux (default), unikraft, or
	// linux-riscv.
	OS string `json:"os,omitempty"`
	// App selects the workload: nginx (default), redis, sqlite, npb.
	App string `json:"app,omitempty"`
	// Metric selects the objective: throughput (default, aliases
	// performance/latency), memory, or score.
	Metric string `json:"metric,omitempty"`
	// Searcher selects the strategy: deeptune (default), random, grid,
	// bayesian, or unicorn. All but unicorn checkpoint, so their jobs
	// resume from journal snapshots; unicorn jobs restart from scratch
	// after a crash (same final bytes, wasted work).
	Searcher string `json:"searcher,omitempty"`
	// Seed is the session seed.
	Seed uint64 `json:"seed"`
	// Iterations is the observation budget. Daemon.Submit requires it
	// (> 0): admission control charges tenants for a job's full budget up
	// front, so unbounded jobs are not admissible. A local session may
	// run on TimeBudgetSec alone.
	Iterations int `json:"iterations"`
	// TimeBudgetSec optionally bounds the session's virtual time too.
	TimeBudgetSec float64 `json:"time_budget_sec,omitempty"`
	// Workers, Async, Staleness, and Hosts configure the session's
	// simulated evaluation fleet exactly as the library options do.
	Workers   int  `json:"workers,omitempty"`
	Async     bool `json:"async,omitempty"`
	Staleness int  `json:"staleness,omitempty"`
	Hosts     int  `json:"hosts,omitempty"`
	// DisableCache turns the session's shared artifact store off.
	DisableCache bool `json:"disable_cache,omitempty"`
	// SurrogateWindow bounds a learned searcher's surrogate to a sliding
	// window of recent observations (min 8; 0 = unbounded); bayesian and
	// deeptune only, exactly as the library option.
	SurrogateWindow int `json:"surrogate_window,omitempty"`
	// FaultSchedule is a fault-injection schedule in the fault DSL
	// (e.g. "down:1@300,up:1@900,retry:3/20/2"); empty means no faults.
	// The schedule is part of the spec — not live state — so a resumed
	// job replays the same deterministic churn.
	FaultSchedule string `json:"fault_schedule,omitempty"`
	// Dispatch selects the placement policy: static (default) or
	// locality.
	Dispatch string `json:"dispatch,omitempty"`
	// Favor maps a parameter class (compile/boot/runtime) to a sampling
	// weight; Fixed pins parameters to constant values.
	Favor map[string]float64 `json:"favor,omitempty"`
	Fixed map[string]string  `json:"fixed,omitempty"`
	// Corpus opts the job into the daemon's shared transfer corpus: its
	// completed outcome is deposited there, accumulating tuning memory
	// across jobs and tenants. Requires a daemon configured with a corpus
	// directory.
	Corpus bool `json:"corpus,omitempty"`
	// WarmStartK warm-starts the session from its K nearest corpus
	// neighbors: their best configs dispatch as the first proposals, and
	// a deeptune searcher restores the nearest neighbor's model weights.
	// Requires Corpus and a checkpointable searcher — a crashed unicorn
	// job would restart from scratch and re-query a corpus that has since
	// grown, breaking deterministic resume.
	WarmStartK int `json:"warm_start_k,omitempty"`
}

// SpecFromJob lifts a parsed YAML job file into a JobSpec (the path both
// wfctl start and wfctl submit take; run-level fields — tenant, seed,
// searcher, fleet — are the caller's). A job file's params: list and
// maximize: flag are not carried: the OS profile fixes the space and the
// metric its direction.
func SpecFromJob(job *configspace.Job) JobSpec {
	return JobSpec{
		Name:          job.Name,
		OS:            job.OS,
		App:           job.App,
		Metric:        job.Metric,
		Iterations:    job.Iterations,
		TimeBudgetSec: job.TimeBudgetSec,
		Favor:         job.Favor,
		Fixed:         job.Fixed,
	}
}

// withDefaults fills the defaulted fields.
func (sp JobSpec) withDefaults() JobSpec {
	if sp.Tenant == "" {
		sp.Tenant = "default"
	}
	if sp.OS == "" {
		sp.OS = "linux"
	}
	if sp.App == "" {
		sp.App = "nginx"
	}
	if sp.Metric == "" {
		sp.Metric = "throughput"
	}
	if sp.Searcher == "" {
		sp.Searcher = "deeptune"
	}
	return sp
}

// The job vocabulary: one name→entry table each for OS profiles, metrics
// and searchers. Validate, the session builders and the daemon's
// journaling rule read these and nothing else, so a name means the same
// thing everywhere.

// osProfiles maps each OS name (and alias) to its model constructor.
var osProfiles = map[string]func() *simos.Model{
	"linux":       func() *simos.Model { return simos.NewLinux(simos.DefaultLinuxOptions()) },
	"unikraft":    func() *simos.Model { return simos.NewUnikraft(1) },
	"linux-riscv": newRiscv,
	"riscv":       newRiscv,
}

func newRiscv() *simos.Model { return simos.NewRiscv(simos.DefaultRiscvOptions()) }

// metrics maps each metric name (and alias) to its constructor over the
// job's workload.
var metrics = map[string]func(app *simos.App) core.Metric{
	"throughput":  newPerfMetric,
	"performance": newPerfMetric,
	"latency":     newPerfMetric,
	"memory":      func(*simos.App) core.Metric { return core.MemoryMetric{} },
	"score":       func(*simos.App) core.Metric { return &core.ScoreMetric{} },
}

func newPerfMetric(app *simos.App) core.Metric { return &core.PerfMetric{App: app} }

// searcherEntry is one strategy a job can name.
type searcherEntry struct {
	// build constructs a fresh searcher from spec-determined arguments.
	build func(space *configspace.Space, maximize bool, seed uint64) search.Searcher
	// windowed: the searcher implements search.Windowed, so
	// surrogate_window applies to it.
	windowed bool
	// checkpoints: the searcher implements search.Checkpointable, so its
	// jobs journal snapshots and may warm-start from the corpus.
	checkpoints bool
}

// searchers maps each searcher name to its entry.
var searchers = map[string]searcherEntry{
	"random": {checkpoints: true, build: func(space *configspace.Space, _ bool, seed uint64) search.Searcher {
		return search.NewRandom(space, seed)
	}},
	"grid": {checkpoints: true, build: func(space *configspace.Space, _ bool, _ uint64) search.Searcher {
		return search.NewGrid(space)
	}},
	"bayesian": {windowed: true, checkpoints: true, build: func(space *configspace.Space, maximize bool, seed uint64) search.Searcher {
		return search.NewBayesian(space, maximize, seed)
	}},
	"deeptune": {windowed: true, checkpoints: true, build: func(space *configspace.Space, maximize bool, seed uint64) search.Searcher {
		cfg := deeptune.DefaultConfig()
		cfg.Seed = seed
		return search.NewDeepTune(space, maximize, cfg)
	}},
	"unicorn": {build: func(space *configspace.Space, maximize bool, seed uint64) search.Searcher {
		return search.NewUnicorn(space, maximize, seed)
	}},
}

// options maps the spec onto session options. It fails only on an
// unparseable fault schedule — everything else defers to Options.Validate.
func (sp JobSpec) options() (core.Options, error) {
	sched, err := fault.Parse(sp.FaultSchedule)
	if err != nil {
		return core.Options{}, fmt.Errorf("%w: fault_schedule: %v", ErrBadSpec, err)
	}
	return core.Options{
		Iterations:      sp.Iterations,
		TimeBudgetSec:   sp.TimeBudgetSec,
		Seed:            sp.Seed,
		Workers:         sp.Workers,
		Async:           sp.Async,
		Staleness:       sp.Staleness,
		Hosts:           sp.Hosts,
		DisableCache:    sp.DisableCache,
		SurrogateWindow: sp.SurrogateWindow,
		Faults:          sched,
		Dispatch:        sp.Dispatch,
		WarmStartK:      sp.WarmStartK,
	}, nil
}

// Validate rejects specs no session can be built from. It builds
// nothing: the model/searcher construction errors (a fixed parameter the
// space lacks) surface from NewSession. The daemon's own admission rules
// (a positive iteration budget, a configured corpus) live in
// Daemon.Submit.
func (sp JobSpec) Validate() error {
	sp = sp.withDefaults()
	if _, ok := osProfiles[sp.OS]; !ok {
		return fmt.Errorf("%w: unknown os %q (linux|unikraft|linux-riscv)", ErrBadSpec, sp.OS)
	}
	if _, err := apps.ByName(sp.App); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if _, ok := metrics[sp.Metric]; !ok {
		return fmt.Errorf("%w: unknown metric %q (throughput|memory|score)", ErrBadSpec, sp.Metric)
	}
	strategy, ok := searchers[sp.Searcher]
	if !ok {
		return fmt.Errorf("%w: unknown searcher %q (random|grid|bayesian|deeptune|unicorn)", ErrBadSpec, sp.Searcher)
	}
	if sp.SurrogateWindow != 0 && !strategy.windowed {
		return fmt.Errorf("%w: surrogate_window only applies to the learned searchers (bayesian, deeptune; got %q)",
			ErrBadSpec, sp.Searcher)
	}
	if sp.WarmStartK != 0 && !sp.Corpus {
		return fmt.Errorf("%w: warm_start_k requires corpus", ErrBadSpec)
	}
	if sp.WarmStartK > 0 && !strategy.checkpoints {
		return fmt.Errorf("%w: warm_start_k needs a checkpointable searcher (unicorn restarts from scratch after a crash and would re-query a grown corpus)", ErrBadSpec)
	}
	for _, class := range slices.Sorted(maps.Keys(sp.Favor)) {
		if _, err := configspace.ParseClass(class); err != nil {
			return fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	opts, err := sp.options()
	if err != nil {
		return err
	}
	if err := opts.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// buildModel constructs the spec's simulated OS model with favor weights
// and fixed parameters applied — identically on every (re)construction,
// which the deterministic-resume guarantee requires.
func (sp JobSpec) buildModel() (*simos.Model, error) {
	newModel, ok := osProfiles[sp.OS]
	if !ok {
		return nil, fmt.Errorf("%w: unknown os %q", ErrBadSpec, sp.OS)
	}
	model := newModel()
	for _, class := range slices.Sorted(maps.Keys(sp.Favor)) {
		cl, err := configspace.ParseClass(class)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		model.Space.Favor(cl, sp.Favor[class])
	}
	for _, name := range slices.Sorted(maps.Keys(sp.Fixed)) {
		raw := sp.Fixed[name]
		p, _ := model.Space.Lookup(name)
		if p == nil {
			return nil, fmt.Errorf("%w: fixed parameter %q not in the %s space", ErrBadSpec, name, sp.OS)
		}
		v, err := p.ParseValue(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		if err := model.Space.Fix(name, v); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	return model, nil
}

// assemble builds the construction inputs shared by fresh and resumed
// sessions: the model, the workload, the metric, and a fresh searcher
// with spec-determined constructor arguments (what Snapshot/Resume
// requires).
func (sp JobSpec) assemble() (*simos.Model, *simos.App, core.Metric, search.Searcher, error) {
	model, err := sp.buildModel()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	app, err := apps.ByName(sp.App)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	newMetric, ok := metrics[sp.Metric]
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("%w: unknown metric %q", ErrBadSpec, sp.Metric)
	}
	strategy, ok := searchers[sp.Searcher]
	if !ok {
		return nil, nil, nil, nil, fmt.Errorf("%w: unknown searcher %q", ErrBadSpec, sp.Searcher)
	}
	metric := newMetric(app)
	return model, app, metric, strategy.build(model.Space, metric.Maximize(), sp.Seed), nil
}

// NewSession is the one place a job becomes a session: it builds the
// spec's model, workload, metric, and searcher and assembles a fresh
// session over them. opts apply on top of the spec's own options — the
// daemon's observer and corpus store, wfctl's worker speed factors. The
// searcher is returned too, for the knobs a spec deliberately does not
// carry (wfctl -gp-refit); set them before the first step. Callers
// Validate the spec first.
func (sp JobSpec) NewSession(opts ...wayfinder.Option) (*wayfinder.Session, search.Searcher, error) {
	sp = sp.withDefaults()
	model, app, metric, searcher, err := sp.assemble()
	if err != nil {
		return nil, nil, err
	}
	sessOpts, err := sp.options()
	if err != nil {
		return nil, nil, err
	}
	sess, err := wayfinder.New(model, app, append([]wayfinder.Option{
		wayfinder.WithMetric(metric),
		wayfinder.WithSearcher(searcher),
		wayfinder.WithOptions(sessOpts),
	}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	return sess, searcher, nil
}

// resumeSession reconstructs the spec's session from a journal snapshot,
// continuing byte-identically to an uninterrupted run. A corpus store in
// opts reattaches for deposit only: the snapshot carries the original
// warm start (seed queue and weights) verbatim, so the resumed session
// never re-queries a corpus that may have grown since admission.
func (sp JobSpec) resumeSession(snapshot []byte, opts ...wayfinder.Option) (*wayfinder.Session, error) {
	sp = sp.withDefaults()
	model, app, metric, searcher, err := sp.assemble()
	if err != nil {
		return nil, err
	}
	return wayfinder.Resume(model, app, snapshot, append([]wayfinder.Option{
		wayfinder.WithMetric(metric),
		wayfinder.WithSearcher(searcher),
	}, opts...)...)
}
