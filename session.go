// Session API v2: the public, first-class session object. A Session is
// constructed with functional options, then driven through an explicit
// lifecycle — run to completion under a context, stepped one observation
// at a time, observed through a typed event stream, snapshotted to bytes,
// and resumed byte-identically.
package wayfinder

import (
	"context"
	"fmt"
	"sync"

	"wayfinder/internal/core"
	"wayfinder/internal/corpus"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/search"
	"wayfinder/internal/vm"
)

// Re-exported session event types. Events are emitted in deterministic
// observation order — the same order the report history grows and the
// searcher observes — so a consumer sees the identical stream for the
// identical (seed, workers, staleness, hosts) session.
type (
	// Event is one typed session notification.
	Event = core.Event
	// EvalDone is emitted for every recorded observation.
	EvalDone = core.EvalDone
	// NewBest is emitted when an observation improves the session best.
	NewBest = core.NewBest
	// CacheEvent is emitted when a build was satisfied without compiling.
	CacheEvent = core.CacheEvent
	// RoundBarrier is emitted when a round-barrier dispatch round completes.
	RoundBarrier = core.RoundBarrier
	// Progress is a per-observation summary for live status rendering.
	Progress = core.Progress
	// SessionDone is emitted once, when the session exhausts its budget.
	SessionDone = core.SessionDone
	// CorpusEvent is emitted when a session warm-starts from or deposits
	// into its transfer corpus.
	CorpusEvent = core.CorpusEvent
	// HostStateChanged is emitted when the fault schedule takes a host
	// down or brings it back.
	HostStateChanged = core.HostStateChanged
	// FaultInjected is emitted when a scheduled fault lands on a
	// dispatched evaluation.
	FaultInjected = core.FaultInjected
	// RetryScheduled is emitted when a fault-lost iteration is queued for
	// re-dispatch.
	RetryScheduled = core.RetryScheduled
)

// Checkpointable is the optional searcher extension session snapshots
// require; every built-in searcher — Random (uniform or mutation-based),
// Grid, Bayesian, DeepTune, and Unicorn — implements it.
type Checkpointable = search.Checkpointable

// Usage is a session's cumulative quantum accounting — observations and
// virtual compute seconds — the counters a multiplexing daemon charges
// tenants by (read before and after a Step quantum; Sub gives the delta).
type Usage = core.Usage

// CorpusStore is a shared tuning-memory corpus: a persistent,
// content-addressed store of completed session outcomes that sessions
// warm-start from and deposit into. One store may back many sessions
// concurrently (the wfd daemon shares one across tenants).
type CorpusStore = corpus.Store

// OpenCorpus opens (creating if needed) a corpus directory. An empty dir
// opens a memory-only corpus.
func OpenCorpus(dir string) (*CorpusStore, error) { return corpus.Open(dir) }

// sessionConfig accumulates functional options before engine assembly.
type sessionConfig struct {
	opts      core.Options
	searcher  Searcher
	metric    Metric
	clock     *Clock
	observers []func(Event)
	corpus    *CorpusStore
	corpusErr error

	budgetSet   bool
	topologySet bool
}

// Option configures a Session at construction.
type Option func(*sessionConfig)

// WithSearcher selects the search strategy (default: DeepTune with the
// paper's hyperparameters, seeded from the session seed).
func WithSearcher(s Searcher) Option {
	return func(c *sessionConfig) { c.searcher = s }
}

// WithMetric selects the optimization metric (default: the application's
// own benchmark metric).
func WithMetric(m Metric) Option {
	return func(c *sessionConfig) { c.metric = m }
}

// WithBudget sets the session budget: an iteration count, a virtual-time
// budget in seconds, or both (whichever exhausts first stops the session;
// zero means unbounded for that dimension, and at least one must be set).
func WithBudget(iterations int, timeBudgetSec float64) Option {
	return func(c *sessionConfig) {
		c.opts.Iterations = iterations
		c.opts.TimeBudgetSec = timeBudgetSec
		c.budgetSet = true
	}
}

// WithSeed sets the session seed driving measurement noise, evaluation
// jitter, and (for the default searcher) the strategy's own streams.
func WithSeed(seed uint64) Option {
	return func(c *sessionConfig) { c.opts.Seed = seed; c.topologySet = true }
}

// WithWorkers evaluates configurations on n concurrent simulated workers
// (default 1: sequential).
func WithWorkers(n int) Option {
	return func(c *sessionConfig) { c.opts.Workers = n; c.topologySet = true }
}

// WithAsync lifts the round barrier with the given staleness bound: a
// proposal may be drawn only while at most `staleness` dispatched
// evaluations remain unobserved. Negative means unbounded asynchrony; 0
// keeps synchronous rounds. Only meaningful with WithWorkers(n > 1).
func WithAsync(staleness int) Option {
	return func(c *sessionConfig) {
		c.opts.Async = true
		c.opts.Staleness = staleness
		c.topologySet = true
	}
}

// WithHosts splits the worker fleet across n simulated hosts, each with
// its own artifact-store partition and a cross-host transfer cost.
func WithHosts(n int) Option {
	return func(c *sessionConfig) { c.opts.Hosts = n; c.topologySet = true }
}

// WithWorkerSpeedFactors models heterogeneous worker hardware: worker i's
// virtual task durations are multiplied by factors[i] (1 = nominal).
func WithWorkerSpeedFactors(factors []float64) Option {
	return func(c *sessionConfig) {
		c.opts.WorkerSpeedFactors = append([]float64(nil), factors...)
		c.topologySet = true
	}
}

// WithWarmStart evaluates the space default first, anchoring the session.
func WithWarmStart() Option {
	return func(c *sessionConfig) { c.opts.WarmStart = true; c.topologySet = true }
}

// WithoutCache disables the shared content-addressed artifact store
// (per-worker image reuse only).
func WithoutCache() Option {
	return func(c *sessionConfig) { c.opts.DisableCache = true; c.topologySet = true }
}

// WithCacheCapacity bounds each host's artifact-store partition to n
// images (LRU eviction beyond it; 0 or below = unbounded).
func WithCacheCapacity(n int) Option {
	return func(c *sessionConfig) { c.opts.CacheCapacity = n; c.topologySet = true }
}

// WithSurrogateWindow bounds a learned searcher's surrogate to a sliding
// window of the n most recent observations (minimum 8; 0 = unbounded, the
// default), keeping per-decision cost flat on unbounded sessions: the
// Bayesian GP downdates the oldest observation out of its Cholesky factor
// in O(n²) — and adapts its hyperparameters online, since a window can
// drift away from construction-time assumptions — while DeepTune retrains
// over the window only. Requires a windowed-capable searcher (the default
// DeepTune, or Bayesian).
func WithSurrogateWindow(n int) Option {
	return func(c *sessionConfig) { c.opts.SurrogateWindow = n; c.topologySet = true }
}

// WithFaultSchedule replays a deterministic schedule of virtual-time
// fleet faults against the session: host churn (down/up), worker
// preemption, and per-iteration transient build/boot failures, with
// bounded-attempt retry under the schedule's policy. The report stays a
// pure function of (seed, workers, staleness, hosts, schedule); a nil or
// empty schedule is exactly the fault-free session.
func WithFaultSchedule(s *FaultSchedule) Option {
	return func(c *sessionConfig) { c.opts.Faults = s; c.topologySet = true }
}

// WithDispatchPolicy selects the placement policy mapping dispatch slots
// to workers: DispatchStatic (the default) or DispatchLocality, which
// prefers workers already holding the evaluation's image and recovers
// cross-host transfer time on cache-heavy fleets.
func WithDispatchPolicy(name string) Option {
	return func(c *sessionConfig) { c.opts.Dispatch = name; c.topologySet = true }
}

// WithCorpus attaches a persistent transfer corpus by directory: the
// session deposits its outcome there on completion, and — combined with
// WithWarmStartFromCorpus — draws its first proposals from it. An empty
// or absent corpus leaves the session byte-identical to one without the
// option. On Resume, the option re-attaches the corpus for the completion
// deposit only; warm-start resolution happened at original construction
// and travels in the snapshot. Open errors surface from New/Resume.
func WithCorpus(dir string) Option {
	return func(c *sessionConfig) {
		st, err := corpus.Open(dir)
		c.corpus, c.corpusErr = st, err
	}
}

// WithCorpusStore is WithCorpus for an already-open (possibly shared)
// store — the form a daemon multiplexing many sessions over one corpus
// uses.
func WithCorpusStore(st *CorpusStore) Option {
	return func(c *sessionConfig) { c.corpus, c.corpusErr = st, nil }
}

// WithWarmStartFromCorpus asks the corpus for up to k seed
// configurations, evaluated ahead of the searcher's own proposals, plus a
// DeepTune weight restore when the nearest neighbor deposited one.
// Requires WithCorpus/WithCorpusStore. Construction-only: a resumed
// session inherits its warm start from the snapshot.
func WithWarmStartFromCorpus(k int) Option {
	return func(c *sessionConfig) { c.opts.WarmStartK = k; c.topologySet = true }
}

// WithObserver registers a synchronous event observer, invoked on the
// session's stepping goroutine in deterministic observation order. Multiple
// observers run in registration order.
func WithObserver(fn func(Event)) Option {
	return func(c *sessionConfig) { c.observers = append(c.observers, fn) }
}

// WithClock shares a virtual clock between sessions, chaining them on one
// timeline (sequential experiment chains, transfer-learning pipelines).
func WithClock(clock *Clock) Option {
	return func(c *sessionConfig) { c.clock = clock }
}

// WithOptions overlays a complete core options struct — the escape hatch
// for programmatic construction; later options still apply on top.
func WithOptions(opts SessionOptions) Option {
	return func(c *sessionConfig) {
		c.opts = opts
		c.budgetSet = opts.Iterations > 0 || opts.TimeBudgetSec > 0
		c.topologySet = true
	}
}

// Session is one specialization session: a first-class object that can be
// run, stepped, observed, canceled, snapshotted, and resumed. Construct
// with New or Resume.
//
// A Session is not safe for concurrent method calls. The intended
// concurrency pattern is one driver goroutine (calling Run or Step) with
// Events consumers on other goroutines; the event channel is the boundary.
type Session struct {
	core *core.Session
	// evMu guards the lazily-created event channel: Events() is commonly
	// called from a consumer goroutine while another drives Run (whose
	// completion closes the channel).
	evMu         sync.Mutex
	events       chan Event
	eventsClosed bool
}

// New assembles a session over a model and application workload.
//
//	session, err := wayfinder.New(model, app,
//	    wayfinder.WithSearcher(searcher),
//	    wayfinder.WithWorkers(8),
//	    wayfinder.WithAsync(-1),
//	    wayfinder.WithHosts(4),
//	    wayfinder.WithSeed(7),
//	    wayfinder.WithBudget(250, 0),
//	)
//
// Nothing is evaluated until the first Run or Step call. Option validation
// errors (no budget, staleness without async, more hosts than workers, …)
// are returned here, not at run time.
func New(model *Model, app *App, opts ...Option) (*Session, error) {
	cfg, err := buildConfig(model, app, opts)
	if err != nil {
		return nil, err
	}
	if cfg.searcher == nil {
		dc := deeptune.DefaultConfig()
		dc.Seed = cfg.opts.Seed
		cfg.searcher = search.NewDeepTune(model.Space, cfg.metric.Maximize(), dc)
	}
	cfg.opts.Corpus = cfg.corpus
	eng := core.NewEngine(model, app, cfg.metric, cfg.searcher, cfg.clock, cfg.opts.Seed)
	cs, err := eng.NewSession(cfg.opts)
	if err != nil {
		return nil, err
	}
	return newSession(cs, cfg), nil
}

// Resume reconstructs a session from a Snapshot and continues it
// byte-identically to an uninterrupted run. The model and app must be
// constructed exactly as the snapshotted session's were, and the searcher
// (WithSearcher, required unless the snapshot used the default DeepTune
// setup) must be a fresh instance built with the same constructor
// arguments — its accumulated state is restored from the snapshot.
// Topology options (workers, async, hosts, seed, …) live in the snapshot
// and cannot be overridden; WithBudget may extend or shorten the remaining
// budget, and observers, metric, and clock are supplied fresh.
func Resume(model *Model, app *App, snapshot []byte, opts ...Option) (*Session, error) {
	cfg, err := buildConfig(model, app, opts)
	if err != nil {
		return nil, err
	}
	if cfg.topologySet {
		return nil, fmt.Errorf("wayfinder: Resume cannot override snapshot topology options (workers/async/hosts/seed/…); only WithBudget, WithSearcher, WithMetric, WithObserver, and WithClock apply")
	}
	stored, err := core.PeekSnapshot(snapshot)
	if err != nil {
		return nil, err
	}
	if cfg.searcher == nil {
		// The default searcher must be reconstructed with the snapshot's
		// seed, exactly as New seeded it.
		dc := deeptune.DefaultConfig()
		dc.Seed = stored.Seed
		cfg.searcher = search.NewDeepTune(model.Space, cfg.metric.Maximize(), dc)
	}
	eng := core.NewEngine(model, app, cfg.metric, cfg.searcher, cfg.clock, stored.Seed)
	cs, err := eng.RestoreSession(snapshot)
	if err != nil {
		return nil, err
	}
	if cfg.corpus != nil {
		// Deposit-only reattach: warm-start resolution happened at the
		// original construction and travels in the snapshot.
		cs.AttachCorpus(cfg.corpus)
	}
	if cfg.budgetSet {
		// Budget extension is legitimate on resume (continue a finished
		// session longer); everything else in the options is topology.
		if err := cs.SetBudget(cfg.opts.Iterations, cfg.opts.TimeBudgetSec); err != nil {
			return nil, err
		}
	}
	return newSession(cs, cfg), nil
}

// buildConfig folds the options into a validated construction config.
func buildConfig(model *Model, app *App, opts []Option) (*sessionConfig, error) {
	if model == nil || app == nil {
		return nil, fmt.Errorf("wayfinder: nil model or app")
	}
	cfg := &sessionConfig{}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.corpusErr != nil {
		return nil, fmt.Errorf("wayfinder: opening corpus: %w", cfg.corpusErr)
	}
	if cfg.metric == nil {
		cfg.metric = &core.PerfMetric{App: app}
	}
	if cfg.clock == nil {
		cfg.clock = &vm.Clock{}
	}
	return cfg, nil
}

// newSession wires the config's observers onto the core session.
func newSession(cs *core.Session, cfg *sessionConfig) *Session {
	s := &Session{core: cs}
	for _, fn := range cfg.observers {
		cs.AddObserver(fn)
	}
	return s
}

// Run drives the session to completion, honoring ctx cancellation and
// deadline at every observation boundary. On interruption it returns the
// context's error together with a valid partial report — the exact
// observation-prefix of the uninterrupted run — and the session remains
// resumable: a further Run or Step continues it.
func (s *Session) Run(ctx context.Context) (*Report, error) {
	rep, err := s.core.Run(ctx)
	s.closeEventsIfDone()
	return rep, err
}

// Step advances the session by up to n observations (exactly n unless the
// budget or strategy exhausts first) and returns how many were recorded.
// Interleaving Step calls across many sessions is the serve-many-sessions
// daemon primitive; Step(1) loops implement custom stopping rules.
func (s *Session) Step(n int) int {
	advanced := s.core.Step(n)
	s.closeEventsIfDone()
	return advanced
}

// Done reports whether the session has exhausted its budget or strategy.
func (s *Session) Done() bool { return s.core.Done() }

// Usage returns the session's cumulative quantum accounting — the
// observation and virtual-compute counters a daemon charges a tenant per
// Step quantum. O(1), valid at any observation
// boundary; call from the driving goroutine only.
func (s *Session) Usage() Usage { return s.core.Usage() }

// Observed returns the number of observations recorded so far.
func (s *Session) Observed() int { return s.core.Observed() }

// Report returns the session's report, valid at any point: a finished
// session's final report, or a consistent partial report mid-session.
func (s *Session) Report() *Report { return s.core.Report() }

// Events returns a channel carrying the session's typed events in
// deterministic observation order. The channel is created on first call
// (call before the first Run/Step to receive the full stream), is closed
// when the session completes, and is buffered; if the buffer fills, the
// session's stepping goroutine blocks until the consumer drains it — so
// consume concurrently with Run, or between Step calls. For fully
// synchronous consumption use WithObserver instead.
func (s *Session) Events() <-chan Event {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.events == nil {
		ch := make(chan Event, 4096)
		s.events = ch
		if s.core.Done() {
			close(ch)
			s.eventsClosed = true
		} else {
			s.core.AddObserver(func(ev Event) {
				// The observer runs on the stepping goroutine; a driver
				// that Closed the stream and stepped again (an abandoned
				// consumer) gets its events dropped, not a send on a
				// closed channel.
				s.evMu.Lock()
				closed := s.eventsClosed
				s.evMu.Unlock()
				if !closed {
					ch <- ev
				}
			})
		}
	}
	return s.events
}

// Snapshot serializes the session's complete state — scheduler position,
// worker clocks and noise streams, artifact cache, in-flight evaluations,
// report, stateful metric, and the searcher's own history via
// Checkpointable — so Resume continues byte-identically. It requires a
// Checkpointable searcher and must not be called concurrently with Run.
func (s *Session) Snapshot() ([]byte, error) { return s.core.Snapshot() }

// Close releases the session's event stream, ending consumer range loops.
// Call it when abandoning a session before completion (after a canceled
// Run, say, once the partial report or snapshot is taken); a session
// driven to completion closes the stream itself. Close does not invalidate
// the session — it may still be stepped, snapshotted, or resumed — but
// events emitted after Close are dropped, not delivered. Call Close only
// from the driving goroutine, never concurrently with Run or Step.
func (s *Session) Close() {
	s.evMu.Lock()
	defer s.evMu.Unlock()
	if s.events != nil && !s.eventsClosed {
		close(s.events)
		s.eventsClosed = true
	}
}

// closeEventsIfDone closes the event channel once the session reaches its
// terminal state, ending consumer range loops.
func (s *Session) closeEventsIfDone() {
	if s.core.Done() {
		s.Close()
	}
}
