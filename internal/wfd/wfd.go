// Package wfd implements the Wayfinder daemon: a long-lived, multi-tenant
// service that multiplexes many concurrent tuning sessions over one warm
// process — the serve-many-users end state the Session primitive
// (Step-quantum interleaving, typed events, Snapshot/Resume) was built
// for.
//
// # Architecture
//
// A Daemon owns a set of jobs, each wrapping one wayfinder.Session built
// from a declarative JobSpec. A pool of stepper goroutines advances jobs
// in Step(Quantum) slices under a fair-share discipline: every quantum
// goes to a queued job of the tenant with the least observations served
// so far, so tenants make even progress regardless of how many jobs each
// submitted. Admission control bounds the damage any tenant can do: a cap
// on active jobs per tenant and daemon-wide, plus an optional per-tenant
// total-observation budget that submissions are charged against up front
// (which is why daemon jobs must carry a bounded iteration budget).
//
// Typed session events fan out to attached clients through a per-job hub:
// the full event log is retained (up to Config.EventLogCap) so a client
// can attach mid-flight, replay from any sequence number, and follow live.
//
// # Crash-restart guarantee
//
// With a StateDir configured, the daemon journals every job: its spec at
// admission, a session snapshot every JournalEvery observations, and the
// final report on completion — each written atomically (temp file +
// rename). After kill -9, a restarted daemon resumes every in-flight job
// from its latest snapshot and completes it byte-identically to an
// uninterrupted run: sessions are pure functions of their spec, so the
// canonical final report (core.Report.CanonicalJSON, which zeroes the
// host-time decision-cost fields) is invariant under crashes, restarts, scheduling
// interleavings, and quantum sizes. Every searcher a spec can name
// checkpoints; a job whose snapshot failed or is unreadable (a stale
// format version, say) restarts from scratch — wasted work, same bytes. `make smoke-wfd` pins the guarantee
// in CI with a real SIGKILL.
//
// # Cross-session build index
//
// Sessions remain hermetic — each owns its artifact store, keeping its
// report a pure function of its spec (the crash-restart guarantee demands
// it). The daemon layers a fleet-wide content-addressed build index on
// top: every image actually compiled by any session is recorded under its
// configspace.Config.CompileKey digest, and repeat builds of an image any
// session already produced are counted as cross-session duplicates — the
// compute a shared physical artifact store would save a production fleet,
// reported in Status without perturbing any session's virtual accounting.
package wfd

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"wayfinder/internal/artifact"
	"wayfinder/internal/corpus"
)

// Sentinel errors, wrapped with detail; the HTTP layer maps them to
// status codes.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("wfd: no such job")
	// ErrQuota reports an admission-control rejection.
	ErrQuota = errors.New("wfd: quota exceeded")
	// ErrBadSpec reports an invalid job specification.
	ErrBadSpec = errors.New("wfd: invalid job spec")
	// ErrClosed reports a daemon that is shutting down.
	ErrClosed = errors.New("wfd: daemon is shutting down")
	// ErrNotDone reports a report request for an uncompleted job.
	ErrNotDone = errors.New("wfd: job has not completed")
)

// Config parameterizes a Daemon.
type Config struct {
	// StateDir is the journal directory. Empty disables persistence: the
	// daemon runs in-memory only, with no crash-restart guarantee.
	StateDir string
	// CorpusDir is the shared transfer-corpus directory. Empty disables
	// the corpus: jobs asking for it are rejected at admission. When set,
	// one corpus store is shared by every tenant's corpus-opted jobs —
	// completed sessions deposit their outcomes and warm-started sessions
	// draw seeds from their nearest neighbors, so the daemon accumulates
	// tuning memory across jobs, tenants, and restarts.
	CorpusDir string
	// Quantum is the number of observations one scheduling slice advances
	// a job by (default 8). Smaller quanta interleave tenants more finely
	// at more scheduling overhead; the final reports are invariant either
	// way.
	Quantum int
	// JournalEvery journals an active job every this many observations
	// (default 64). Smaller values tighten the crash-replay window at more
	// snapshot I/O.
	JournalEvery int
	// Steppers is the size of the stepping goroutine pool (default
	// GOMAXPROCS): how many sessions advance truly concurrently.
	Steppers int
	// MaxActiveJobs caps active (queued+running) jobs daemon-wide
	// (default 4096).
	MaxActiveJobs int
	// TenantMaxActive caps active jobs per tenant (default 1024).
	TenantMaxActive int
	// TenantBudget caps the total observations a tenant may consume
	// across all its jobs, charged at admission (0 = unlimited).
	TenantBudget int
	// EventLogCap bounds the per-job wire-event log retained for attach
	// replay (default 65536; older events are trimmed).
	EventLogCap int
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

// withDefaults fills zero fields with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Quantum <= 0 {
		c.Quantum = 8
	}
	if c.JournalEvery <= 0 {
		c.JournalEvery = 64
	}
	if c.Steppers <= 0 {
		c.Steppers = runtime.GOMAXPROCS(0)
	}
	if c.MaxActiveJobs <= 0 {
		c.MaxActiveJobs = 4096
	}
	if c.TenantMaxActive <= 0 {
		c.TenantMaxActive = 1024
	}
	if c.EventLogCap <= 0 {
		c.EventLogCap = 65536
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// tenant is one tenant's scheduling and accounting state.
type tenant struct {
	name string
	// active is the tenant's queued+running job count.
	active int
	// committed is the observation budget reserved by active jobs (their
	// full iteration budgets, released when they reach a terminal state).
	committed int
	// servedTerminal is the observations consumed by terminal jobs —
	// together with committed, what TenantBudget admissions check.
	servedTerminal int
	// service is the fair-share key: observations served across the
	// daemon's lifetime (recovered jobs seed it with their journal
	// position).
	service int
	// computeSec is the aggregate virtual compute the tenant consumed.
	computeSec float64
}

// Daemon is the multi-tenant session-serving daemon.
type Daemon struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond // signaled when a job becomes runnable
	jobs    map[string]*job
	order   []string // job IDs in admission order (ascending seq)
	tenants map[string]*tenant
	nextSeq int
	closed  bool
	held    bool // dispatch paused by Hold; steppers wait for Release

	servedTotal int   // observations served across all jobs
	quanta      int64 // scheduling slices executed
	recovered   int   // jobs recovered from the state dir at startup
	resumed     int   // … of which resumed from a journal snapshot

	// storeMu guards the cross-session build index (artifact.Store is
	// deliberately lock-free; the daemon serializes access).
	storeMu   sync.Mutex
	store     *artifact.Store
	dupBuilds int // builds of an image some session already built

	// corpus is the shared transfer corpus (nil without Config.CorpusDir).
	// corpus.Store locks internally, so steppers deposit concurrently
	// without daemon-level serialization.
	corpus *corpus.Store

	wg        sync.WaitGroup
	startedAt time.Time

	// testQuantum, when set (by white-box tests, before any Submit),
	// observes every scheduling quantum: (job ID, tenant, observations
	// served). Guarded by mu; invoked outside it.
	testQuantum func(jobID, tenant string, served int)
}

// New assembles a daemon: recovers any jobs journaled in cfg.StateDir
// (resuming in-flight ones from their latest snapshots) and starts the
// stepper pool.
func New(cfg Config) (*Daemon, error) {
	cfg = cfg.withDefaults()
	d := &Daemon{
		cfg:       cfg,
		jobs:      map[string]*job{},
		tenants:   map[string]*tenant{},
		nextSeq:   1,
		store:     artifact.NewStore(1, 0),
		startedAt: time.Now(),
	}
	d.cond = sync.NewCond(&d.mu)
	if cfg.CorpusDir != "" {
		// Opened before recovery: resumed corpus-opted jobs reattach for
		// deposit, so memory keeps accumulating across daemon restarts.
		st, err := corpus.Open(cfg.CorpusDir)
		if err != nil {
			return nil, fmt.Errorf("wfd: corpus: %w", err)
		}
		d.corpus = st
	}
	if cfg.StateDir != "" {
		if err := d.recover(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Steppers; i++ {
		d.wg.Add(1)
		go d.stepper()
	}
	return d, nil
}

// tenantLocked returns (creating if needed) a tenant's state; call with
// d.mu held.
func (d *Daemon) tenantLocked(name string) *tenant {
	t := d.tenants[name]
	if t == nil {
		t = &tenant{name: name}
		d.tenants[name] = t
	}
	return t
}

// Shutdown stops the daemon gracefully: steppers drain at their current
// quantum boundary, then every active job is journaled so a future daemon
// resumes it exactly where it stopped. Safe to call once.
func (d *Daemon) Shutdown() {
	d.Kill()
	if d.cfg.StateDir == "" {
		return
	}
	d.mu.Lock()
	var active []*job
	for _, id := range d.order {
		if j := d.jobs[id]; j.state == stateQueued || j.state == stateRunning {
			active = append(active, j)
		}
	}
	d.mu.Unlock()
	for _, j := range active {
		d.journalJob(j)
	}
}

// Hold pauses dispatch: steppers stop claiming queued jobs until Release.
// A job already inside a Step finishes its quantum and requeues; admission,
// status, attach, and cancellation all proceed while held. Holding lets a
// caller admit a whole batch atomically with respect to scheduling — an
// operator draining a box before maintenance, or a load study that wants
// the full job set resident before the first quantum is served.
func (d *Daemon) Hold() {
	d.mu.Lock()
	d.held = true
	d.mu.Unlock()
}

// Release resumes dispatch after Hold. Releasing an unheld daemon is a
// no-op.
func (d *Daemon) Release() {
	d.mu.Lock()
	d.held = false
	d.cond.Broadcast()
	d.mu.Unlock()
}

// Kill stops the stepper pool without journaling — the in-process stand-in
// for kill -9 (modulo quantum granularity; the real-signal path is
// exercised by the smoke-wfd gauntlet). The journal on disk is whatever
// the periodic writes left behind.
func (d *Daemon) Kill() {
	d.mu.Lock()
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	d.wg.Wait()
}

// quotaErr builds an admission rejection.
func quotaErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrQuota, fmt.Sprintf(format, args...))
}
