// Fair-share scheduling: a pool of stepper goroutines advances jobs in
// Step(Quantum) slices, always picking a runnable job of the tenant with
// the least service (observations consumed) so far — so every tenant makes
// even progress regardless of how many jobs each has in flight. Admission
// control (caps and budgets) runs at Submit; per-quantum accounting charges
// tenants by the session's Usage delta.
package wfd

import (
	"context"
	"fmt"
	"sort"
	"time"

	wayfinder "wayfinder"
	"wayfinder/internal/artifact"
	"wayfinder/internal/core"
)

// jobState is a job's lifecycle position.
type jobState int

const (
	stateQueued   jobState = iota // admitted, waiting for a stepper
	stateRunning                  // a stepper is inside Step
	stateDone                     // completed; report available
	stateCanceled                 // canceled before completion
	stateFailed                   // construction or journaling failed fatally
)

func (s jobState) String() string {
	switch s {
	case stateQueued:
		return "queued"
	case stateRunning:
		return "running"
	case stateDone:
		return "done"
	case stateCanceled:
		return "canceled"
	case stateFailed:
		return "failed"
	}
	return "unknown"
}

// terminal reports whether the state is final.
func (s jobState) terminal() bool {
	return s == stateDone || s == stateCanceled || s == stateFailed
}

// job is one admitted tuning job. Scheduling fields are guarded by the
// daemon mutex; the session itself is only touched by the stepper that
// holds the job in stateRunning (or by recovery/shutdown, when no stepper
// does).
type job struct {
	id     string
	seq    int
	spec   JobSpec // defaulted
	tenant *tenant

	// sess is nil once the job is terminal: finish and terminate drop it,
	// so a finished job's history and searcher state are not kept alive
	// beside its cached report and summary fields.
	sess *wayfinder.Session
	hub  *hub
	done chan struct{} // closed on reaching a terminal state

	state     jobState
	canceling bool // cancel requested while running

	// journalable: no snapshot of the job has failed so far. A job
	// demoted by a failed snapshot restarts from scratch after a crash.
	journalable  bool
	sinceJournal int // observations since the last snapshot

	usage core.Usage // cumulative session usage at the last quantum boundary

	// Summary fields, refreshed after every quantum (valid even after the
	// session is gone).
	observed   int
	crashes    int
	bestMetric float64
	bestConfig string
	elapsedSec float64

	err        string
	reportJSON []byte // canonical final report, set in stateDone
	doneAt     time.Time
}

// Submit validates, admits, constructs, and queues a job, returning its
// daemon-assigned ID. Admission is atomic: the tenant's active-job and
// budget quotas are checked and charged before the (comparatively slow)
// session construction, and rolled back if construction fails.
func (d *Daemon) Submit(spec JobSpec) (string, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return "", err
	}
	if spec.Iterations <= 0 {
		return "", fmt.Errorf("%w: the daemon requires a positive iteration budget (admission control charges tenants up front)", ErrBadSpec)
	}
	if spec.Corpus && d.corpus == nil {
		return "", fmt.Errorf("%w: job asks for the shared corpus but the daemon has none configured (start wfd with -corpus)", ErrBadSpec)
	}

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return "", ErrClosed
	}
	if n := d.activeLocked(); n >= d.cfg.MaxActiveJobs {
		d.mu.Unlock()
		return "", quotaErr("daemon at max active jobs (%d)", d.cfg.MaxActiveJobs)
	}
	t := d.tenantLocked(spec.Tenant)
	if t.active >= d.cfg.TenantMaxActive {
		d.mu.Unlock()
		return "", quotaErr("tenant %q at max active jobs (%d)", t.name, d.cfg.TenantMaxActive)
	}
	if b := d.cfg.TenantBudget; b > 0 && t.servedTerminal+t.committed+spec.Iterations > b {
		d.mu.Unlock()
		return "", quotaErr("tenant %q observation budget exhausted (%d committed + %d served + %d requested > %d)",
			t.name, t.committed, t.servedTerminal, spec.Iterations, b)
	}
	seq := d.nextSeq
	d.nextSeq++
	t.active++
	t.committed += spec.Iterations
	d.mu.Unlock()

	j := d.newJob(fmt.Sprintf("j%06d", seq), seq, spec, t)
	sess, err := spec.NewSession(d.sessionOptions(j)...)
	if err != nil {
		d.mu.Lock()
		t.active--
		t.committed -= spec.Iterations
		d.mu.Unlock()
		return "", fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	j.sess = sess
	if d.cfg.StateDir != "" {
		if err := d.writeSpec(j); err != nil {
			d.mu.Lock()
			t.active--
			t.committed -= spec.Iterations
			d.mu.Unlock()
			return "", err
		}
		if spec.WarmStartK > 0 {
			// Journal warm-started jobs immediately: the admission snapshot
			// carries the resolved warm start (seed queue, weights), so a
			// crash before the first periodic snapshot still resumes from
			// the original query answer instead of re-asking a corpus other
			// jobs have since grown.
			d.journalJob(j)
		}
	}

	d.mu.Lock()
	d.insertLocked(j)
	d.cond.Signal()
	d.mu.Unlock()
	d.cfg.Logf("wfd: admitted %s tenant=%s %s/%s/%s seed=%d iters=%d",
		j.id, spec.Tenant, spec.OS, spec.Searcher, spec.Metric, spec.Seed, spec.Iterations)
	return j.id, nil
}

// newJob returns a queued job for a defaulted spec: admitted by Submit or
// re-registered by recovery. It starts journalable: every searcher a spec
// can name checkpoints.
func (d *Daemon) newJob(id string, seq int, spec JobSpec, t *tenant) *job {
	return &job{
		id:          id,
		seq:         seq,
		spec:        spec,
		tenant:      t,
		hub:         newHub(d.cfg.EventLogCap),
		done:        make(chan struct{}),
		journalable: true,
	}
}

// insertLocked registers a job keeping d.order sorted by seq (submissions
// race between seq assignment and registration).
func (d *Daemon) insertLocked(j *job) {
	d.jobs[j.id] = j
	i := sort.Search(len(d.order), func(i int) bool {
		return d.jobs[d.order[i]].seq > j.seq
	})
	d.order = append(d.order, "")
	copy(d.order[i+1:], d.order[i:])
	d.order[i] = j.id
}

// activeLocked counts queued+running jobs daemon-wide.
func (d *Daemon) activeLocked() int {
	n := 0
	for _, t := range d.tenants {
		n += t.active
	}
	return n
}

// sessionOptions are the daemon's options on top of a job's spec, for
// building and resuming alike: the observer wiring the job's events into
// its hub and the daemon's cross-session build index (it runs
// synchronously on the stepping goroutine, inside Step), and — for
// corpus-opted specs — the daemon's shared corpus store.
func (d *Daemon) sessionOptions(j *job) []wayfinder.Option {
	opts := []wayfinder.Option{wayfinder.WithObserver(func(ev core.Event) {
		if ed, ok := ev.(core.EvalDone); ok {
			d.indexBuild(ed.Result)
		}
		if we, ok := wireEvent(ev); ok {
			j.hub.publish(we)
		}
	})}
	if j.spec.Corpus && d.corpus != nil {
		opts = append(opts, wayfinder.WithCorpusStore(d.corpus))
	}
	return opts
}

// indexBuild records an actually-compiled image in the cross-session build
// index and counts duplicates: builds of an image some session (this one or
// another) already produced — the compute a physically shared store would
// have saved. Skipped/cached/failed builds produce no image.
func (d *Daemon) indexBuild(res core.Result) {
	if res.Config == nil || res.BuildSkipped || res.CacheHit || res.Stage == "build" {
		return
	}
	key := res.Config.CompileKey()
	d.storeMu.Lock()
	if _, loc := d.store.Lookup(0, key); loc != artifact.Miss {
		d.dupBuilds++
	} else {
		d.store.Put(artifact.Artifact{Key: key, Host: 0})
	}
	d.storeMu.Unlock()
}

// nextLocked blocks until a queued job is available (returning it marked
// running) or the daemon closes (returning nil); while the daemon is held
// it claims nothing. Fair share: the queued
// job whose tenant has the least service, tie-broken by admission order.
func (d *Daemon) nextLocked() *job {
	for {
		if d.closed {
			return nil
		}
		if d.held {
			d.cond.Wait()
			continue
		}
		var pick *job
		for _, id := range d.order {
			j := d.jobs[id]
			if j.state != stateQueued {
				continue
			}
			if pick == nil || j.tenant.service < pick.tenant.service {
				pick = j
			}
		}
		if pick != nil {
			pick.state = stateRunning
			return pick
		}
		d.cond.Wait()
	}
}

// stepper is one scheduling worker: pick the fairest queued job, advance
// it a quantum, charge its tenant, journal if due, and either requeue it
// or drive it to a terminal state.
func (d *Daemon) stepper() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		j := d.nextLocked()
		quantum := d.cfg.Quantum
		canceling := j != nil && j.canceling
		d.mu.Unlock()
		if j == nil {
			return
		}
		if canceling {
			// Canceled while queued: the claiming stepper retires it without
			// stepping — routing every terminal transition through the job's
			// owning stepper keeps them race-free.
			d.terminate(j, stateCanceled, "canceled")
			continue
		}

		n := j.sess.Step(quantum)
		u := j.sess.Usage()
		done := j.sess.Done()
		rep := j.sess.Report()

		d.mu.Lock()
		delta := u.Sub(j.usage)
		j.usage = u
		j.tenant.service += delta.Observations
		j.tenant.computeSec += delta.ComputeSec
		d.servedTotal += delta.Observations
		d.quanta++
		j.observed = u.Observations
		j.crashes = rep.Crashes
		j.elapsedSec = rep.ElapsedSec
		if rep.Best != nil {
			j.bestMetric = rep.Best.Metric
			j.bestConfig = rep.Best.ConfigString
		}
		j.sinceJournal += n
		canceled := j.canceling
		journalDue := d.cfg.StateDir != "" && j.journalable && j.sinceJournal >= d.cfg.JournalEvery
		hook := d.testQuantum
		d.mu.Unlock()

		if hook != nil {
			hook(j.id, j.spec.Tenant, n)
		}

		switch {
		case done:
			d.finish(j)
		case canceled:
			d.terminate(j, stateCanceled, "canceled")
		default:
			if journalDue {
				d.journalJob(j)
				j.sinceJournal = 0
			}
			d.mu.Lock()
			j.state = stateQueued
			d.cond.Signal()
			d.mu.Unlock()
		}
	}
}

// finish completes a job: canonical report to the journal, accounting
// released, waiters and subscribers notified.
func (d *Daemon) finish(j *job) {
	bytes, err := j.sess.Report().CanonicalJSON()
	if err != nil {
		d.terminate(j, stateFailed, fmt.Sprintf("marshal report: %v", err))
		return
	}
	if d.cfg.StateDir != "" {
		if err := d.writeReport(j, bytes); err != nil {
			d.cfg.Logf("wfd: %s: journal report: %v", j.id, err)
		}
	}
	d.mu.Lock()
	j.state = stateDone
	j.reportJSON = bytes
	j.doneAt = time.Now()
	j.sess = nil
	d.releaseLocked(j)
	d.mu.Unlock()
	j.hub.close()
	close(j.done)
	d.cfg.Logf("wfd: %s done: %d observations, best=%g", j.id, j.observed, j.bestMetric)
}

// terminate moves a job to a non-done terminal state.
func (d *Daemon) terminate(j *job, state jobState, reason string) {
	d.mu.Lock()
	if j.state.terminal() {
		d.mu.Unlock()
		return
	}
	j.state = state
	j.err = reason
	j.doneAt = time.Now()
	j.sess = nil
	d.releaseLocked(j)
	observed := j.observed
	d.mu.Unlock()
	if d.cfg.StateDir != "" {
		if err := d.writeStatus(j, state.String(), reason, observed); err != nil {
			d.cfg.Logf("wfd: %s: journal status: %v", j.id, err)
		}
	}
	j.hub.close()
	close(j.done)
	d.cfg.Logf("wfd: %s %s (%s)", j.id, state, reason)
}

// releaseLocked returns a terminal job's admission charges to its tenant;
// what it actually consumed moves to the served ledger.
func (d *Daemon) releaseLocked(j *job) {
	j.tenant.active--
	j.tenant.committed -= j.spec.Iterations
	j.tenant.servedTerminal += j.observed
}

// Cancel stops a job: a running one at its current quantum boundary, a
// queued one as soon as a stepper claims it. Canceling a terminal job is a
// no-op.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if !j.state.terminal() {
		j.canceling = true
		d.cond.Signal()
	}
	return nil
}

// WaitJob blocks until the job reaches a terminal state or the context
// ends.
func (d *Daemon) WaitJob(ctx context.Context, id string) error {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ReportJSON returns a completed job's canonical final report bytes —
// verbatim what the journal holds, so every reader (attached client,
// restarted daemon, smoke gauntlet) compares the same bytes.
func (d *Daemon) ReportJSON(id string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if j.state != stateDone {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, j.state)
	}
	return j.reportJSON, nil
}

// Attach subscribes to a job's event stream from sequence `from`,
// returning the retained backlog, a live channel (closed at job end), and
// a cancel function.
func (d *Daemon) Attach(id string, from int) ([]WireEvent, <-chan WireEvent, func(), error) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	d.mu.Unlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	backlog, ch, cancel := j.hub.subscribe(from)
	return backlog, ch, cancel, nil
}

// JobStatus is one job's externally visible state.
type JobStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"`
	OS       string `json:"os"`
	App      string `json:"app"`
	Metric   string `json:"metric"`
	Searcher string `json:"searcher"`
	Seed     uint64 `json:"seed"`

	Observed   int     `json:"observed"`
	Iterations int     `json:"iterations"`
	Crashes    int     `json:"crashes"`
	BestMetric float64 `json:"best_metric,omitempty"`
	BestConfig string  `json:"best_config,omitempty"`
	ElapsedSec float64 `json:"elapsed_sec"`

	Events      int    `json:"events"`
	Journalable bool   `json:"journalable"`
	Err         string `json:"error,omitempty"`
}

// statusLocked builds a job's status; call with d.mu held.
func (j *job) statusLocked() JobStatus {
	return JobStatus{
		ID:          j.id,
		Name:        j.spec.Name,
		Tenant:      j.spec.Tenant,
		State:       j.state.String(),
		OS:          j.spec.OS,
		App:         j.spec.App,
		Metric:      j.spec.Metric,
		Searcher:    j.spec.Searcher,
		Seed:        j.spec.Seed,
		Observed:    j.observed,
		Iterations:  j.spec.Iterations,
		Crashes:     j.crashes,
		BestMetric:  j.bestMetric,
		BestConfig:  j.bestConfig,
		ElapsedSec:  j.elapsedSec,
		Events:      j.hub.size(),
		Journalable: j.journalable,
		Err:         j.err,
	}
}

// JobStatusByID returns one job's status.
func (d *Daemon) JobStatusByID(id string) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return j.statusLocked(), nil
}

// Jobs lists every job in admission order.
func (d *Daemon) Jobs() []JobStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobStatus, 0, len(d.order))
	for _, id := range d.order {
		out = append(out, d.jobs[id].statusLocked())
	}
	return out
}

// TenantStatus is one tenant's accounting snapshot.
type TenantStatus struct {
	Name string `json:"name"`
	// Active is the tenant's queued+running job count; Committed the
	// observation budget those jobs hold reserved.
	Active    int `json:"active"`
	Committed int `json:"committed"`
	// Served is the observations consumed by the tenant's terminal jobs;
	// Service the fair-share position (all observations consumed, live
	// jobs included).
	Served     int     `json:"served"`
	Service    int     `json:"service"`
	ComputeSec float64 `json:"compute_sec"`
}

// DaemonStatus is the daemon-wide snapshot.
type DaemonStatus struct {
	Jobs     int `json:"jobs"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Canceled int `json:"canceled"`
	Failed   int `json:"failed"`

	Tenants []TenantStatus `json:"tenants"`

	// ServedTotal is the observations served across all jobs this process
	// lifetime; Quanta the scheduling slices that served them.
	ServedTotal int   `json:"served_total"`
	Quanta      int64 `json:"quanta"`
	// Recovered/Resumed count jobs recovered from the journal at startup
	// and, of those, resumed mid-flight from a snapshot.
	Recovered int `json:"recovered"`
	Resumed   int `json:"resumed"`

	// UniqueBuilds/DupBuilds summarize the cross-session build index:
	// distinct images compiled fleet-wide, and repeat compilations of an
	// image some session had already built (the saving a shared physical
	// store would realize).
	UniqueBuilds int `json:"unique_builds"`
	DupBuilds    int `json:"dup_builds"`

	// CorpusEntries/CorpusHash summarize the shared transfer corpus
	// (absent when the daemon has none configured).
	CorpusEntries int    `json:"corpus_entries,omitempty"`
	CorpusHash    string `json:"corpus_hash,omitempty"`

	UptimeSec float64 `json:"uptime_sec"`
}

// Status snapshots the daemon.
func (d *Daemon) Status() DaemonStatus {
	d.mu.Lock()
	st := DaemonStatus{
		Jobs:        len(d.jobs),
		ServedTotal: d.servedTotal,
		Quanta:      d.quanta,
		Recovered:   d.recovered,
		Resumed:     d.resumed,
		UptimeSec:   time.Since(d.startedAt).Seconds(),
	}
	for _, j := range d.jobs {
		switch j.state {
		case stateQueued:
			st.Queued++
		case stateRunning:
			st.Running++
		case stateDone:
			st.Done++
		case stateCanceled:
			st.Canceled++
		case stateFailed:
			st.Failed++
		}
	}
	names := make([]string, 0, len(d.tenants))
	for name := range d.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := d.tenants[name]
		st.Tenants = append(st.Tenants, TenantStatus{
			Name:       t.name,
			Active:     t.active,
			Committed:  t.committed,
			Served:     t.servedTerminal,
			Service:    t.service,
			ComputeSec: t.computeSec,
		})
	}
	d.mu.Unlock()

	d.storeMu.Lock()
	st.UniqueBuilds = d.store.Len(0)
	st.DupBuilds = d.dupBuilds
	d.storeMu.Unlock()

	if d.corpus != nil {
		st.CorpusEntries = d.corpus.Len()
		st.CorpusHash = d.corpus.Hash()
	}
	return st
}
