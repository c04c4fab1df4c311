package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	wayfinder "wayfinder"
	"wayfinder/internal/core"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
)

// sizes fixes the inputs of one round of each workload. The benchmark
// runs benchSizes; the tests run tinySizes.
type sizes struct {
	dtObs, dtWindow, dtSnapEvery int
	bayesObs, bayesWindow        int
	fleetObs                     int
	// curve lists the histories, in observations, at which a traced run
	// measures Resume on every session workload.
	curve []int

	// probeKeys sizes the host probe (probe.go).
	probeKeys int

	wfdPairs                                   int
	wfdRandomIters, wfdBayesIters, wfdDTIters  int
	wfdBayesWindow, wfdDTWindow                int
	wfdJournalEvery, wfdSeedIters, wfdSteppers int
}

// setupReps is how many times a session round makes its set-up, and
// restartReps how many times its restart check resumes the mid-round
// snapshot.
const setupReps, restartReps = 5, 3

var benchSizes = sizes{
	dtObs: 120, dtWindow: 64, dtSnapEvery: 30,
	bayesObs: 512, bayesWindow: 128,
	fleetObs: 10000,
	curve:    []int{100, 200, 300},

	probeKeys: 1 << 18,

	wfdPairs:       4,
	wfdRandomIters: 60, wfdBayesIters: 40, wfdDTIters: 20,
	wfdBayesWindow: 32, wfdDTWindow: 16,
	wfdJournalEvery: 32, wfdSeedIters: 12, wfdSteppers: 2,
}

// workload is one benchmark input set. round runs one round of it:
// set-up, the timed closed loop, and the restart check.
type workload struct {
	name  string
	round func(rc *roundCtx) (*roundResult, error)
	// session is set for the workloads that drive one session directly.
	session func(sz sizes) *sessionSpec
}

var workloads = []workload{
	{name: "deeptune-resume", session: deeptuneResume},
	{name: "bayes-window", session: bayesWindow},
	{name: "fleet-churn", session: fleetChurn},
	{name: "wfd-mixed", round: daemonRound},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// sessionSpec builds the session of a session workload from a seed.
type sessionSpec struct {
	favorCompile float64
	newSearcher  func(space *wayfinder.Space, seed uint64) search.Searcher
	// options returns the session options for a seed and an iteration
	// budget.
	options func(seed uint64, budget int) ([]wayfinder.Option, error)
	// obs is the observations per round; a snapshot is taken every
	// snapEvery of them short of the last, and the restart check resumes
	// the one at obs/2.
	obs, snapEvery int
}

// newDeepTune, newBayesian and newRandom build the searchers of the
// session workloads and of the corpus seeding. Every workload maximizes
// throughput.
func newDeepTune(space *wayfinder.Space, seed uint64) search.Searcher {
	dc := wayfinder.DefaultDeepTuneConfig()
	dc.Seed = seed
	return search.NewDeepTune(space, true, dc)
}

func newBayesian(space *wayfinder.Space, seed uint64) search.Searcher {
	return search.NewBayesian(space, true, seed)
}

func newRandom(space *wayfinder.Space, seed uint64) search.Searcher {
	return search.NewRandom(space, seed)
}

// DeepTune, the paper's default searcher, on a runtime-only Linux/nginx
// search: DTM training and checkpoint/restore dominate.
func deeptuneResume(sz sizes) *sessionSpec {
	return &sessionSpec{
		favorCompile: 0,
		newSearcher:  newDeepTune,
		options: func(seed uint64, budget int) ([]wayfinder.Option, error) {
			return []wayfinder.Option{
				wayfinder.WithSeed(seed),
				wayfinder.WithBudget(budget, 0),
				wayfinder.WithSurrogateWindow(sz.dtWindow),
			}, nil
		},
		obs: sz.dtObs, snapEvery: sz.dtSnapEvery,
	}
}

// The Bayesian searcher over a sliding window, run 4x past the window so
// both the extend and the downdate paths of the GP run.
func bayesWindow(sz sizes) *sessionSpec {
	return &sessionSpec{
		favorCompile: 0,
		newSearcher:  newBayesian,
		options: func(seed uint64, budget int) ([]wayfinder.Option, error) {
			return []wayfinder.Option{
				wayfinder.WithSeed(seed),
				wayfinder.WithBudget(budget, 0),
				wayfinder.WithSurrogateWindow(sz.bayesWindow),
			}, nil
		},
		obs: sz.bayesObs, snapEvery: sz.bayesObs / 2,
	}
}

// No learned surrogate: the async scheduler, pipeline planning, the
// artifact store and fault handling take the host time.
func fleetChurn(sz sizes) *sessionSpec {
	return &sessionSpec{
		favorCompile: 0.3,
		newSearcher: func(space *wayfinder.Space, seed uint64) search.Searcher {
			return search.NewRandomMutate(space, 2, seed)
		},
		options: func(seed uint64, budget int) ([]wayfinder.Option, error) {
			// About 6 virtual seconds pass per observation on this fleet,
			// so the faults cover the whole round.
			sched, err := wayfinder.ParseFaultSchedule(faultSchedule(rng.New(seed).SplitLabeled("faults"), 6*float64(sz.fleetObs)))
			if err != nil {
				return nil, err
			}
			return []wayfinder.Option{
				wayfinder.WithSeed(seed),
				wayfinder.WithBudget(budget, 0),
				wayfinder.WithWorkers(8),
				wayfinder.WithHosts(4),
				wayfinder.WithAsync(-1),
				wayfinder.WithDispatchPolicy(wayfinder.DispatchLocality),
				wayfinder.WithCacheCapacity(64),
				wayfinder.WithFaultSchedule(sched),
			}, nil
		},
		obs: sz.fleetObs, snapEvery: sz.fleetObs / 2,
	}
}

// faultSchedule draws 12 outages of hosts 1-3, one per twelfth of the
// span and never overlapping, and 12 worker preemptions, in the fault
// DSL with a retry:3/20/2 policy.
func faultSchedule(r *rng.RNG, spanSec float64) string {
	var items []string
	slot := spanSec / 12
	for j := 0; j < 12; j++ {
		down := float64(j)*slot + r.Float64()*slot/2
		up := down + slot*(0.1+0.3*r.Float64())
		host := 1 + j%3
		items = append(items, fmt.Sprintf("down:%d@%.0f", host, down), fmt.Sprintf("up:%d@%.0f", host, up))
	}
	at := make([]float64, 12)
	for j := range at {
		at[j] = r.Float64() * spanSec
	}
	slices.Sort(at)
	for _, t := range at {
		items = append(items, fmt.Sprintf("preempt:%d@%.0f", r.Intn(8), t))
	}
	items = append(items, "retry:3/20/2")
	return strings.Join(items, ",")
}

// newModel returns the Linux model with the compile-time weight applied.
func (sp *sessionSpec) newModel() *wayfinder.Model {
	model := wayfinder.NewLinuxModel()
	model.Space.Favor(wayfinder.CompileTime, sp.favorCompile)
	return model
}

// build assembles a session. With a tracer, its searcher and metric are
// wrapped so their calls record spans.
func (sp *sessionSpec) build(seed uint64, budget int, tr *tracer, observer func(wayfinder.Event)) (*wayfinder.Session, error) {
	model := sp.newModel()
	app := wayfinder.AppNginx()
	var s search.Searcher = sp.newSearcher(model.Space, seed)
	var m core.Metric = &core.PerfMetric{App: app}
	if tr != nil {
		var err error
		if s, err = traceSearcher(s, tr); err != nil {
			return nil, err
		}
		m = traceMetric(m, tr)
	}
	opts, err := sp.options(seed, budget)
	if err != nil {
		return nil, err
	}
	opts = append(opts, wayfinder.WithSearcher(s), wayfinder.WithMetric(m), wayfinder.WithObserver(observer))
	return wayfinder.New(model, app, opts...)
}

// resume restores a snapshot of a session sp built with seed.
func (sp *sessionSpec) resume(seed uint64, snap []byte) (*wayfinder.Session, error) {
	model := sp.newModel()
	return wayfinder.Resume(model, wayfinder.AppNginx(), snap, wayfinder.WithSearcher(sp.newSearcher(model.Space, seed)))
}

// sessionRound runs one round of a session workload: set-up, obs
// Step(1) calls with periodic snapshots (the timed phase), then the
// restart check, which resumes the mid-round snapshot, steps once, and
// checks that observation against the uninterrupted one.
func sessionRound(rc *roundCtx, sp *sessionSpec) (*roundResult, error) {
	clk, tr := rc.clk, rc.tr
	res := &roundResult{}
	observer := func(wayfinder.Event) { res.events++ }
	if tr != nil {
		observer = func(wayfinder.Event) {
			id := tr.begin("observer")
			res.events++
			tr.end(id)
		}
	}

	// Set-up is sub-millisecond, so it is made setupReps times and only
	// the last session is stepped: the median of the set-ups is steadier
	// than one.
	var sess *wayfinder.Session
	for range setupReps {
		start := clk.ns()
		var err error
		if sess, err = sp.build(rc.seed, sp.obs, tr, observer); err != nil {
			return nil, err
		}
		res.setupNS = append(res.setupNS, clk.ns()-start)
	}

	mid := sp.obs / 2
	var midSnap []byte
	res.latNS = make([]int64, 0, sp.obs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := clk.ns()
	var paused int64
	for i := 1; i <= sp.obs; i++ {
		paused += rc.probe.pause()
		t := clk.ns()
		id := tr.begin("step")
		n := sess.Step(1)
		tr.end(id)
		res.latNS = append(res.latNS, clk.ns()-t)
		res.attempted++
		if n != 1 {
			res.failed++
			return res, fmt.Errorf("step %d recorded %d observations", i, n)
		}
		if i%sp.snapEvery != 0 || i == sp.obs {
			continue
		}
		t = clk.ns()
		id = tr.begin("snapshot")
		snap, err := sess.Snapshot()
		tr.end(id)
		res.snapNS = append(res.snapNS, clk.ns()-t)
		res.attempted++
		if err != nil {
			res.failed++
			return res, fmt.Errorf("snapshot at %d: %w", i, err)
		}
		res.snapBytes += int64(len(snap))
		res.snapObs += int64(i)
		if i == mid {
			midSnap = snap
		}
	}
	res.timedNS = clk.ns() - start - paused
	runtime.ReadMemStats(&after)
	res.allocB = after.TotalAlloc - before.TotalAlloc
	res.obs = sp.obs
	rep := sess.Report()
	res.reports.add(rep)
	res.digest = resultDigest(rep.History)

	if midSnap == nil {
		return res, fmt.Errorf("no snapshot at observation %d", mid)
	}
	// Each resume starts from a collected heap, which no longer holds the
	// finished session, so that what it costs does not depend on when the
	// collector last ran.
	want := rep.History[mid]
	rc.probe.run() // the round's probes also cover its restarts
	for range restartReps {
		runtime.GC()
		start := clk.ns()
		id := tr.begin("resume")
		resumed, err := sp.resume(rc.seed, midSnap)
		tr.end(id)
		res.attempted++
		if err != nil {
			res.failed++
			return res, fmt.Errorf("resume at %d: %w", mid, err)
		}
		resumed.Step(1)
		res.restartNS = append(res.restartNS, clk.ns()-start)
		got := resumed.Report().History
		if len(got) != mid+1 || !sameResult(&got[mid], &want) {
			return res, fmt.Errorf("resumed observation %d differs from the uninterrupted session's", mid)
		}
	}
	return res, nil
}

// resumeCurve measures Resume, and the first Step after it, from
// snapshots at each history length in hs, into the resume.* metrics of
// m.
func resumeCurve(clk *clock, sp *sessionSpec, seed uint64, hs []int, m map[string]metric) error {
	sess, err := sp.build(seed, hs[len(hs)-1]+1, nil, func(wayfinder.Event) {})
	if err != nil {
		return err
	}
	snaps := make([][]byte, len(hs))
	done := 0
	for i, h := range hs {
		sess.Step(h - done)
		done = h
		if snaps[i], err = sess.Snapshot(); err != nil {
			return fmt.Errorf("snapshot at %d: %w", h, err)
		}
	}
	var first []int64
	for i, h := range hs {
		start := clk.ns()
		resumed, err := sp.resume(seed, snaps[i])
		if err != nil {
			return fmt.Errorf("resume at %d: %w", h, err)
		}
		restored := clk.ns()
		resumed.Step(1)
		first = append(first, clk.ns()-restored)
		m[fmt.Sprintf("resume.restore_ms.h%d", h)] = metric{Value: float64(restored-start) / 1e6, N: 1}
	}
	m["resume.first_step_ms"] = metric{Value: quantile(first, 0.5) / 1e6, N: len(first)}
	return nil
}
