package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	wayfinder "wayfinder"
	"wayfinder/internal/core"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/wfd"
)

// daemonStats is what the wfd-mixed workload measures beyond the
// end-to-end metrics.
type daemonStats struct {
	submitWarmNS, submitColdNS []int64
	statusNS                   []int64
	quanta                     int64
	wallNS                     int64 // Release to the last job's end
	journalBytes               int64
	recoverNS                  int64
	resumed, replayed          int
	dupBuilds, corpusEntries   int
}

// mixedJob is one submission of the daemon workload. twin is the index
// of the job with the identical spec under the twin tenant, or -1.
type mixedJob struct {
	spec wfd.JobSpec
	twin int
}

// mixedSpecs builds the submissions: pairs of twin tenants, each tenant
// submitting one job of each of six specs, spec by spec.
func mixedSpecs(r *rng.RNG, sz sizes) []mixedJob {
	type kind struct {
		searcher, app              string
		iters, workers, hosts, win int
		async, corpus              bool
		warm                       int
		dispatch                   string
	}
	// Every job searches at run time only, as the corpus sessions did:
	// random search over compile-time parameters crashes nearly every
	// build, and a session with under two good observations deposits
	// nothing.
	kinds := []kind{
		{searcher: "random", app: "nginx", iters: sz.wfdRandomIters, corpus: true},
		{searcher: "random", app: "redis", iters: sz.wfdRandomIters, corpus: true},
		{searcher: "random", app: "nginx", iters: sz.wfdRandomIters, workers: 4},
		{searcher: "random", app: "nginx", iters: sz.wfdRandomIters, workers: 4, hosts: 2, async: true, dispatch: "locality"},
		{searcher: "bayesian", app: "nginx", iters: sz.wfdBayesIters, workers: 4, win: sz.wfdBayesWindow, corpus: true, warm: 4},
		{searcher: "deeptune", app: "nginx", iters: sz.wfdDTIters, win: sz.wfdDTWindow, corpus: true, warm: 4},
	}
	seeds := make([][]uint64, sz.wfdPairs)
	for p := range seeds {
		seeds[p] = make([]uint64, len(kinds))
		for k := range kinds {
			seeds[p][k] = r.Uint64()
		}
	}
	var jobs []mixedJob
	for k, kd := range kinds {
		for p := 0; p < sz.wfdPairs; p++ {
			for twin := 0; twin < 2; twin++ {
				sp := wfd.JobSpec{
					Name:            fmt.Sprintf("%s-%s-%d", kd.searcher, kd.app, k),
					Tenant:          fmt.Sprintf("p%02d-%c", p, 'a'+twin),
					App:             kd.app,
					Searcher:        kd.searcher,
					Seed:            seeds[p][k],
					Favor:           map[string]float64{"compile": 0},
					Iterations:      kd.iters,
					Workers:         kd.workers,
					Hosts:           kd.hosts,
					Async:           kd.async,
					Dispatch:        kd.dispatch,
					SurrogateWindow: kd.win,
					Corpus:          kd.corpus,
					WarmStartK:      kd.warm,
				}
				if kd.async {
					sp.Staleness = -1
				}
				j := mixedJob{spec: sp, twin: -1}
				if twin == 1 {
					j.twin = len(jobs) - 1
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// seedCorpus deposits four short run-time-only sessions into the corpus
// directory, so the warm-started jobs have neighbours to query.
func seedCorpus(dir string, seed uint64, iters int) error {
	store, err := wayfinder.OpenCorpus(dir)
	if err != nil {
		return err
	}
	cases := []struct {
		app      *wayfinder.App
		searcher func(space *wayfinder.Space, seed uint64) search.Searcher
	}{
		{wayfinder.AppNginx(), newDeepTune},
		{wayfinder.AppNginx(), newBayesian},
		{wayfinder.AppNginx(), newRandom},
		{wayfinder.AppRedis(), newRandom},
	}
	for i, c := range cases {
		model := wayfinder.NewLinuxModel()
		model.Space.Favor(wayfinder.CompileTime, 0)
		s := seed + uint64(i)
		sess, err := wayfinder.New(model, c.app,
			wayfinder.WithSearcher(c.searcher(model.Space, s)),
			wayfinder.WithSeed(s),
			wayfinder.WithBudget(iters, 0),
			wayfinder.WithCorpusStore(store))
		if err != nil {
			return err
		}
		if _, err := sess.Run(context.Background()); err != nil {
			return err
		}
	}
	return nil
}

// daemonWait bounds each wait for the daemon's jobs.
const daemonWait = 90 * time.Second

// waitJobs records, in doneAt, when each job without a time yet reaches
// a terminal state on d. Waiting ends when every such job has, or when
// cancel is called; wait returns once every waiter has ended.
func waitJobs(clk *clock, d *wfd.Daemon, ids []string, doneAt []int64) (wait, cancel func()) {
	ctx, cancel := withTimeout(daemonWait)
	var wg sync.WaitGroup
	for i, id := range ids {
		if doneAt[i] != 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d.WaitJob(ctx, id) == nil {
				doneAt[i] = clk.ns()
			}
		}()
	}
	return func() { wg.Wait(); cancel() }, cancel
}

// daemonRound runs one round of the daemon workload: set-up seeds a
// corpus and starts a journaling daemon; the timed phase submits every
// job under Hold, releases them, kills the daemon when half the demand
// is served, restarts it on the same state directory, and waits for
// every job. The host probe runs while nothing else does: before the
// release and between the kill and the restart. Neither run counts in
// the timed phase or in a job's time.
func daemonRound(rc *roundCtx) (*roundResult, error) {
	clk, tr, sz := rc.clk, rc.tr, rc.sz
	res := &roundResult{daemon: &daemonStats{}}
	ds := res.daemon
	dir, err := os.MkdirTemp(rc.tmpDir, "wfd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg := wfd.Config{
		StateDir:     filepath.Join(dir, "state"),
		CorpusDir:    filepath.Join(dir, "corpus"),
		Steppers:     sz.wfdSteppers,
		Quantum:      8,
		JournalEvery: sz.wfdJournalEvery,
	}
	r := rng.New(rc.seed)

	start := clk.ns()
	if err := seedCorpus(cfg.CorpusDir, r.Uint64(), sz.wfdSeedIters); err != nil {
		return nil, fmt.Errorf("seed corpus: %w", err)
	}
	d, err := wfd.New(cfg)
	if err != nil {
		return nil, err
	}
	d.Hold()
	res.setupNS = []int64{clk.ns() - start}

	jobs := mixedSpecs(r, sz)
	ids := make([]string, len(jobs))
	demand := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = clk.ns()
	for i, j := range jobs {
		t := clk.ns()
		id := tr.begin("submit")
		ids[i], err = d.Submit(j.spec)
		tr.end(id)
		dt := clk.ns() - t
		res.attempted++
		if err != nil {
			res.failed++
			d.Kill()
			return res, fmt.Errorf("submit %s: %w", j.spec.Name, err)
		}
		if j.spec.WarmStartK > 0 {
			ds.submitWarmNS = append(ds.submitWarmNS, dt)
		} else {
			ds.submitColdNS = append(ds.submitColdNS, dt)
		}
		demand += j.spec.Iterations
	}

	probed := rc.probe.run()
	release := clk.ns()
	d.Release()
	doneAt := make([]int64, len(ids))
	wait, cancel := waitJobs(clk, d, ids, doneAt)
	for {
		t := clk.ns()
		st := d.Status()
		ds.statusNS = append(ds.statusNS, clk.ns()-t)
		if 2*st.ServedTotal >= demand {
			break
		}
		sleep(time.Millisecond)
	}
	d.Kill()
	cancel()
	wait()
	old := d.Status()
	for _, js := range d.Jobs() {
		res.events += js.Events
	}
	gap := rc.probe.run()

	t := clk.ns()
	d, err = wfd.New(cfg)
	res.attempted++
	if err != nil {
		res.failed++
		return res, fmt.Errorf("restart: %w", err)
	}
	defer d.Kill()
	ds.recoverNS = clk.ns() - t
	for {
		st := d.Status()
		if st.Quanta > 0 || st.Done+st.Canceled+st.Failed == st.Jobs {
			break
		}
		sleep(100 * time.Microsecond)
	}
	res.restartNS = []int64{clk.ns() - t}
	wait, _ = waitJobs(clk, d, ids, doneAt)
	wait()
	end := clk.ns()
	res.timedNS = end - start - probed - gap
	ds.wallNS = end - release - gap
	runtime.ReadMemStats(&after)
	res.allocB = after.TotalAlloc - before.TotalAlloc
	res.obs = demand

	st := d.Status()
	ds.quanta = old.Quanta + st.Quanta
	ds.resumed = st.Resumed
	ds.replayed = old.ServedTotal + st.ServedTotal - demand
	ds.dupBuilds = old.DupBuilds + st.DupBuilds
	ds.corpusEntries = st.CorpusEntries
	for _, js := range d.Jobs() {
		res.events += js.Events
	}
	if ds.journalBytes, err = dirBytes(cfg.StateDir); err != nil {
		return res, err
	}

	// Every job must end done, and twin tenants' reports must match byte
	// for byte.
	reports := make([][]byte, len(ids))
	var all []core.Result
	for i, id := range ids {
		res.attempted++
		js, err := d.JobStatusByID(id)
		if err != nil || js.State != "done" {
			res.failed++
			return res, fmt.Errorf("job %s (%s) ended %q %s", id, jobs[i].spec.Name, js.State, js.Err)
		}
		if reports[i], err = d.ReportJSON(id); err != nil {
			res.failed++
			return res, err
		}
		lat := doneAt[i] - release
		if doneAt[i] > t {
			lat -= gap
		}
		res.latNS = append(res.latNS, lat)
		if tw := jobs[i].twin; tw >= 0 && !bytes.Equal(reports[i], reports[tw]) {
			return res, fmt.Errorf("twin jobs %s and %s (%s) reported different bytes", ids[tw], id, jobs[i].spec.Name)
		}
		rep := &core.Report{}
		if err := json.Unmarshal(reports[i], rep); err != nil {
			return res, fmt.Errorf("job %s report: %w", id, err)
		}
		res.reports.add(rep)
		all = append(all, rep.History...)
	}
	res.digest = resultDigest(all)
	return res, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
