// The fleet-robustness studies: what deterministic host churn costs a
// session that retries elsewhere (elasticity), and how much of the fleet's
// cross-host transfer bill locality-aware dispatch recovers when the same
// images recur across rounds (locality).
package experiments

import (
	"fmt"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/fault"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
)

// Elasticity runs one search workload under a ladder of host outages —
// the same host down for progressively longer windows — and charts what
// the churn costs. Retry-elsewhere keeps every observation: the history
// stays complete at every rung (zero lost observations), and the only
// price is wall-clock, which grows with the outage length. Every rung is
// a pure function of its schedule, so the whole ladder reproduces
// byte-identically run to run.
func Elasticity(scale Scale) (*Result, error) {
	res := &Result{ID: "elasticity", Title: "Host churn under retry-elsewhere: complete histories, wall-clock cost"}
	w := scale.Workers
	if w < 4 {
		w = 4
	}
	hosts := scale.Hosts
	if hosts < 2 {
		hosts = 2
	}
	if hosts > w {
		hosts = w
	}

	app := apps.Nginx()
	run := func(sched *fault.Schedule) (*core.Report, error) {
		m := simos.NewLinux(scale.Linux)
		s := search.NewRandom(m.Space, 1)
		return session(m, app, &core.PerfMetric{App: app}, s, core.Options{
			Iterations: scale.Iterations, Seed: 1, Workers: w, Hosts: hosts, Faults: sched,
		})
	}

	base, err := run(nil)
	if err != nil {
		return nil, err
	}

	// The outage ladder: host 1 goes down a quarter of the way into the
	// fault-free run and stays down for a growing fraction of it (the
	// deepest rung outlasts the session — the host never returns). Each
	// faulted rung also injects one transient build failure mid-session,
	// so the retry path is exercised at every rung regardless of how the
	// outage aligns with evaluation boundaries. The rungs are spaced far
	// enough apart that the downtime cost dominates round-alignment noise.
	// A caller-supplied schedule (wfbench -faults) replaces the ladder
	// with one custom rung.
	type rung struct {
		label string
		sched *fault.Schedule
	}
	start := base.ElapsedSec / 4
	rungs := []rung{{"no faults", nil}}
	if scale.FaultSchedule != "" {
		sched, err := fault.Parse(scale.FaultSchedule)
		if err != nil {
			return nil, fmt.Errorf("elasticity: %v", err)
		}
		rungs = append(rungs, rung{"custom schedule", sched})
	} else {
		for _, frac := range []float64{0.25, 0.75, 2} {
			d := base.ElapsedSec * frac
			rungs = append(rungs, rung{
				fmt.Sprintf("host 1 down %.0fs", d),
				&fault.Schedule{Events: []fault.Event{
					{Kind: fault.HostDown, Host: 1, AtSec: start},
					{Kind: fault.HostUp, Host: 1, AtSec: start + d},
					{Kind: fault.BuildFail, Iter: scale.Iterations / 2, Attempt: 1},
				}},
			})
		}
	}

	t := Table{
		Title:   fmt.Sprintf("%d workers on %d hosts, %d iterations per rung", w, hosts, scale.Iterations),
		Columns: []string{"outage", "downtime s", "observed", "lost", "retries", "wall s", "util %"},
	}
	var downs, walls []float64
	for _, r := range rungs {
		rep, err := run(r.sched)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			r.label,
			fmtF(rep.HostDowntimeSec, 0),
			fmt.Sprintf("%d", len(rep.History)),
			fmt.Sprintf("%d", rep.LostObservations),
			fmt.Sprintf("%d", rep.Retries),
			fmtF(rep.ElapsedSec, 0),
			fmtF(100*rep.Utilization, 0),
		})
		downs = append(downs, rep.HostDowntimeSec)
		walls = append(walls, rep.ElapsedSec)
	}
	res.Tables = append(res.Tables, t)
	res.Series = append(res.Series, Series{Name: "wall-clock-s", X: downs, Y: walls})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"every rung keeps the full %d-observation history — evaluations killed by the outage are retried on surviving hosts; the outage is paid in wall-clock (%.0fs fault-free, %.0fs at the deepest rung), never in coverage",
		scale.Iterations, walls[0], walls[len(walls)-1]))
	return res, nil
}

// imageCycle is the scripted workload of the Locality experiment: K
// candidate images recur across rounds, and the image→slot assignment
// rotates every round. Static placement keeps slots pinned to hosts, so
// each image lands on a different host every round and its artifact has
// to be re-fetched across the fleet network; locality-aware dispatch
// follows each image to the host already holding it. Proposals are a pure
// function of the seed.
type imageCycle struct {
	space  *configspace.Space
	per    int // slots per round (the worker-pool width)
	slot   int
	images []*configspace.Config
}

func newImageCycle(space *configspace.Space, per, k int, seed uint64) *imageCycle {
	r := rng.New(seed)
	images := make([]*configspace.Config, k)
	for n := range images {
		images[n] = offDefaultImage(space, r)
	}
	return &imageCycle{space: space, per: per, images: images, slot: 0}
}

func (s *imageCycle) Name() string { return "image-cycle" }

// Propose implements search.Searcher: runtime/boot parameters held to the
// image (the workload isolates placement, so every slot of an image group
// is the identical configuration and only dispatch differs between
// policies).
func (s *imageCycle) Propose() *configspace.Config {
	round, j := s.slot/s.per, s.slot%s.per
	k := len(s.images)
	img := s.images[(j*k/s.per+round)%k]
	s.slot++
	return img.Clone()
}

// ProposeBatch implements search.BatchSearcher natively (the scripted
// slot→image assignment IS the workload; dedup would destroy it).
func (s *imageCycle) ProposeBatch(n int) []*configspace.Config {
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, s.Propose())
	}
	return out
}

func (s *imageCycle) Observe(search.Observation)  {}
func (s *imageCycle) DecisionCost() time.Duration { return 0 }

// Locality measures what locality-aware dispatch recovers of the fleet's
// cross-host transfer bill. The workload cycles K recurring images whose
// slot assignment rotates across rounds: under static placement each
// image's next round lands on a host that does not hold its artifact (a
// cross-host fetch, Model.TransferSeconds each); under locality dispatch
// the evaluation follows the image to the host that already has it.
func Locality(scale Scale) (*Result, error) {
	res := &Result{ID: "locality", Title: "Locality-aware dispatch vs static placement: cross-host transfer recovery"}
	w := scale.Workers
	if w < 4 {
		w = 4
	}
	hosts := scale.Hosts
	if hosts < 2 {
		hosts = 2
	}
	if hosts > w {
		hosts = w
	}
	k := hosts // one image per host: groups and partitions align exactly
	rounds := scale.Iterations / w
	if rounds < 3*k {
		rounds = 3 * k
	}
	iters := rounds * w

	app := apps.Nginx()
	run := func(dispatch string) (*core.Report, error) {
		m := simos.NewLinux(scale.Linux)
		s := newImageCycle(m.Space, w, k, 1)
		return session(m, app, &core.PerfMetric{App: app}, s, core.Options{
			Iterations: iters, Seed: 1, Workers: w, Hosts: hosts, Dispatch: dispatch,
		})
	}
	static, err := run(core.DispatchStatic)
	if err != nil {
		return nil, err
	}
	local, err := run(core.DispatchLocality)
	if err != nil {
		return nil, err
	}

	transferSec := simos.NewLinux(scale.Linux).TransferSeconds
	staticTransfer := float64(static.CacheRemoteHits) * transferSec
	localTransfer := float64(local.CacheRemoteHits) * transferSec
	recovered := 0.0
	if staticTransfer > 0 {
		recovered = 1 - localTransfer/staticTransfer
	}

	row := func(label string, rep *core.Report, transfer float64) []string {
		return []string{
			label,
			fmt.Sprintf("%d", rep.CacheHits),
			fmt.Sprintf("%d", rep.CacheRemoteHits),
			fmtF(transfer, 0),
			fmtF(rep.TransferSavedSec, 0),
			fmtF(rep.ElapsedSec, 0),
		}
	}
	res.Tables = append(res.Tables, Table{
		Title: fmt.Sprintf("%d recurring images rotating over %d rounds, %d workers on %d hosts",
			k, rounds, w, hosts),
		Columns: []string{"dispatch", "cache hits", "remote", "transfer s", "saved s", "wall s"},
		Rows: [][]string{
			row("static", static, staticTransfer),
			row("locality", local, localTransfer),
		},
	})
	res.Tables = append(res.Tables, Table{
		Title:   "Cross-host transfer recovered by locality dispatch",
		Columns: []string{"static transfer s", "locality transfer s", "recovered %"},
		Rows: [][]string{{
			fmtF(staticTransfer, 0),
			fmtF(localTransfer, 0),
			fmtF(100*recovered, 0),
		}},
	})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"static placement re-ships each recurring image across hosts as its slots rotate (%d remote fetches, %.0fs of transfer); locality dispatch routes each image group to the host already holding its artifact, recovering %.0f%% of that bill",
		static.CacheRemoteHits, staticTransfer, 100*recovered))
	return res, nil
}
