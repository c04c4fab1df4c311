package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"

	"wayfinder/internal/core"
	"wayfinder/internal/rng"
)

// unitDef names a metric and its unit.
type unitDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run. peak_rss_mb is filled in by the parent process.
var endToEnd = []unitDef{
	{"setup_s", "s"},
	{"obs_per_s", "obs/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"restart_ms", "ms"},
	{"alloc_kb_per_obs", "KB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by a traced run. A
// layer a workload does not exercise reads 0.
var perLayer = []unitDef{
	{"search.propose_ms", "ms"},
	{"search.propose_us_p50", "us"},
	{"search.propose_calls", "count"},
	{"search.observe_ms", "ms"},
	{"search.observe_us_p50", "us"},
	{"search.observe_ms_p99", "ms"},
	{"search.observe_calls", "count"},
	{"search.share", "ratio"},
	{"search.decision_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.self_us_per_obs", "us"},
	{"core.share", "ratio"},
	{"metric.measure_ms", "ms"},
	{"metric.measure_calls", "count"},
	{"events.count", "count"},
	{"events.per_obs", "count"},
	{"events.observer_ms", "ms"},
	{"snapshot.encode_ms_p50", "ms"},
	{"snapshot.bytes_per_obs", "B"},
	{"snapshot.count", "count"},
	{"resume.restore_ms.h100", "ms"},
	{"resume.restore_ms.h200", "ms"},
	{"resume.restore_ms.h300", "ms"},
	{"resume.first_step_ms", "ms"},
	{"artifact.hits", "count"},
	{"artifact.misses", "count"},
	{"artifact.remote_hits", "count"},
	{"artifact.hit_ratio", "ratio"},
	{"artifact.hit_ratio_base", "count"},
	{"artifact.builds_saved", "count"},
	{"fault.retries", "count"},
	{"fault.lost_obs", "count"},
	{"fault.downtime_h", "h"},
	{"vm.utilization", "ratio"},
	{"vm.idle_h", "h"},
	{"wfd.submit_warm_ms_p50", "ms"},
	{"wfd.submit_cold_ms_p50", "ms"},
	{"wfd.quanta", "count"},
	{"wfd.quantum_ms_mean", "ms"},
	{"wfd.status_ms_p99", "ms"},
	{"wfd.journal_bytes_per_obs", "B"},
	{"wfd.recover_ms", "ms"},
	{"wfd.resumed_jobs", "count"},
	{"wfd.replayed_obs", "count"},
	{"wfd.events_per_obs", "count"},
	{"wfd.dup_builds", "count"},
	{"corpus.entries_end", "count"},
	{"corpus.warm_seeds", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"host.probe_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.spans", "count"},
	{"trace.obs", "count"},
	{"sim.best", "req/s"},
	{"sim.crash_rate", "ratio"},
	{"sim.h_to_best", "h"},
}

// metric is one measured value. n, the sample count, travels from the
// child to the parent and into the text lines only.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is a run's outcome, printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one child run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	dir      string // scratch directory of the daemon workload's state
	spans    string // span file of a traced run
	sz       sizes
	pins     map[string]string
}

// roundCtx is what a round runs with.
type roundCtx struct {
	clk    *clock
	tr     *tracer // nil in untraced rounds
	probe  *hostProbe
	seed   uint64
	sz     sizes
	tmpDir string
}

// roundResult is what one round measured.
type roundResult struct {
	setupNS, restartNS []int64 // one per set-up and restart the round made
	timedNS            int64
	scale              float64 // takes the round's times to the nominal host (probe.go)
	obs                int     // observations the round demanded and recorded
	latNS              []int64
	allocB             uint64
	attempted, failed  int
	digest             string
	events             int
	snapNS             []int64
	snapBytes, snapObs int64
	reports            reportStats
	daemon             *daemonStats // wfd-mixed only
}

// obsPerSec is the round's observations per host second of timed phase.
func (r *roundResult) obsPerSec() float64 { return float64(r.obs) / (float64(r.timedNS) / 1e9) }

// reportStats sums the counters of a round's session reports. A round
// keeps these, not the reports: a report holds every configuration it
// evaluated.
type reportStats struct {
	n, hits, misses, remote, saved, retries, lost, warmSeeds int
	decisionNS                                               int64
	downtimeSec, idleSec, utilization                        float64
	// best, crashRate and hToBest are the first report's simulated
	// outcome.
	best, crashRate, hToBest float64
}

// merge adds another round's counters.
func (s *reportStats) merge(o reportStats) {
	s.n += o.n
	s.hits += o.hits
	s.misses += o.misses
	s.remote += o.remote
	s.saved += o.saved
	s.retries += o.retries
	s.lost += o.lost
	s.warmSeeds += o.warmSeeds
	s.decisionNS += o.decisionNS
	s.downtimeSec += o.downtimeSec
	s.idleSec += o.idleSec
	s.utilization += o.utilization
}

// add adds one report's counters.
func (s *reportStats) add(rep *core.Report) {
	if s.n == 0 {
		s.crashRate = rep.CrashRate()
		s.hToBest = rep.BestTimeSec / 3600
		if rep.Best != nil {
			s.best = rep.Best.Metric
		}
	}
	s.n++
	s.hits += rep.CacheHits
	s.misses += rep.CacheMisses
	s.remote += rep.CacheRemoteHits
	s.saved += rep.BuildsSaved
	s.retries += rep.Retries
	s.lost += rep.LostObservations
	s.warmSeeds += rep.CorpusSeeds
	s.downtimeSec += rep.HostDowntimeSec
	s.idleSec += rep.IdleSec
	s.utilization += rep.Utilization
	for i := range rep.History {
		s.decisionNS += int64(rep.History[i].DecisionCost)
	}
}

// runChild runs one workload in this process for cfg.seconds and
// measures it. Each round's inputs come from its own seed, drawn from
// cfg.seed. An untraced run reports the end-to-end metrics. A traced run
// first measures the resume curve, then alternates untraced and traced
// rounds, each pair on the same seed, and reports the per-layer metrics.
func runChild(cfg runConfig) *result {
	runtime.GOMAXPROCS(runtime.NumCPU())
	clk := startClock()
	out := &result{Correct: true, Metrics: map[string]metric{}}
	fail := func(err error) *result {
		out.Correct = false
		fmt.Fprintf(os.Stderr, "wfperf: %s: %v\n", cfg.workload, err)
		return out
	}
	w, err := workloadByName(cfg.workload)
	if err == nil {
		err = os.MkdirAll(cfg.dir, 0o755)
	}
	if err != nil {
		return fail(err)
	}
	var tr *tracer
	if cfg.traced {
		tr = &tracer{clk: clk}
	}
	probe := newHostProbe(clk, cfg.sz.probeKeys)
	var gcStart, ms runtime.MemStats
	runtime.ReadMemStats(&gcStart)
	var heapPeak uint64

	draw := rng.New(cfg.seed).SplitLabeled(w.name)
	seeds := []uint64{draw.Uint64()}
	m := map[string]metric{}
	if cfg.traced && w.session != nil && len(cfg.sz.curve) > 0 {
		if err := resumeCurve(clk, w.session(cfg.sz), seeds[0], cfg.sz.curve, m); err != nil {
			return fail(fmt.Errorf("resume curve: %w", err))
		}
	}

	var plain, traced []*roundResult
	// However short the run, it makes one round, and a traced run one
	// untraced and one traced round.
	minRounds := 1
	if cfg.traced {
		minRounds = 2
	}
	deadline := int64(cfg.seconds * 1e9)
	for i := 0; i < minRounds || clk.ns() < deadline; i++ {
		idx, isTraced := i, false
		if cfg.traced {
			idx, isTraced = i/2, i%2 == 1
		}
		for len(seeds) <= idx {
			seeds = append(seeds, draw.Uint64())
		}
		// Each round starts from a collected heap, so that one round's
		// garbage is not collected on the next one's time.
		runtime.GC()
		firstProbe := len(probe.ns)
		probe.run()
		rc := &roundCtx{clk: clk, probe: probe, seed: seeds[idx], sz: cfg.sz, tmpDir: cfg.dir}
		if isTraced {
			rc.tr = tr
		}
		var res *roundResult
		if w.session != nil {
			res, err = sessionRound(rc, w.session(cfg.sz))
		} else {
			res, err = w.round(rc)
		}
		if res != nil {
			out.Attempted += res.attempted
			out.Failed += res.failed
		}
		if err == nil && idx == 0 && cfg.seed == 1 {
			err = checkPin(cfg.pins, w.name, res.digest)
		}
		if err == nil && isTraced && res.digest != plain[len(plain)-1].digest {
			err = errors.New("traced round's result digest differs from the untraced round on the same seed")
		}
		if err != nil {
			return fail(fmt.Errorf("round %d: %w", i, err))
		}
		res.scale = probe.scaleSince(firstProbe)
		if isTraced {
			traced = append(traced, res)
		} else {
			plain = append(plain, res)
		}
		runtime.ReadMemStats(&ms)
		heapPeak = max(heapPeak, ms.HeapInuse)
	}

	probeMS := metric{Value: quantile(probe.ns, 0.5) / 1e6, Unit: "ms", N: len(probe.ns)}
	if !cfg.traced {
		endToEndMetrics(out.Metrics, plain)
		out.Metrics["host.probe_ms"] = probeMS
		return out
	}
	layerMetrics(m, tr, plain, traced, cfg.sz.wfdSteppers)
	m["host.probe_ms"] = probeMS
	rounds := len(plain) + len(traced)
	m["go.gc_cycles"] = metric{Value: float64(ms.NumGC - gcStart.NumGC), N: rounds}
	m["go.gc_pause_ms"] = metric{Value: float64(ms.PauseTotalNs-gcStart.PauseTotalNs) / 1e6, N: rounds}
	m["go.heap_peak_mb"] = metric{Value: float64(heapPeak) / (1 << 20), N: rounds}
	for _, d := range perLayer {
		v := m[d.name]
		v.Unit = d.unit
		out.Metrics[d.name] = v
	}
	if err := writeSpans(tr, cfg); err != nil {
		return fail(err)
	}
	return out
}

// writeSpans writes a traced run's spans to its span file.
func writeSpans(tr *tracer, cfg runConfig) error {
	if cfg.spans == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(cfg.spans), 0o755); err != nil {
		return err
	}
	return tr.writeJSONL(cfg.spans, cfg.workload)
}

// endToEndMetrics fills the end-to-end metrics measured in-process, with
// each round's times taken to the nominal host (probe.go). Each is a
// median, over set-ups, restarts or rounds, or a percentile over every
// sample of the run, so that one slow stretch of the host moves it
// little.
func endToEndMetrics(m map[string]metric, rounds []*roundResult) {
	var setup, lat, restart []int64
	var rates []float64
	var obs int
	var allocB uint64
	scaled := func(dst, src []int64, scale float64) []int64 {
		for _, ns := range src {
			dst = append(dst, int64(float64(ns)*scale))
		}
		return dst
	}
	for _, r := range rounds {
		setup = scaled(setup, r.setupNS, r.scale)
		lat = scaled(lat, r.latNS, r.scale)
		restart = scaled(restart, r.restartNS, r.scale)
		rates = append(rates, r.obsPerSec()/r.scale)
		obs += r.obs
		allocB += r.allocB
	}
	set := func(name string, v float64, n int) {
		i := slices.IndexFunc(endToEnd, func(d unitDef) bool { return d.name == name })
		m[name] = metric{Value: v, Unit: endToEnd[i].unit, N: n}
	}
	set("setup_s", quantile(setup, 0.5)/1e9, len(setup))
	set("obs_per_s", median(rates), obs)
	set("latency_p50_ms", quantile(lat, 0.5)/1e6, len(lat))
	set("latency_p90_ms", quantile(lat, 0.9)/1e6, len(lat))
	set("restart_ms", quantile(restart, 0.5)/1e6, len(restart))
	set("alloc_kb_per_obs", float64(allocB)/1024/float64(obs), obs)
}

// layerMetrics adds to m the per-layer metrics of a traced run, from its
// spans and from what its rounds counted.
func layerMetrics(m map[string]metric, tr *tracer, plain, traced []*roundResult, steppers int) {
	set := func(name string, v float64, n int) { m[name] = metric{Value: v, N: n} }
	ratio := func(a, b float64) float64 {
		if b <= 0 {
			return 0
		}
		return a / b
	}
	lt := tr.aggregate()
	var obs, events, snaps int
	var snapBytes, snapObs int64
	var rs reportStats
	for _, r := range traced {
		obs += r.obs
		events += r.events
		snaps += len(r.snapNS)
		snapBytes += r.snapBytes
		snapObs += r.snapObs
		rs.merge(r.reports)
	}
	steps := len(lt.durs["step"])
	step := float64(lt.total["step"])
	for _, name := range []string{"propose", "observe"} {
		n := len(lt.durs[name])
		set("search."+name+"_ms", float64(lt.total[name])/1e6, n)
		set("search."+name+"_us_p50", quantile(lt.durs[name], 0.5)/1e3, n)
		set("search."+name+"_calls", float64(n), n)
	}
	set("search.observe_ms_p99", quantile(lt.durs["observe"], 0.99)/1e6, len(lt.durs["observe"]))
	set("search.share", ratio(float64(lt.total["propose"]+lt.total["observe"]), step), steps)
	set("search.decision_ms", float64(rs.decisionNS)/1e6, obs)
	set("core.self_ms", float64(lt.self["step"])/1e6, steps)
	set("core.self_us_per_obs", ratio(float64(lt.self["step"])/1e3, float64(obs)), obs)
	set("core.share", ratio(float64(lt.self["step"]), step), steps)
	set("metric.measure_ms", float64(lt.total["measure"])/1e6, len(lt.durs["measure"]))
	set("metric.measure_calls", float64(len(lt.durs["measure"])), len(lt.durs["measure"]))
	set("events.count", float64(events), events)
	set("events.per_obs", ratio(float64(events), float64(obs)), obs)
	set("events.observer_ms", float64(lt.total["observer"])/1e6, len(lt.durs["observer"]))
	set("snapshot.encode_ms_p50", quantile(lt.durs["snapshot"], 0.5)/1e6, snaps)
	set("snapshot.bytes_per_obs", ratio(float64(snapBytes), float64(snapObs)), snaps)
	set("snapshot.count", float64(snaps), snaps)
	set("artifact.hits", float64(rs.hits), rs.n)
	set("artifact.misses", float64(rs.misses), rs.n)
	set("artifact.remote_hits", float64(rs.remote), rs.n)
	set("artifact.hit_ratio", ratio(float64(rs.hits), float64(rs.hits+rs.misses)), rs.hits+rs.misses)
	set("artifact.hit_ratio_base", float64(rs.hits+rs.misses), rs.n)
	set("artifact.builds_saved", float64(rs.saved), rs.n)
	set("fault.retries", float64(rs.retries), rs.n)
	set("fault.lost_obs", float64(rs.lost), rs.n)
	set("fault.downtime_h", rs.downtimeSec/3600, rs.n)
	set("vm.utilization", ratio(rs.utilization, float64(rs.n)), rs.n)
	set("vm.idle_h", rs.idleSec/3600, rs.n)
	set("corpus.warm_seeds", float64(rs.warmSeeds), rs.n)

	if traced[0].daemon != nil {
		var warm, cold, status, recoverNS []int64
		var quanta, wall, journal int64
		var resumed, replayed, dups int
		for _, r := range traced {
			ds := r.daemon
			warm = append(warm, ds.submitWarmNS...)
			cold = append(cold, ds.submitColdNS...)
			status = append(status, ds.statusNS...)
			recoverNS = append(recoverNS, ds.recoverNS)
			quanta += ds.quanta
			wall += ds.wallNS
			journal += ds.journalBytes
			resumed += ds.resumed
			replayed += ds.replayed
			dups += ds.dupBuilds
		}
		n := len(traced)
		set("wfd.submit_warm_ms_p50", quantile(warm, 0.5)/1e6, len(warm))
		set("wfd.submit_cold_ms_p50", quantile(cold, 0.5)/1e6, len(cold))
		set("wfd.quanta", float64(quanta), n)
		set("wfd.quantum_ms_mean", ratio(float64(steppers)*float64(wall)/1e6, float64(quanta)), int(quanta))
		set("wfd.status_ms_p99", quantile(status, 0.99)/1e6, len(status))
		set("wfd.journal_bytes_per_obs", ratio(float64(journal), float64(obs)), obs)
		set("wfd.recover_ms", quantile(recoverNS, 0.5)/1e6, n)
		set("wfd.resumed_jobs", float64(resumed), n)
		set("wfd.replayed_obs", float64(replayed), n)
		set("wfd.events_per_obs", ratio(float64(events), float64(obs)), obs)
		set("wfd.dup_builds", float64(dups), n)
		set("corpus.entries_end", float64(traced[n-1].daemon.corpusEntries), 1)
	}

	// Rates on the nominal host, so that the host's drift between the two
	// rounds of a pair does not read as tracing cost.
	rate := func(rounds []*roundResult) float64 {
		rs := make([]float64, len(rounds))
		for i, r := range rounds {
			rs[i] = r.obsPerSec() / r.scale
		}
		return median(rs)
	}
	set("trace.overhead_pct", (ratio(rate(plain), rate(traced))-1)*100, len(traced))
	set("trace.spans", float64(len(tr.spans)), len(tr.spans))
	set("trace.obs", float64(obs), len(traced))
	first := plain[0].reports
	set("sim.best", first.best, 1)
	set("sim.crash_rate", first.crashRate, 1)
	set("sim.h_to_best", first.hToBest, 1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	frac := pos - float64(lo)
	return float64(s[lo]) + frac*float64(s[hi]-s[lo])
}

// median returns the median of xs, or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}
