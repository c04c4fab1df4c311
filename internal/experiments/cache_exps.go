// The artifact-cache and fleet-topology studies: what the shared
// content-addressed build cache saves over the historical per-worker
// image caches (cachehit), and what sharding one session across simulated
// hosts costs in cross-host transfers (fleet).
package experiments

import (
	"fmt"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
)

// cacheRow renders one session's cache accounting.
func cacheRow(setup string, rep *core.Report) []string {
	return []string{
		setup,
		fmt.Sprintf("%d", rep.Workers),
		fmt.Sprintf("%d", rep.Hosts),
		fmt.Sprintf("%d", rep.Builds),
		fmt.Sprintf("%d", rep.CacheHits),
		fmt.Sprintf("%d", rep.CacheRemoteHits),
		fmt.Sprintf("%d", rep.BuildsSaved),
		fmtF(rep.ElapsedSec, 0),
		fmtF(rep.ComputeSec, 0),
	}
}

var cacheColumns = []string{
	"setup", "workers", "hosts", "builds", "cache hits", "remote", "builds saved", "wall s", "compute s",
}

// Cachehit measures the duplicate-build pathology the shared store
// removes. The workload is the §4.1 setup (compile-time exploration
// pinned): every configuration shares one image digest, so the build work
// of an entire session is a single compile — which the per-worker caches
// of the historical engine nevertheless repeated once per worker, up to
// W× the sequential build count. With the content-addressed store, one
// worker builds, the rest wait on the in-flight build and fetch, and the
// session's build count returns to the sequential figure even when the
// fleet is split across hosts.
func Cachehit(scale Scale) (*Result, error) {
	res := &Result{ID: "cachehit", Title: "Shared artifact store vs per-worker build caches"}
	w := scale.Workers
	if w < 2 {
		w = 8
	}
	hosts := scale.Hosts
	if hosts < 1 {
		hosts = 1
	}

	app := apps.Nginx()
	run := func(opts core.Options) (*core.Report, error) {
		m := newLinuxRuntimeFavored(scale, 1)
		s := search.NewRandom(m.Space, 1)
		opts.Iterations, opts.Seed = scale.Iterations, 1
		return session(m, app, &core.PerfMetric{App: app}, s, opts)
	}

	seq, err := run(core.Options{})
	if err != nil {
		return nil, err
	}
	dup, err := run(core.Options{Workers: w, DisableCache: true})
	if err != nil {
		return nil, err
	}
	shared, err := run(core.Options{Workers: w})
	if err != nil {
		return nil, err
	}
	fleet, err := run(core.Options{Workers: w, Hosts: hosts})
	if err != nil {
		return nil, err
	}

	t := Table{
		Title:   fmt.Sprintf("Builds per session at an equal iteration budget (%d iterations)", scale.Iterations),
		Columns: cacheColumns,
		Rows: [][]string{
			cacheRow("sequential", seq),
			cacheRow("per-worker caches", dup),
			cacheRow("shared store", shared),
			cacheRow(fmt.Sprintf("shared store, %d hosts", fleet.Hosts), fleet),
		},
	}
	res.Tables = append(res.Tables, t)

	avoided := dup.Builds - shared.Builds
	ratio := 0.0
	if seq.Builds > 0 {
		ratio = float64(shared.Builds) / float64(seq.Builds)
	}
	res.Tables = append(res.Tables, Table{
		Title:   "Duplicate builds avoided by the shared store",
		Columns: []string{"avoided", "builds vs sequential", "compute saved s"},
		Rows: [][]string{{
			fmt.Sprintf("%d", avoided),
			fmtF(ratio, 2) + "x",
			fmtF(dup.ComputeSec-shared.ComputeSec, 0),
		}},
	})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"per-worker caches rebuilt the identical image on every worker (%d builds); the shared store dedupes to %d — %.2fx the sequential count",
		dup.Builds, shared.Builds, ratio))
	return res, nil
}

// imageSweep is the scripted fleet workload of the Fleet experiment: each
// round proposes one fresh candidate image (the default compile
// assignment with a few compile parameters resampled, ladder-style) and
// fans per-round runtime variations of it across the whole worker pool —
// the image-per-round exploration pattern where a build-cache topology
// matters on every round, not just the first. It is a native
// BatchSearcher; proposals are a pure function of the seed.
type imageSweep struct {
	space *configspace.Space
	r     *rng.RNG
	per   int // proposals per image (the worker-pool width)
	slot  int
	image *configspace.Config // current round's compile assignment donor
}

func newImageSweep(space *configspace.Space, per int, seed uint64) *imageSweep {
	return &imageSweep{space: space, r: rng.New(seed), per: per}
}

func (s *imageSweep) Name() string { return "image-sweep" }

// offDefaultImage draws a candidate image: three compile parameters
// resampled off the default assignment, from one space.Random donor and
// then one r.Perm over the compile parameters. Staying near the
// incumbent is how compile ladders actually explore — and keeps
// candidates compiling, so every round yields one shareable artifact.
func offDefaultImage(space *configspace.Space, r *rng.RNG) *configspace.Config {
	donor := space.Random(r)
	img := space.Default()
	var idx []int
	for i, p := range space.Params() {
		if p.Class == configspace.CompileTime {
			idx = append(idx, i)
		}
	}
	for _, j := range r.Perm(len(idx))[:min(3, len(idx))] {
		img.SetIndex(idx[j], donor.Value(idx[j]))
	}
	return img
}

// Propose implements search.Searcher: runtime/boot parameters resampled
// per slot, compile parameters held to the round's image.
func (s *imageSweep) Propose() *configspace.Config {
	if s.slot%s.per == 0 {
		s.image = offDefaultImage(s.space, s.r)
	}
	s.slot++
	c := s.space.Random(s.r)
	for i, p := range s.space.Params() {
		if p.Class == configspace.CompileTime {
			c.SetIndex(i, s.image.Value(i))
		}
	}
	return c
}

// ProposeBatch implements search.BatchSearcher natively (dispatch-window
// dedup is pointless here: slots differ in freshly-sampled runtime
// values).
func (s *imageSweep) ProposeBatch(n int) []*configspace.Config {
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, s.Propose())
	}
	return out
}

func (s *imageSweep) Observe(search.Observation)  {}
func (s *imageSweep) DecisionCost() time.Duration { return 0 }

// Fleet shards one session across simulated hosts and measures what the
// topology costs: every round one worker builds the round's image and
// every other worker fetches it — from the host store when co-located,
// across the fleet network otherwise — so the cross-host transfer term
// recurs on every round and accumulates into the wall-clock as the host
// count grows. The per-worker-cache baseline shows what any topology
// saves: without the store, all W workers rebuild the image every round.
func Fleet(scale Scale) (*Result, error) {
	res := &Result{ID: "fleet", Title: "Multi-host fleet topology: cross-host transfer cost"}
	w := scale.Workers
	if w < 2 {
		w = 8
	}
	iters := (scale.Iterations / w) * w // whole rounds, one image per round
	if iters < w {
		iters = w
	}

	app := apps.Nginx()
	run := func(opts core.Options) (*core.Report, error) {
		m := simos.NewLinux(scale.Linux)
		s := newImageSweep(m.Space, w, 1)
		opts.Iterations, opts.Seed, opts.Workers = iters, 1, w
		return session(m, app, &core.PerfMetric{App: app}, s, opts)
	}

	var ladder []int
	for h := 1; h <= w; h *= 2 {
		ladder = append(ladder, h)
	}
	t := Table{
		Title:   fmt.Sprintf("%d workers, one fresh image per round, %d rounds", w, iters/w),
		Columns: cacheColumns,
	}
	var xs, wall []float64
	baseWall, computeAt1Host := 0.0, 0.0
	var widest *core.Report
	for _, h := range ladder {
		rep, err := run(core.Options{Hosts: h, Dispatch: scale.Dispatch})
		if err != nil {
			return nil, err
		}
		label := "1 host"
		if h > 1 {
			label = fmt.Sprintf("%d hosts", h)
		}
		t.Rows = append(t.Rows, cacheRow(label, rep))
		if h == 1 {
			baseWall, computeAt1Host = rep.ElapsedSec, rep.ComputeSec
		}
		xs = append(xs, float64(h))
		wall = append(wall, rep.ElapsedSec)
		widest = rep
	}
	noCache, err := run(core.Options{DisableCache: true})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, cacheRow("per-worker caches", noCache))
	res.Tables = append(res.Tables, t)
	res.Series = append(res.Series, Series{Name: "wall-clock-s", X: xs, Y: wall})

	spread := wall[len(wall)-1] - baseWall
	res.Tables = append(res.Tables, Table{
		Title:   "Topology cost (all-remote fleet vs single host) and cache win (vs no store)",
		Columns: []string{"transfer cost s", "compute saved s"},
		Rows: [][]string{{
			fmtF(spread, 0),
			fmtF(noCache.ComputeSec-computeAt1Host, 0),
		}},
	})

	// Where the widest fleet's work actually landed, host by host: who
	// built, who fetched locally, who paid cross-host transfers.
	hb := Table{
		Title:   fmt.Sprintf("Per-host breakdown at %d hosts", widest.Hosts),
		Columns: []string{"host", "evals", "builds", "cache hits", "remote", "build skips", "crashes", "compute s"},
	}
	for _, hs := range widest.HostBreakdown() {
		hb.Rows = append(hb.Rows, []string{
			fmt.Sprintf("%d", hs.Host),
			fmt.Sprintf("%d", hs.Evals),
			fmt.Sprintf("%d", hs.Builds),
			fmt.Sprintf("%d", hs.CacheHits),
			fmt.Sprintf("%d", hs.RemoteHits),
			fmt.Sprintf("%d", hs.BuildSkips),
			fmt.Sprintf("%d", hs.Crashes),
			fmtF(hs.ComputeSec, 0),
		})
	}
	res.Tables = append(res.Tables, hb)
	res.Notes = append(res.Notes, fmt.Sprintf(
		"splitting %d workers across more hosts adds %.0fs of cross-host transfers to the wall-clock (every round ships one image to every other host)",
		w, spread))
	res.Notes = append(res.Notes, fmt.Sprintf(
		"the wall-clock cache win is a wash here — duplicate builds ran concurrently anyway — but the fleet's aggregate compute (the cloud bill) drops %.0f%%: %.0fs of duplicate builds gone",
		100*(noCache.ComputeSec-computeAt1Host)/noCache.ComputeSec, noCache.ComputeSec-computeAt1Host))
	return res, nil
}
