package core

import (
	"math"
	"testing"
	"time"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/search"
	"wayfinder/internal/vm"
)

// TestSharedStoreDedupesBuilds is the headline behavior of the artifact
// cache: with compile-time exploration pinned every configuration shares
// one image digest, so a W=8 session needs exactly the sequential build
// count (one) — one worker builds in round one, the other seven wait on
// the in-flight build and fetch, and every later iteration reuses
// locally. The old per-worker caches built the identical image eight
// times.
func TestSharedStoreDedupesBuilds(t *testing.T) {
	seq := parallelRun(t, "random", 3, Options{Iterations: 64, Seed: 3})
	disabled := parallelRun(t, "random", 3, Options{Iterations: 64, Seed: 3, Workers: 8, DisableCache: true})
	shared := parallelRun(t, "random", 3, Options{Iterations: 64, Seed: 3, Workers: 8})

	if seq.Builds != 1 {
		t.Fatalf("sequential builds = %d, want 1 (compile pinned)", seq.Builds)
	}
	if disabled.Builds != 8 {
		t.Fatalf("per-worker caches built %d images, want 8 (one per worker)", disabled.Builds)
	}
	if shared.Builds != seq.Builds {
		t.Fatalf("shared store built %d images, want the sequential count %d", shared.Builds, seq.Builds)
	}
	if shared.CacheHits != 7 {
		t.Fatalf("cache hits = %d, want 7 (every other worker's first build)", shared.CacheHits)
	}
	if shared.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want 1 (the one real build)", shared.CacheMisses)
	}
	if want := shared.CacheHits + 64 - 8; shared.BuildsSaved != want {
		t.Fatalf("builds saved = %d, want %d (cache hits + local skips)", shared.BuildsSaved, want)
	}
	if disabled.CacheHits != 0 || disabled.CacheMisses != 0 {
		t.Fatalf("disabled store counted cache traffic: %d hits / %d misses",
			disabled.CacheHits, disabled.CacheMisses)
	}
	// The avoided builds also show up as virtual compute.
	if shared.ComputeSec >= disabled.ComputeSec {
		t.Fatalf("shared-store compute %.0fs not below per-worker-cache compute %.0fs",
			shared.ComputeSec, disabled.ComputeSec)
	}
}

// TestCacheDisabledReproducesPerWorkerCaches pins the compatibility
// contract: DisableCache restores the historical behavior exactly —
// every worker builds its own first image and reuses it thereafter, and
// the report carries no cache accounting.
func TestCacheDisabledReproducesPerWorkerCaches(t *testing.T) {
	rep := parallelRun(t, "random", 9, Options{Iterations: 48, Seed: 9, Workers: 8, DisableCache: true})
	for i, h := range rep.History {
		if h.CacheHit || h.CacheRemote {
			t.Fatalf("iteration %d hit a cache that should be disabled", i)
		}
		if wantSkip := i >= 8; h.BuildSkipped != wantSkip {
			t.Fatalf("iteration %d BuildSkipped = %v, want %v (worker-local reuse only)", i, h.BuildSkipped, wantSkip)
		}
	}
}

// TestCacheDeterministicAcrossRuns extends the byte-reproducibility
// guarantee to the cache paths: same (seed, workers, staleness, hosts) ⇒
// identical reports, for both schedulers, with single- and multi-host
// stores.
func TestCacheDeterministicAcrossRuns(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"sync-1host", Options{Iterations: 64, Seed: 7, Workers: 8}},
		{"sync-4hosts", Options{Iterations: 64, Seed: 7, Workers: 8, Hosts: 4}},
		{"async-4hosts", Options{Iterations: 64, Seed: 7, Workers: 8, Hosts: 4, Async: true, Staleness: -1}},
		{"async-2hosts-staleness2", Options{Iterations: 64, Seed: 7, Workers: 8, Hosts: 2, Async: true, Staleness: 2}},
	}
	for _, c := range cases {
		a := reportJSON(t, parallelRun(t, "random", 7, c.opts))
		b := reportJSON(t, parallelRun(t, "random", 7, c.opts))
		if a != b {
			t.Fatalf("%s: two runs with identical options produced different reports", c.name)
		}
	}
}

// keyedSearcher proposes configurations cycling through a fixed list —
// a scripted workload for exercising store revisits deterministically.
type keyedSearcher struct {
	cfgs []*configspace.Config
	i    int
}

func (s *keyedSearcher) Name() string { return "keyed" }
func (s *keyedSearcher) Propose() *configspace.Config {
	c := s.cfgs[s.i%len(s.cfgs)]
	s.i++
	return c.Clone()
}
func (s *keyedSearcher) Observe(search.Observation)  {}
func (s *keyedSearcher) DecisionCost() time.Duration { return 0 }

// compilePair returns two configurations differing in a compile-time
// parameter, so their image digests differ.
func compilePair(t *testing.T) (*configspace.Config, *configspace.Config) {
	t.Helper()
	m := smallLinux(t)
	a := m.Space.Default()
	b := a.Clone()
	for i, p := range m.Space.Params() {
		if p.Class == configspace.CompileTime && p.Type == configspace.Bool {
			b.SetIndex(i, configspace.BoolValue(b.Value(i).I == 0))
			return a, b
		}
	}
	t.Fatal("no compile-time bool in the small Linux space")
	return nil, nil
}

// TestSequentialStoreServesRevisits: the per-worker skip only ever
// remembers the previous image, so alternating between two compile
// assignments used to rebuild every iteration. The content-addressed
// store remembers both: two builds total, every revisit a cache hit.
func TestSequentialStoreServesRevisits(t *testing.T) {
	a, b := compilePair(t)
	m := smallLinux(t)
	app := apps.Nginx()
	run := func(disable bool) *Report {
		s := &keyedSearcher{cfgs: []*configspace.Config{a, b}}
		eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, 5)
		rep, err := eng.Run(Options{Iterations: 12, Seed: 5, DisableCache: disable})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cached := run(false)
	if cached.Builds != 2 {
		t.Fatalf("store-backed alternation built %d images, want 2", cached.Builds)
	}
	if cached.CacheHits != 10 {
		t.Fatalf("cache hits = %d, want 10 (every revisit)", cached.CacheHits)
	}
	old := run(true)
	if old.Builds != 12 {
		t.Fatalf("per-worker cache built %d images, want 12 (rebuild on every flip)", old.Builds)
	}
	if cached.ElapsedSec >= old.ElapsedSec {
		t.Fatalf("cached session (%.0fs) not faster than rebuild-every-flip (%.0fs)",
			cached.ElapsedSec, old.ElapsedSec)
	}
}

// TestCacheCapacityEvicts exercises the LRU bound through the engine:
// with room for one artifact per host, alternating two digests evicts on
// every insert, so every build misses.
func TestCacheCapacityEvicts(t *testing.T) {
	a, b := compilePair(t)
	m := smallLinux(t)
	app := apps.Nginx()
	s := &keyedSearcher{cfgs: []*configspace.Config{a, b}}
	eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, 5)
	rep, err := eng.Run(Options{Iterations: 8, Seed: 5, CacheCapacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Builds != 8 || rep.CacheHits != 0 {
		t.Fatalf("capacity-1 alternation: %d builds / %d hits, want 8 / 0 (thrashing)",
			rep.Builds, rep.CacheHits)
	}
}

// TestCrossHostFetchCharged: with the fleet split into hosts, the first
// round's image lands on one host and the other hosts pay the transfer
// term — visible as remote cache hits and a longer wall-clock than the
// single-host topology.
func TestCrossHostFetchCharged(t *testing.T) {
	one := parallelRun(t, "random", 11, Options{Iterations: 32, Seed: 11, Workers: 8})
	fleet := parallelRun(t, "random", 11, Options{Iterations: 32, Seed: 11, Workers: 8, Hosts: 4})
	if fleet.Hosts != 4 || one.Hosts != 1 {
		t.Fatalf("host counts %d/%d, want 4/1", fleet.Hosts, one.Hosts)
	}
	remote := 0
	for _, h := range fleet.History {
		if h.CacheRemote {
			remote++
		}
		if h.Host != (&Options{Workers: 8, Hosts: 4}).HostOf(h.Worker) {
			t.Fatalf("iteration %d on worker %d reported host %d", h.Iteration, h.Worker, h.Host)
		}
	}
	if remote != 6 {
		t.Fatalf("remote fetches = %d, want 6 (round one: two workers per host, one host builds)", remote)
	}
	if fleet.CacheRemoteHits != remote {
		t.Fatalf("report counts %d remote hits, history shows %d", fleet.CacheRemoteHits, remote)
	}
	for _, h := range one.History {
		if h.CacheRemote {
			t.Fatal("single-host session paid a cross-host transfer")
		}
	}
	if fleet.ElapsedSec <= one.ElapsedSec {
		t.Fatalf("4-host wall %.1fs not above 1-host wall %.1fs: transfer term not charged",
			fleet.ElapsedSec, one.ElapsedSec)
	}
	if fleet.Builds != one.Builds {
		t.Fatalf("fleet built %d images vs %d single-host: dedup must stay fleet-wide", fleet.Builds, one.Builds)
	}
}

// TestHostOfPartition pins the worker→host map: contiguous balanced
// groups, pure in (worker, workers, hosts).
func TestHostOfPartition(t *testing.T) {
	o := &Options{Workers: 8, Hosts: 4}
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for w, h := range want {
		if got := o.HostOf(w); got != h {
			t.Fatalf("HostOf(%d) = %d, want %d", w, got, h)
		}
	}
	// Hosts clamps to the worker count, and ≥1.
	if (&Options{Workers: 2, Hosts: 8}).effHosts() != 2 {
		t.Fatal("hosts must clamp to workers")
	}
	if (&Options{}).effHosts() != 1 || (&Options{}).HostOf(0) != 0 {
		t.Fatal("sequential sessions are single-host")
	}
}

// TestAsyncSharedStoreDedupes runs the dedup scenario through the async
// scheduler: the initial fill dispatches all eight workers at once, so
// the in-flight dedup (not just the store) must carry the savings.
func TestAsyncSharedStoreDedupes(t *testing.T) {
	rep := asyncRun(t, "random", 3, Options{Iterations: 64, Seed: 3, Workers: 8, Async: true, Staleness: -1})
	if rep.Builds != 1 {
		t.Fatalf("async shared store built %d images, want 1", rep.Builds)
	}
	if rep.CacheHits != 7 {
		t.Fatalf("async cache hits = %d, want 7", rep.CacheHits)
	}
	disabled := asyncRun(t, "random", 3, Options{Iterations: 64, Seed: 3, Workers: 8, Async: true, Staleness: -1,
		DisableCache: true})
	if disabled.Builds != 8 {
		t.Fatalf("async per-worker caches built %d images, want 8", disabled.Builds)
	}
}

// TestBestSoFarSeriesNaNBeforeFirstObservation: leading crashes must
// chart as "no best yet" (NaN), not as a best of 0.0 — which would be
// flat wrong for maximize metrics and absurd for minimize ones.
func TestBestSoFarSeriesNaNBeforeFirstObservation(t *testing.T) {
	rep := &Report{
		Maximize: true,
		History: []Result{
			{Crashed: true},
			{Crashed: true},
			{Metric: 5},
			{Crashed: true},
			{Metric: 9},
		},
	}
	series := rep.BestSoFarSeries()
	for i := 0; i < 2; i++ {
		if !math.IsNaN(series[i]) {
			t.Fatalf("series[%d] = %v before any observation, want NaN", i, series[i])
		}
	}
	for _, w := range []struct {
		i    int
		want float64
	}{{2, 5}, {3, 5}, {4, 9}} {
		if series[w.i] != w.want {
			t.Fatalf("series[%d] = %v, want %v", w.i, series[w.i], w.want)
		}
	}
	// Same semantics on a minimize metric: the hold value appears only
	// once observed, never a fake 0 that no real latency could beat.
	rep.Maximize = false
	series = rep.BestSoFarSeries()
	if !math.IsNaN(series[0]) || series[2] != 5 || series[4] != 5 {
		t.Fatalf("minimize series wrong: %v", series)
	}
}
