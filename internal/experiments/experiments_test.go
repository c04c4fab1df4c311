package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// tinyScale keeps the experiment tests fast; shape assertions are loose.
func tinyScale() Scale {
	s := QuickScale()
	s.Seeds = 1
	s.Iterations = 60
	s.RandomConfigs = 120
	s.PerAppConfigs = 200
	s.TimeBudgetSec = 1200
	s.SynthIters = 30
	return s
}

func cell(t *testing.T, tab Table, row int, col string) string {
	t.Helper()
	for i, c := range tab.Columns {
		if c == col {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("column %q not found in %v", col, tab.Columns)
	return ""
}

func cellF(t *testing.T, tab Table, row int, col string) float64 {
	t.Helper()
	s := strings.TrimSuffix(strings.TrimSuffix(cell(t, tab, row, col), "x"), "%")
	s = strings.TrimSuffix(s, "s")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// TestRunUnknownID pins the registry's order and the unknown-ID error,
// which names every experiment there is. Nothing runs here.
func TestRunUnknownID(t *testing.T) {
	want := []string{
		"fig1", "table1", "fig2", "fig5", "fig6", "table2", "fig7", "fig8",
		"table3", "fig9", "fig10", "fig11", "table4", "scaling", "straggler",
		"cachehit", "fleet", "elasticity", "locality", "transferscale",
	}
	if got := IDs(); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %q, want %q", got, want)
	}
	for _, id := range []string{"fig99", "serve", ""} {
		_, err := Run(id, tinyScale())
		wantErr := fmt.Sprintf("experiments: unknown experiment %q (have %s)", id, strings.Join(want, ", "))
		if err == nil || err.Error() != wantErr {
			t.Fatalf("Run(%q) error %v, want %q", id, err, wantErr)
		}
	}
}

func TestIDsDispatch(t *testing.T) {
	// Every advertised ID must dispatch (exercised cheaply: only fig1 and
	// table1 actually run here; the rest are covered by their own tests).
	for _, id := range []string{"fig1", "table1"} {
		res, err := Run(id, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if res.ID != id {
			t.Fatalf("result ID %q for %q", res.ID, id)
		}
		if res.Render() == "" {
			t.Fatal("empty render")
		}
	}
}

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	ys := res.Series[0].Y
	if len(ys) != 13 {
		t.Fatalf("%d versions, want 13", len(ys))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] <= ys[i-1] {
			t.Fatal("option count must grow monotonically")
		}
	}
	if ys[0] > 7000 || ys[len(ys)-1] < 20000 {
		t.Fatalf("trajectory endpoints wrong: %v .. %v", ys[0], ys[len(ys)-1])
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	res, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	want := map[string]string{
		"bool": "7585", "tristate": "10034", "string": "154",
		"hex": "94", "int": "3405", "boot-time": "231", "runtime": "13328",
	}
	for _, col := range slices.Sorted(maps.Keys(want)) {
		if got, wantV := cell(t, tab, 0, col), want[col]; got != wantV {
			t.Errorf("%s = %s, want %s", col, got, wantV)
		}
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if rate := cellF(t, tab, 0, "crash rate"); rate < 0.2 || rate > 0.45 {
		t.Fatalf("crash rate %v, want ≈1/3", rate)
	}
	if rel := cellF(t, tab, 0, "max/default"); rel < 1.02 || rel > 1.3 {
		t.Fatalf("best/default = %v, want ≈1.1", rel)
	}
	ys := res.Series[0].Y
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatal("sorted series must be ascending")
		}
	}
	if spread := ys[len(ys)-1] / ys[0]; spread < 1.3 {
		t.Fatalf("throughput spread %vx, want large", spread)
	}
}

func TestFig5ClusterStructure(t *testing.T) {
	res, err := Fig5(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	get := func(r int, name string) float64 { return cellF(t, tab, r, name) }
	// Diagonal = 1.
	order := []string{"nginx", "redis", "sqlite", "npb"}
	for i, name := range order {
		if get(i, name) != 1 {
			t.Fatalf("diagonal %s = %v", name, get(i, name))
		}
	}
	// System-intensive cluster beats NPB pairings.
	sysPairs := []float64{get(0, "redis"), get(0, "sqlite"), get(1, "sqlite")}
	npbPairs := []float64{get(0, "npb"), get(1, "npb"), get(2, "npb")}
	for _, s := range sysPairs {
		for _, n := range npbPairs {
			if s <= n {
				t.Fatalf("cluster structure broken: sys %v <= npb %v\n%s", s, n, res.Render())
			}
		}
	}
}

func TestFig7UnicornGrowsDeepTuneFlat(t *testing.T) {
	res, err := Fig7(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]Series{}
	for _, s := range res.Series {
		series[s.Name] = s
	}
	uni := series["unicorn-mem-bytes"].Y
	if uni[len(uni)-1] <= uni[0] {
		t.Fatal("unicorn memory should grow over iterations")
	}
	// Unicorn's per-iteration fit cost (deterministic sample-touch count)
	// grows with the history; DeepTune's update is bounded by its training
	// window, so its per-update sample count is capped. Wall-clock at tiny
	// scales is too noisy to compare, so the assertion uses the work
	// counter for Unicorn and the structural window bound for DeepTune.
	work := series["unicorn-work"].Y
	n := len(work) / 5
	if n == 0 {
		n = 1
	}
	if meanOf(work[len(work)-n:]) <= 2*meanOf(work[:n]) {
		t.Fatalf("unicorn work did not grow: head %v tail %v",
			meanOf(work[:n]), meanOf(work[len(work)-n:]))
	}
	dt := series["deeptune-time-s"].Y
	if len(dt) != len(work) {
		t.Fatal("series lengths differ")
	}
	for _, v := range dt {
		if v <= 0 {
			t.Fatal("deeptune update cost not recorded")
		}
	}
}

func TestFig8EvaluationDominates(t *testing.T) {
	scale := tinyScale()
	res, err := Fig8(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	update := cellF(t, tab, 0, "seconds")
	if update > 2 {
		t.Fatalf("DeepTune update = %vs, want <2s wall-clock", update)
	}
	for row := 1; row < len(tab.Rows); row++ {
		test := cellF(t, tab, row, "seconds")
		if test < 10*update {
			t.Fatalf("evaluation (%vs) should dominate update (%vs)", test, update)
		}
	}
}

func TestFig9Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("search-session experiment")
	}
	scale := tinyScale()
	scale.TimeBudgetSec = 8000
	res, err := Fig9(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// rows: random, bayesian, wayfinder
	rnd := cellF(t, tab, 0, "best req/s")
	wf := cellF(t, tab, 2, "best req/s")
	if wf <= rnd {
		t.Fatalf("wayfinder (%v) should beat random (%v) on unikraft\n%s", wf, rnd, res.Render())
	}
	if rel := cellF(t, tab, 2, "vs default"); rel < 1.5 {
		t.Fatalf("wayfinder unikraft improvement %vx, want large headroom", rel)
	}
}

func TestFig10Reduction(t *testing.T) {
	if testing.Short() {
		t.Skip("search-session experiment")
	}
	scale := tinyScale()
	scale.TimeBudgetSec = 4000
	res, err := Fig10(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	rndBest := cellF(t, tab, 0, "best MB")
	dtBest := cellF(t, tab, 1, "best MB")
	if dtBest > 212 || rndBest > 215 {
		t.Fatalf("footprints did not shrink: random %v, deeptune %v", rndBest, dtBest)
	}
	if red := cellF(t, tab, 1, "reduction"); red < 2 {
		t.Fatalf("deeptune reduction %v%%, want a few percent at tiny scale", red)
	}
}

func TestTable4BeatsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("search-session experiment")
	}
	scale := tinyScale()
	scale.TimeBudgetSec = 2500
	res, err := Table4(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Rows) < 3 {
		t.Fatalf("want ≥2 top rows + baseline, got %d", len(tab.Rows))
	}
	last := tab.Rows[len(tab.Rows)-1]
	if last[0] != "cozart" {
		t.Fatalf("last row should be the cozart baseline: %v", last)
	}
	top1Thr := cellF(t, tab, 0, "throughput (req/s)")
	baseThr, err2 := strconv.ParseFloat(last[3], 64)
	if err2 != nil {
		t.Fatal(err2)
	}
	if top1Thr < baseThr*0.95 {
		t.Fatalf("top score throughput %v far below baseline %v", top1Thr, baseThr)
	}
}

func TestRenderContainsTables(t *testing.T) {
	res, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	out := res.Render()
	for _, want := range []string{"table1", "boot-time", "13328"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestResampleToGrid(t *testing.T) {
	xs := []float64{1, 2, 3}
	ys := []float64{10, 20, 30}
	out := resampleToGrid(xs, ys, 4, 5)
	// grid t = 0,1,2,3,4 → values 10 (nothing yet, holds first), 10, 20, 30, 30
	want := []float64{10, 10, 20, 30, 30}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("resample = %v, want %v", out, want)
		}
	}
}

func TestStragglerRecovery(t *testing.T) {
	scale := tinyScale()
	scale.Iterations = 120
	scale.Workers = 8
	scale.Straggler = 4
	res, err := Straggler(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// Rows: sync/no-straggler, sync/straggler, async/straggler.
	ref := cellF(t, tab, 0, "wall s")
	syncWall := cellF(t, tab, 1, "wall s")
	asyncWall := cellF(t, tab, 2, "wall s")
	if syncWall < 2*ref {
		t.Fatalf("4x straggler barely hurt the sync barrier (%.0fs vs %.0fs)\n%s", syncWall, ref, res.Render())
	}
	if asyncWall >= syncWall {
		t.Fatalf("async (%.0fs) did not beat the sync barrier (%.0fs)\n%s", asyncWall, syncWall, res.Render())
	}
	// Acceptance bar: async recovers ≥80% of the straggler-lost wall-clock.
	if rec := cellF(t, res.Tables[1], 0, "recovery"); rec < 80 {
		t.Fatalf("recovery %.0f%%, want ≥80%%\n%s", rec, res.Render())
	}
	// The async scheduler should also keep the fleet busier.
	syncUtil := cellF(t, tab, 1, "utilization")
	asyncUtil := cellF(t, tab, 2, "utilization")
	if asyncUtil <= syncUtil {
		t.Fatalf("async utilization %.0f%% not above sync %.0f%%\n%s", asyncUtil, syncUtil, res.Render())
	}
}

func TestScalingSpeedup(t *testing.T) {
	scale := tinyScale()
	scale.Iterations = 160
	scale.Workers = 8
	res, err := Scaling(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if got := cell(t, tab, 0, "workers"); got != "1" {
		t.Fatalf("first row workers = %s, want 1", got)
	}
	last := len(tab.Rows) - 1
	if got := cell(t, tab, last, "workers"); got != "8" {
		t.Fatalf("last row workers = %s, want 8", got)
	}
	// Acceptance bar: ≥4x wall-clock speedup at 8 workers for an equal
	// iteration budget.
	if sp := cellF(t, tab, last, "speedup"); sp < 4 {
		t.Fatalf("8-worker speedup %.2fx, want ≥4x\n%s", sp, res.Render())
	}
	// Wall-clock must fall monotonically as workers double.
	series := map[string]Series{}
	for _, s := range res.Series {
		series[s.Name] = s
	}
	wall := series["wall-clock-s"].Y
	for i := 1; i < len(wall); i++ {
		if wall[i] >= wall[i-1] {
			t.Fatalf("wall-clock not monotone: %v", wall)
		}
	}
	// Aggregate compute stays in the sequential ballpark (per-worker
	// builds are the only systematic overhead).
	seq := cellF(t, tab, 0, "compute s")
	par := cellF(t, tab, last, "compute s")
	if par > 1.5*seq {
		t.Fatalf("8-worker compute %.0fs far above sequential %.0fs", par, seq)
	}
}

func TestCachehitDedupesToSequentialBuilds(t *testing.T) {
	scale := tinyScale()
	scale.Workers = 8
	scale.Hosts = 4
	res, err := Cachehit(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// Rows: sequential, per-worker caches, shared store, shared w/ hosts.
	seq := cellF(t, tab, 0, "builds")
	dup := cellF(t, tab, 1, "builds")
	shared := cellF(t, tab, 2, "builds")
	fleet := cellF(t, tab, 3, "builds")
	if dup < 8*seq {
		t.Fatalf("per-worker caches built %.0f images vs sequential %.0f — duplication pathology missing\n%s",
			dup, seq, res.Render())
	}
	// Acceptance bar: the shared store brings the W=8 build count within
	// 10%% of the sequential session's, single- and multi-host alike.
	if shared > 1.1*seq {
		t.Fatalf("shared store builds %.0f not within 10%% of sequential %.0f\n%s", shared, seq, res.Render())
	}
	if fleet > 1.1*seq {
		t.Fatalf("multi-host builds %.0f not within 10%% of sequential %.0f\n%s", fleet, seq, res.Render())
	}
	if hits := cellF(t, tab, 2, "cache hits"); hits < dup-shared {
		t.Fatalf("cache hits %.0f below the %.0f builds deduped\n%s", hits, dup-shared, res.Render())
	}
	// The multi-host run pays cross-host transfers for the same dedup.
	if remote := cellF(t, tab, 3, "remote"); remote == 0 {
		t.Fatalf("4-host run shows no remote fetches\n%s", res.Render())
	}
	if saved := cellF(t, res.Tables[1], 0, "avoided"); saved != dup-shared {
		t.Fatalf("summary says %.0f builds avoided, table says %.0f\n%s", saved, dup-shared, res.Render())
	}
}

func TestFleetTransferCostInWallClock(t *testing.T) {
	scale := tinyScale()
	scale.Workers = 8
	res, err := Fleet(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	// Host-ladder rows (1, 2, 4, 8) then the per-worker-cache baseline.
	last := len(tab.Rows) - 2
	rounds := cellF(t, tab, 0, "builds")
	for row := 0; row <= last; row++ {
		if b := cellF(t, tab, row, "builds"); b != rounds {
			t.Fatalf("row %d built %.0f images, want the fleet-wide %.0f (one per round)\n%s",
				row, b, rounds, res.Render())
		}
	}
	// Acceptance bar: cross-host transfers show up in the wall-clock —
	// monotone in the host count, and remote fetches grow with it.
	prevWall, prevRemote := 0.0, -1.0
	for row := 0; row <= last; row++ {
		wall := cellF(t, tab, row, "wall s")
		remote := cellF(t, tab, row, "remote")
		if wall < prevWall {
			t.Fatalf("wall-clock fell from %.0fs to %.0fs as hosts grew\n%s", prevWall, wall, res.Render())
		}
		if remote <= prevRemote {
			t.Fatalf("remote fetches did not grow with the host count\n%s", res.Render())
		}
		prevWall, prevRemote = wall, remote
	}
	if spread := cellF(t, res.Tables[1], 0, "transfer cost s"); spread <= 0 {
		t.Fatalf("transfer cost %.0fs not positive\n%s", spread, res.Render())
	}
	// The no-store baseline rebuilds the round image on every worker.
	noCache := len(tab.Rows) - 1
	if b := cellF(t, tab, noCache, "builds"); b < 7*rounds {
		t.Fatalf("per-worker baseline built %.0f images, want ≈8 per round\n%s", b, res.Render())
	}
	if saved := cellF(t, res.Tables[1], 0, "compute saved s"); saved <= 0 {
		t.Fatalf("compute saved %.0fs not positive\n%s", saved, res.Render())
	}
}

// TestElasticityNoLostWork pins the robustness acceptance bar: every
// outage rung keeps the complete observation history (retry-elsewhere
// loses nothing), the outage is paid in wall-clock — monotone
// nondecreasing in downtime — and the whole ladder is reproducible.
func TestElasticityNoLostWork(t *testing.T) {
	scale := tinyScale()
	res, err := Elasticity(scale)
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[0]
	if len(tab.Rows) < 3 {
		t.Fatalf("expected an outage ladder, got %d rungs\n%s", len(tab.Rows), res.Render())
	}
	prevDown, prevWall := -1.0, 0.0
	for row := range tab.Rows {
		if lost := cellF(t, tab, row, "lost"); lost != 0 {
			t.Fatalf("rung %d lost %.0f observations\n%s", row, lost, res.Render())
		}
		if obs := cellF(t, tab, row, "observed"); obs != float64(scale.Iterations) {
			t.Fatalf("rung %d observed %.0f of %d\n%s", row, obs, scale.Iterations, res.Render())
		}
		down := cellF(t, tab, row, "downtime s")
		wall := cellF(t, tab, row, "wall s")
		if down <= prevDown {
			t.Fatalf("downtime ladder not increasing at rung %d\n%s", row, res.Render())
		}
		if wall < prevWall {
			t.Fatalf("wall-clock fell from %.0fs to %.0fs as downtime grew\n%s", prevWall, wall, res.Render())
		}
		prevDown, prevWall = down, wall
	}
	if r := cellF(t, tab, len(tab.Rows)-1, "retries"); r <= 0 {
		t.Fatalf("deepest outage triggered no retries\n%s", res.Render())
	}
	// Determinism: the ladder is a pure function of the scale.
	again, err := Elasticity(scale)
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != again.Render() {
		t.Fatal("elasticity ladder diverged between identical runs")
	}
}

// TestLocalityRecovery pins the dispatch acceptance bar: locality-aware
// placement recovers at least 70% of the static baseline's cross-host
// transfer time on the recurring-image workload.
func TestLocalityRecovery(t *testing.T) {
	res, err := Locality(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	tab := res.Tables[1]
	if static := cellF(t, tab, 0, "static transfer s"); static <= 0 {
		t.Fatalf("static baseline paid no cross-host transfers — the workload is not exercising placement\n%s", res.Render())
	}
	if rec := cellF(t, tab, 0, "recovered %"); rec < 70 {
		t.Fatalf("locality recovered %.0f%% of the transfer bill, want ≥ 70%%\n%s", rec, res.Render())
	}
}

// TestTransferscaleMonotone pins the tuning-memory acceptance bar: the
// median observations-to-target falls strictly as the transfer corpus
// grows, across at least three corpus sizes. Runs at QuickScale — the
// ladder's separation is calibrated against those budgets.
func TestTransferscaleMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("search-session experiment")
	}
	res, err := Transferscale(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]Series{}
	for _, s := range res.Series {
		series[s.Name] = s
	}
	med := series["obs-to-target-median"].Y
	if len(med) < 3 {
		t.Fatalf("corpus-size ladder has %d rungs, want ≥3", len(med))
	}
	for i := 1; i < len(med); i++ {
		if med[i] >= med[i-1] {
			t.Fatalf("median obs-to-target not strictly decreasing: %v\n%s", med, res.Render())
		}
	}
	// Warm runs actually consume the transferred seeds.
	tab := res.Tables[0]
	for row := 1; row < len(tab.Rows); row++ {
		if s := cellF(t, tab, row, "mean corpus seeds"); s <= 0 {
			t.Fatalf("warm row %d used no corpus seeds\n%s", row, res.Render())
		}
	}
	if got := res.Notes[len(res.Notes)-1]; !strings.Contains(got, "strictly decreasing across the ladder: true") {
		t.Fatalf("monotonicity note: %s", got)
	}
}
