package experiments

import (
	"fmt"

	"wayfinder/internal/apps"
	"wayfinder/internal/core"
	"wayfinder/internal/search"
)

// Scaling reproduces the Fig 7-style worker-scaling study on the parallel
// evaluation engine: the same search session (equal iteration budget,
// same seed, random search so every worker count explores comparably) run
// at 1, 2, 4, ... workers up to Scale.Workers. The platform evaluates
// configurations on worker VMs concurrently, so the virtual wall-clock
// should fall near-linearly with the pool size while the aggregate
// compute time — what the fleet actually burns — stays flat, up to the
// per-worker image builds and end-of-session stragglers.
func Scaling(scale Scale) (*Result, error) {
	res := &Result{ID: "scaling", Title: "Parallel evaluation: virtual wall-clock vs worker count"}
	maxW := scale.Workers
	if maxW < 1 {
		maxW = 1
	}
	var counts []int
	for w := 1; w <= maxW; w *= 2 {
		counts = append(counts, w)
	}
	if last := counts[len(counts)-1]; last != maxW {
		counts = append(counts, maxW)
	}

	app := apps.Nginx()
	t := Table{
		Title:   "Worker scaling at an equal iteration budget",
		Columns: []string{"workers", "wall s", "compute s", "speedup", "efficiency"},
	}
	var xs, wall, speedup []float64
	baseWall := 0.0
	for _, w := range counts {
		m := newLinuxRuntimeFavored(scale, 1)
		rep, err := session(m, app, &core.PerfMetric{App: app}, search.NewRandom(m.Space, 1),
			core.Options{Iterations: scale.Iterations, Seed: 1, Workers: w})
		if err != nil {
			return nil, err
		}
		if len(rep.History) != scale.Iterations {
			return nil, fmt.Errorf("scaling: W=%d ran %d iterations, want %d", w, len(rep.History), scale.Iterations)
		}
		if w == 1 {
			baseWall = rep.ElapsedSec
		}
		sp := baseWall / rep.ElapsedSec
		xs = append(xs, float64(w))
		wall = append(wall, rep.ElapsedSec)
		speedup = append(speedup, sp)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			fmtF(rep.ElapsedSec, 0),
			fmtF(rep.ComputeSec, 0),
			fmtF(sp, 2) + "x",
			fmtF(100*sp/float64(w), 0) + "%",
		})
	}
	res.Tables = append(res.Tables, t)
	res.Series = append(res.Series,
		Series{Name: "wall-clock-s", X: xs, Y: wall},
		Series{Name: "speedup", X: xs, Y: speedup},
	)
	res.Notes = append(res.Notes,
		"paper shape: wall-clock falls near-linearly with workers; losses are per-worker image builds and straggler rounds")
	return res, nil
}

// Straggler measures what the round barrier costs under heterogeneous
// worker speeds, and how much of it the asynchronous bounded-staleness
// scheduler recovers. The same session (equal iteration budget, same
// seed) runs three ways: the synchronous pool on uniform workers (the
// straggler-free reference), the synchronous pool with one worker slowed
// by Scale.Straggler (static iteration→worker placement forces 1/W of the
// work onto the slow machine, so the wall-clock balloons toward the
// straggler's total), and the asynchronous scheduler on the same slowed
// fleet (placement follows virtual availability, so the straggler
// naturally receives less work). The headline number is the recovery
// fraction: the share of the barrier-lost wall-clock the async scheduler
// wins back.
func Straggler(scale Scale) (*Result, error) {
	res := &Result{ID: "straggler", Title: "Async scheduler vs the round barrier under a straggler worker"}
	w := scale.Workers
	if w < 2 {
		w = 4
	}
	slow := scale.Straggler
	if slow <= 1 {
		slow = 4
	}
	factors := core.StragglerFleet(w, slow)

	app := apps.Nginx()
	run := func(async bool, speed []float64) (*core.Report, error) {
		m := newLinuxRuntimeFavored(scale, 1)
		opts := core.Options{
			Iterations:         scale.Iterations,
			Seed:               1,
			Workers:            w,
			WorkerSpeedFactors: speed,
		}
		if async {
			opts.Async = true
			opts.Staleness = -1 // unbounded
		}
		return session(m, app, &core.PerfMetric{App: app}, search.NewRandom(m.Space, 1), opts)
	}

	reference, err := run(false, nil)
	if err != nil {
		return nil, err
	}
	syncStrag, err := run(false, factors)
	if err != nil {
		return nil, err
	}
	asyncStrag, err := run(true, factors)
	if err != nil {
		return nil, err
	}

	t := Table{
		Title:   fmt.Sprintf("%d workers, %.0fx straggler on worker %d, equal iteration budget", w, slow, w-1),
		Columns: []string{"scheduler", "straggler", "wall s", "compute s", "idle s", "utilization"},
	}
	for _, row := range []struct {
		name, strag string
		rep         *core.Report
	}{
		{"sync", "no", reference},
		{"sync", "yes", syncStrag},
		{"async", "yes", asyncStrag},
	} {
		t.Rows = append(t.Rows, []string{
			row.name,
			row.strag,
			fmtF(row.rep.ElapsedSec, 0),
			fmtF(row.rep.ComputeSec, 0),
			fmtF(row.rep.IdleSec, 0),
			fmtF(100*row.rep.Utilization, 0) + "%",
		})
	}
	res.Tables = append(res.Tables, t)

	lost := syncStrag.ElapsedSec - reference.ElapsedSec
	recoveredSec := syncStrag.ElapsedSec - asyncStrag.ElapsedSec
	recovery := 0.0
	if lost > 0 {
		recovery = recoveredSec / lost
	}
	res.Tables = append(res.Tables, Table{
		Title:   "Wall-clock lost to the straggler barrier and recovered by async dispatch",
		Columns: []string{"lost s", "recovered s", "recovery"},
		Rows: [][]string{{
			fmtF(lost, 0), fmtF(recoveredSec, 0), fmtF(100*recovery, 0) + "%",
		}},
	})
	res.Notes = append(res.Notes, fmt.Sprintf(
		"static placement gives the %.0fx straggler 1/%d of the iterations, so the sync wall-clock tracks the straggler; async placement follows virtual availability and recovers %.0f%% of the lost wall-clock",
		slow, w, 100*recovery))
	if recovery > 1 {
		res.Notes = append(res.Notes,
			"recovery above 100%: async also eliminates the ordinary barrier losses the straggler-free sync reference still pays (duration jitter makes every round's maximum exceed its mean)")
	}
	return res, nil
}
