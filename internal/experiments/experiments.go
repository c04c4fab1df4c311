// Package experiments reproduces every table and figure of the paper's
// evaluation (§2 and §4) on the simulated substrate. Each experiment
// returns a structured Result (tables and data series) that the wfbench
// command renders and the repository's benchmarks execute.
//
// Experiments accept a Scale so the same code serves three audiences:
// QuickScale for tests and testing.B benchmarks (minutes of CPU),
// PaperScale for full reproductions matching the paper's iteration
// counts, budgets, and repetition counts.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// Scale sizes an experiment.
type Scale struct {
	// Seeds is the number of repeated runs averaged per curve (paper: 5).
	Seeds int
	// Iterations is the Linux search session length (paper: 250).
	Iterations int
	// RandomConfigs is Fig 2's sample count (paper: 800 valid).
	RandomConfigs int
	// PerAppConfigs is Fig 5's per-application sample count (paper: 2000).
	PerAppConfigs int
	// TimeBudgetSec is the virtual budget of Figs 9–11 (paper: 3 h).
	TimeBudgetSec float64
	// SynthIters is Fig 7's iteration count (paper: 300).
	SynthIters int
	// Workers is the largest worker-pool size the scaling experiment
	// sweeps to (paper: the platform's worker-VM fleet).
	Workers int
	// Straggler is the slowdown factor of the straggler experiment's slow
	// worker (4 = one worker evaluates four times slower).
	Straggler float64
	// Hosts is the fleet size of the cachehit/fleet experiments' multi-host
	// runs (workers are split into this many simulated hosts with
	// independent artifact-store partitions).
	Hosts int
	// ServeJobs/ServeTenants/ServeIterations size the serve experiment's
	// daemon load: total concurrent jobs, tenants they are spread over,
	// and each job's observation budget.
	ServeJobs       int
	ServeTenants    int
	ServeIterations int
	// FaultSchedule optionally replaces the elasticity experiment's
	// built-in outage ladder with one custom rung (fault DSL; the
	// wfbench -faults value).
	FaultSchedule string
	// Dispatch optionally overrides the fleet experiment's placement
	// policy ("static" or "locality"; the wfbench -dispatch value).
	Dispatch string
	// Linux sizes the simulated Linux profile.
	Linux simos.LinuxOptions
}

// PaperScale matches the paper's experiment sizes.
func PaperScale() Scale {
	return Scale{
		Seeds:           5,
		Iterations:      250,
		RandomConfigs:   800,
		PerAppConfigs:   2000,
		TimeBudgetSec:   3 * 3600,
		SynthIters:      300,
		Workers:         16,
		Straggler:       4,
		Hosts:           4,
		ServeJobs:       256,
		ServeTenants:    8,
		ServeIterations: 120,
		Linux:           simos.DefaultLinuxOptions(),
	}
}

// QuickScale shrinks everything for tests and benchmarks while keeping the
// qualitative shapes.
func QuickScale() Scale {
	return Scale{
		Seeds:           2,
		Iterations:      120,
		RandomConfigs:   200,
		PerAppConfigs:   400,
		TimeBudgetSec:   6000,
		SynthIters:      60,
		Workers:         8,
		Straggler:       4,
		Hosts:           4,
		ServeJobs:       112,
		ServeTenants:    8,
		ServeIterations: 60,
		Linux:           simos.LinuxOptions{FillerRuntime: 80, FillerBoot: 10, FillerCompile: 30, Seed: 1},
	}
}

// Series is one named data curve.
type Series struct {
	Name string    `json:"name"`
	X    []float64 `json:"x"`
	Y    []float64 `json:"y"`
}

// Table is one rendered table.
type Table struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// Result is one experiment's output.
type Result struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	Tables []Table  `json:"tables,omitempty"`
	Series []Series `json:"series,omitempty"`
	Notes  []string `json:"notes,omitempty"`
}

// Render pretty-prints the result.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "\n%s\n", t.Title)
		widths := make([]int, len(t.Columns))
		for i, c := range t.Columns {
			widths[i] = len(c)
		}
		for _, row := range t.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteString("\n")
		}
		writeRow(t.Columns)
		writeRow(dashes(widths))
		for _, row := range t.Rows {
			writeRow(row)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\nseries %-28s (%3d pts)", s.Name, len(s.Y))
		if len(s.Y) > 0 {
			fmt.Fprintf(&b, " start=%-9.4g end=%-9.4g %s",
				s.Y[0], s.Y[len(s.Y)-1], sparkline(s.Y, 40))
		}
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// sparkline renders ys as a width-character Unicode block-height strip —
// enough to see convergence shapes in terminal output.
func sparkline(ys []float64, width int) string {
	if len(ys) == 0 || width <= 0 {
		return ""
	}
	blocks := []rune("▁▂▃▄▅▆▇█")
	lo, hi := ys[0], ys[0]
	for _, y := range ys {
		if y < lo {
			lo = y
		}
		if y > hi {
			hi = y
		}
	}
	span := hi - lo
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		y := ys[i*len(ys)/width]
		level := 0
		if span > 0 {
			level = int((y - lo) / span * float64(len(blocks)-1))
		}
		out[i] = blocks[level]
	}
	return string(out)
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

// IDs lists the experiment identifiers in paper order.
func IDs() []string {
	return []string{
		"fig1", "table1", "fig2", "fig5", "fig6", "table2", "fig7", "fig8",
		"table3", "fig9", "fig10", "fig11", "table4", "scaling", "straggler",
		"cachehit", "fleet", "elasticity", "locality", "serve", "transferscale",
	}
}

// Run dispatches an experiment by ID.
func Run(id string, scale Scale) (*Result, error) {
	switch id {
	case "fig1":
		return Fig1(scale)
	case "table1":
		return Table1(scale)
	case "fig2":
		return Fig2(scale)
	case "fig5":
		return Fig5(scale)
	case "fig6":
		return Fig6(scale)
	case "table2":
		return Table2(scale)
	case "fig7":
		return Fig7(scale)
	case "fig8":
		return Fig8(scale)
	case "table3":
		return Table3(scale)
	case "fig9":
		return Fig9(scale)
	case "fig10":
		return Fig10(scale)
	case "fig11":
		return Fig11(scale)
	case "table4":
		return Table4(scale)
	case "scaling":
		return Scaling(scale)
	case "straggler":
		return Straggler(scale)
	case "cachehit":
		return Cachehit(scale)
	case "fleet":
		return Fleet(scale)
	case "elasticity":
		return Elasticity(scale)
	case "locality":
		return Locality(scale)
	case "serve":
		return Serve(scale)
	case "transferscale":
		return Transferscale(scale)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			id, strings.Join(IDs(), ", "))
	}
}

// newLinuxRuntimeFavored builds the §4.1 setup: the Linux profile with
// compile-time exploration pinned (runtime parameters favored).
func newLinuxRuntimeFavored(scale Scale, seed uint64) *simos.Model {
	opts := scale.Linux
	opts.Seed = 1 // the space/hidden model is fixed; seeds vary the search
	m := simos.NewLinux(opts)
	m.Space.Favor(configspace.CompileTime, 0)
	_ = seed
	return m
}

// session runs one session to completion through the Session state
// machine and returns the report.
func session(m *simos.Model, app *simos.App, metric core.Metric, s search.Searcher,
	opts core.Options) (*core.Report, error) {
	var clock vm.Clock
	eng := core.NewEngine(m, app, metric, s, &clock, opts.Seed)
	sess, err := eng.NewSession(opts)
	if err != nil {
		return nil, err
	}
	return sess.Run(context.Background())
}

// fmtF formats a float compactly.
func fmtF(v float64, digits int) string {
	return fmt.Sprintf("%.*f", digits, v)
}

// meanOf averages a slice.
func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// resampleToGrid linearly resamples an (x, y) step series onto a uniform
// grid of n points over [0, xMax], holding the last value. Used to average
// runs whose evaluations finish at different virtual times.
func resampleToGrid(xs, ys []float64, xMax float64, n int) []float64 {
	out := make([]float64, n)
	if len(xs) == 0 {
		return out
	}
	j := 0
	cur := ys[0]
	for i := 0; i < n; i++ {
		t := xMax * float64(i) / float64(n-1)
		for j < len(xs) && xs[j] <= t {
			cur = ys[j]
			j++
		}
		out[i] = cur
	}
	return out
}

// averageRuns resamples per-run series to a grid and averages them.
func averageRuns(runs []*core.Report, value func(*core.Report) []float64, xMax float64, n int) Series {
	grid := make([]float64, n)
	for i := range grid {
		grid[i] = xMax * float64(i) / float64(n-1)
	}
	acc := make([]float64, n)
	for _, rep := range runs {
		xs := make([]float64, len(rep.History))
		for i, h := range rep.History {
			xs[i] = h.EndSec
		}
		r := resampleToGrid(xs, value(rep), xMax, n)
		for i := range acc {
			acc[i] += r[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(len(runs))
	}
	return Series{X: grid, Y: acc}
}

// sortedCopy returns a sorted copy.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}
