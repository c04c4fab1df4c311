package core

import (
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// scaledMetric is PerfMetric rescaled by a constant factor.
type scaledMetric struct {
	*PerfMetric
	scale float64
}

// Measure implements Metric.
func (sm scaledMetric) Measure(m *simos.Model, app *simos.App, c *configspace.Config, noise *rng.RNG) float64 {
	return sm.PerfMetric.Measure(m, app, c, noise) * sm.scale
}

// TestBayesianGolden pins the canonical reports of windowed (64)
// Bayesian sessions on Unikraft, sequential and through the 4-worker
// constant-liar ProposeBatch. Unikraft's encoded configurations are
// short, so every kernel value stays in normal floating-point range.
// The Bayesian GP has unit signal variance and does not rescale its
// targets, so on raw req/s every EI underflows to 0 and the first pool
// candidate wins the tie; the "scaled" cases divide throughput by 10⁴,
// which keeps EI positive and makes the pick a real ranking of the pool.
// A change to the distance or forward-solve arithmetic that moves any
// score's bits then moves a pick and the digest. The digests were
// captured before the acquisition kernels gained their SIMD paths.
func TestBayesianGolden(t *testing.T) {
	cases := []struct {
		name  string
		scale float64
		opts  Options
		want  string
	}{
		{"sequential", 1, Options{Iterations: 200, Seed: 5},
			"d2c54757aa31025f2ab7e67c2f69d28ded3e6dfa355c7af84f22c56c59362de8"},
		{"scaled-sequential", 1e-4, Options{Iterations: 200, Seed: 5},
			"dba75ec2cedcc62445989c36a1c789991956da975bbf605735a576d0c859d684"},
		{"scaled-batch-w4", 1e-4, Options{Iterations: 120, Seed: 5, Workers: 4},
			"c214951501049e47fd3616125edc0e8d3389666f9862f8bc3be6fc45ec5b67bd"},
	}
	for _, tc := range cases {
		m := simos.NewUnikraft(1)
		app := apps.Nginx()
		s := search.NewBayesian(m.Space, true, 5)
		if err := s.SetSurrogateWindow(64); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(m, app, scaledMetric{&PerfMetric{App: app}, tc.scale}, s, &vm.Clock{}, 5)
		rep, err := eng.Run(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reportHash(t, rep); got != tc.want {
			t.Errorf("%s: report hash %s, want %s — the Bayesian acquisition drifted", tc.name, got, tc.want)
		}
	}
}
