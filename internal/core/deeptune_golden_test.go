package core

import (
	"testing"

	"wayfinder/internal/apps"
	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/search"
	"wayfinder/internal/simos"
	"wayfinder/internal/vm"
)

// TestDeepTuneGolden pins the canonical reports of windowed (64)
// DeepTune sessions: runtime-only Linux/nginx, the shape of the
// deeptune-resume benchmark workload, sequential and through the
// 4-worker native ProposeBatch, and a sequential Unikraft session. Every
// pick ranks the pool by the DTM's predictions and the dissimilarity
// term, and every retrain feeds the next one, so a change to the dense,
// gradient, optimizer or distance arithmetic that moves any bit moves a
// pick and the digest. The digests were captured before those kernels
// gained their SIMD paths.
func TestDeepTuneGolden(t *testing.T) {
	linux := func() *simos.Model {
		m := simos.NewLinux(simos.DefaultLinuxOptions())
		m.Space.Favor(configspace.CompileTime, 0)
		return m
	}
	cases := []struct {
		name  string
		model func() *simos.Model
		opts  Options
		want  string
	}{
		{"linux-sequential", linux, Options{Iterations: 120, Seed: 5},
			"3d28ac5bb1a838719b8f7a40270f7f5577f7139ddbcc87aaf4f7772d2cd8e68c"},
		{"linux-batch-w4", linux, Options{Iterations: 120, Seed: 5, Workers: 4},
			"e9d7cf3a3d0e5d070067aa43b1139b863f28298cd6af80f93836fbd25181513f"},
		{"unikraft-sequential", func() *simos.Model { return simos.NewUnikraft(1) }, Options{Iterations: 120, Seed: 5},
			"5044316b313816e19cb74582ffa2cce263d7c2d1d60c3ec25896969a80350cae"},
	}
	for _, tc := range cases {
		m := tc.model()
		app := apps.Nginx()
		cfg := deeptune.DefaultConfig()
		cfg.Seed = 5
		s := search.NewDeepTune(m.Space, true, cfg)
		if err := s.SetSurrogateWindow(64); err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(m, app, &PerfMetric{App: app}, s, &vm.Clock{}, 5)
		rep, err := eng.Run(tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := reportHash(t, rep); got != tc.want {
			t.Errorf("%s: report hash %s, want %s — the DeepTune arithmetic drifted", tc.name, got, tc.want)
		}
	}
}
