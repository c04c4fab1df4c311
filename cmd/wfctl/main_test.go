package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wayfinder/internal/wfd"
)

const minimalJob = "testdata/minimal.yaml"

// TestCheckStartFlags pins start's flag validation. The combinations only
// the CLI can see (explicit zero workers or hosts, -staleness without
// -async or below zero) fail in the flag layer; the rest (the fault DSL,
// the dispatch name, a surrogate window on a strategy without a
// surrogate) fail in JobSpec.Validate, which submit's specs meet at the
// daemon too.
func TestCheckStartFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"defaults", nil, ""},
		{"workers zero", []string{"-workers", "0"}, "-workers"},
		{"hosts zero", []string{"-hosts", "0"}, "-hosts"},
		{"staleness without async", []string{"-staleness", "2"}, "-staleness"},
		{"staleness negative", []string{"-async", "-workers", "4", "-staleness", "-1"}, "-staleness"},
		{"staleness with async", []string{"-async", "-staleness", "2", "-workers", "4"}, ""},
		{"gp-window off-strategy", []string{"-gp-window", "64", "-s", "random"}, "surrogate_window only applies"},
		{"gp-window deeptune", []string{"-gp-window", "64"}, ""},
		{"faults valid", []string{"-workers", "2", "-hosts", "2", "-faults", "down:1@300,up:1@900,retry:3/20/2"}, ""},
		{"faults injections only", []string{"-faults", "buildfail:7#1,bootfail:9"}, ""},
		{"faults malformed", []string{"-faults", "meteor:1@2"}, "fault_schedule"},
		{"faults truncated", []string{"-faults", "down:1"}, "fault_schedule"},
		{"dispatch static", []string{"-dispatch", "static"}, ""},
		{"dispatch locality", []string{"-dispatch", "locality"}, ""},
		{"dispatch unknown", []string{"-dispatch", "gravity"}, "unknown dispatch policy"},
	}
	for _, tc := range cases {
		_, err := parseStart(append(tc.args, minimalJob))
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.wantErr)
		}
	}

	// The iteration budget is a daemon admission rule, not a spec rule: a
	// job with only a virtual-time budget validates and runs locally, and
	// the daemon refuses it at Submit.
	timeOnly := filepath.Join(t.TempDir(), "time-only.yaml")
	if err := os.WriteFile(timeOnly, []byte("os: linux\ntime_budget_sec: 600\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := parseStart([]string{"-s", "random", timeOnly})
	if err != nil {
		t.Fatalf("time-budget-only start: %v", err)
	}
	if c.spec.Iterations != 0 || c.spec.TimeBudgetSec != 600 {
		t.Fatalf("time-budget-only spec = %+v, want no iteration budget", c.spec)
	}
	_, spec, err := parseSubmit([]string{"-s", "random", timeOnly})
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(); err != nil {
		t.Fatalf("time-budget-only spec fails Validate: %v", err)
	}
	d, err := wfd.New(wfd.Config{Steppers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	if _, err := d.Submit(spec); !errors.Is(err, wfd.ErrBadSpec) || !strings.Contains(err.Error(), "iteration budget") {
		t.Fatalf("Submit(time-budget-only) = %v, want the daemon's iteration-budget refusal", err)
	}
}

// TestStartMatchesSubmit: start and submit take one flag set to one
// JobSpec, so the same flags run the same session whether wfctl runs it
// in the foreground or a daemon runs it as a job — the canonical reports
// are byte-identical across the strategies and the fleet, async,
// locality, fault, and surrogate-window flags.
func TestStartMatchesSubmit(t *testing.T) {
	var matrix [][]string
	for _, s := range []string{"random", "grid", "bayesian", "deeptune", "unicorn"} {
		for _, fleet := range [][]string{
			{"-workers", "4", "-async"},
			{"-workers", "4", "-async", "-staleness", "1"},
			{"-workers", "4", "-hosts", "2", "-dispatch", "locality"},
			{"-workers", "4", "-hosts", "2", "-faults", "down:1@200,up:1@900,buildfail:7#1,retry:3/20/2"},
		} {
			matrix = append(matrix, append([]string{"-s", s, "-seed", "3", "-l", "16"}, fleet...))
		}
	}
	for _, s := range []string{"bayesian", "deeptune"} {
		matrix = append(matrix, []string{"-s", s, "-seed", "3", "-l", "16", "-gp-window", "16"})
	}

	d, err := wfd.New(wfd.Config{Steppers: 2, Quantum: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	ids := make([]string, len(matrix))
	for i, args := range matrix {
		_, spec, err := parseSubmit(append(args, minimalJob))
		if err != nil {
			t.Fatalf("submit %v: %v", args, err)
		}
		if ids[i], err = d.Submit(spec); err != nil {
			t.Fatalf("submit %v: %v", args, err)
		}
	}
	for i, args := range matrix {
		c, err := parseStart(append(args, minimalJob))
		if err != nil {
			t.Fatalf("start %v: %v", args, err)
		}
		sess, err := c.session()
		if err != nil {
			t.Fatalf("start %v: %v", args, err)
		}
		rep, err := sess.Run(context.Background())
		if err != nil {
			t.Fatalf("start %v: %v", args, err)
		}
		local, err := rep.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		err = d.WaitJob(ctx, ids[i])
		cancel()
		if err != nil {
			t.Fatalf("wait %v: %v", args, err)
		}
		daemon, err := d.ReportJSON(ids[i])
		if err != nil {
			t.Fatalf("report %v: %v", args, err)
		}
		if !bytes.Equal(local, daemon) {
			t.Errorf("%v: start and submit reports differ\nstart:  %.300s\nsubmit: %.300s", args, local, daemon)
		}
	}
}
