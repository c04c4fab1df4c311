// Command wfbench reproduces the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	wfbench -exp fig6                 # one experiment at quick scale
//	wfbench -exp all -scale paper     # the full reproduction
//	wfbench -exp table2 -json         # machine-readable output
//
//	wfbench -exp scaling -workers 16  # worker-pool scaling study
//	wfbench -exp straggler -straggler 8
//	wfbench -exp cachehit -hosts 4    # shared artifact store vs per-worker caches
//	wfbench -exp fleet                # multi-host topology transfer costs
//	wfbench -exp fleet -dispatch locality
//	wfbench -exp elasticity           # host-churn outage ladder, retry-elsewhere
//	wfbench -exp elasticity -faults "down:1@600,up:1@1800,retry:3/20/2"
//	wfbench -exp locality             # locality dispatch vs static placement
//	wfbench -exp transferscale        # tuning memory: obs-to-target vs corpus size
//
// Experiment IDs: fig1, table1, fig2, fig5, fig6, table2, fig7, fig8,
// table3, fig9, fig10, fig11, table4, scaling, straggler, cachehit,
// fleet, elasticity, locality, transferscale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"wayfinder/internal/core"
	"wayfinder/internal/experiments"
	"wayfinder/internal/fault"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID or 'all'")
	scaleName := flag.String("scale", "quick", "experiment scale: quick or paper")
	workers := flag.Int("workers", 0, "override the scaling/straggler/cachehit/fleet experiments' worker-pool size")
	straggler := flag.Float64("straggler", 0, "override the straggler experiment's slowdown factor")
	hosts := flag.Int("hosts", 0, "override the cachehit experiment's multi-host fleet size")
	faults := flag.String("faults", "", "replace the elasticity experiment's outage ladder with this fault-DSL schedule")
	dispatch := flag.String("dispatch", "", "override the fleet experiment's placement policy: static or locality")
	asJSON := flag.Bool("json", false, "emit JSON instead of rendered tables")
	flag.Parse()

	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "wfbench: unknown scale %q (quick|paper)\n", *scaleName)
		os.Exit(2)
	}
	if *workers > 0 {
		scale.Workers = *workers
	}
	if *straggler > 0 {
		scale.Straggler = *straggler
	}
	if *hosts > 0 {
		scale.Hosts = *hosts
	}
	scale.FaultSchedule = *faults
	scale.Dispatch = *dispatch
	// The centralized option validation the library and wfctl share:
	// override combinations the experiments would otherwise clamp or
	// misrun (-hosts beyond -workers, negative counts, fault events out of
	// fleet range, an unknown dispatch policy) die here.
	sched, err := fault.Parse(scale.FaultSchedule)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: -faults: %v\n", err)
		os.Exit(2)
	}
	probe := core.Options{Iterations: 1, Workers: scale.Workers, Hosts: scale.Hosts,
		Faults: sched, Dispatch: scale.Dispatch}
	if scale.Straggler > 1 && scale.Workers > 1 {
		probe.WorkerSpeedFactors = core.StragglerFleet(scale.Workers, scale.Straggler)
	}
	if err := probe.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		res, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		if *asJSON {
			data, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "wfbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(data))
			continue
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s completed in %s)\n%s\n", id, time.Since(start).Round(time.Millisecond),
			strings.Repeat("=", 72))
	}
}
