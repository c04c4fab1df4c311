// Streaming sessions: drive a parallel specialization session through the
// Session API v2 lifecycle — consume the typed event stream while it runs,
// interrupt it with a context deadline, snapshot the interrupted session,
// and resume it byte-identically to completion.
//
// Run with: go run ./examples/streaming
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"

	"wayfinder"
)

const seed = 7

var (
	iterations = flag.Int("l", 96, "observation budget (CI smoke runs pass a small one)")
	interrupt  = flag.Int("interrupt", 0, "observations before cancel+snapshot+resume (default: budget/2)")
)

// newSearcher builds the session's strategy; a resumed session needs a
// fresh instance constructed with the same arguments (its accumulated
// state is restored from the snapshot).
func newSearcher(model *wayfinder.Model) wayfinder.Searcher {
	return wayfinder.NewBayesianSearcher(model.Space, true, seed)
}

func newModel() *wayfinder.Model {
	model := wayfinder.NewLinuxModel()
	model.Space.Favor(wayfinder.CompileTime, 0)
	return model
}

func main() {
	flag.Parse()
	if *iterations < 2 {
		log.Fatal("streaming: the budget must be at least 2 observations (one before and one after the interrupt)")
	}
	if *interrupt <= 0 || *interrupt >= *iterations {
		*interrupt = *iterations / 2
	}
	model := newModel()
	app := wayfinder.AppNginx()

	// Cancel the session mid-run with a synchronous observer: it fires on
	// the stepping goroutine while observation #interrupt is recorded, the
	// context is checked at the next observation boundary, so the partial
	// report is a consistent prefix of exactly *interrupt observations —
	// deterministic, unlike canceling from an asynchronous consumer.
	ctx, cancel := context.WithCancel(context.Background())
	session, err := wayfinder.New(model, app,
		wayfinder.WithSearcher(newSearcher(model)),
		wayfinder.WithWorkers(8),
		wayfinder.WithHosts(2),
		wayfinder.WithBudget(*iterations, 0),
		wayfinder.WithSeed(seed),
		wayfinder.WithObserver(func(ev wayfinder.Event) {
			if p, ok := ev.(wayfinder.Progress); ok && p.Observed == *interrupt {
				cancel()
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	done := make(chan struct{})
	events := session.Events() // subscribe before running: the stream starts at observation 0
	go func() {
		defer close(done)
		for ev := range events {
			switch e := ev.(type) {
			case wayfinder.NewBest:
				fmt.Printf("  [%3d] new best: %8.0f %s  (%s)\n",
					e.Result.Iteration, e.Result.Metric, app.Unit, trim(e.Result.ConfigString, 48))
			case wayfinder.CacheEvent:
				if e.Source == "remote" {
					fmt.Printf("  [%3d] image fetched cross-host\n", e.Result.Iteration)
				}
			}
		}
	}()

	fmt.Printf("streaming a W=8, 2-host session (budget %d observations)...\n", *iterations)
	if _, err := session.Run(ctx); err != context.Canceled {
		log.Fatalf("expected a canceled run, got %v", err)
	}
	partial := session.Report()
	fmt.Printf("\ninterrupted after %d/%d observations (%.1f virtual minutes, %d builds saved)\n",
		len(partial.History), *iterations, partial.ElapsedSec/60, partial.BuildsSaved)

	// Checkpoint the interrupted session and resume it elsewhere: the
	// snapshot carries worker clocks, noise streams, the artifact cache,
	// in-flight evaluations, and the searcher's full surrogate state.
	snap, err := session.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot: %d bytes of JSON\n\n", len(snap))
	session.Close() // end the event stream; we continue from the snapshot
	<-done

	resumedModel := newModel()
	resumed, err := wayfinder.Resume(resumedModel, app, snap,
		wayfinder.WithSearcher(newSearcher(resumedModel)),
	)
	if err != nil {
		log.Fatal(err)
	}
	// Drive the rest one observation at a time — the daemon primitive —
	// with a custom stopping rule available at every boundary.
	for !resumed.Done() {
		resumed.Step(1)
	}
	report := resumed.Report()

	fmt.Printf("resumed to completion: %d observations, %.1f virtual minutes\n",
		len(report.History), report.ElapsedSec/60)
	fmt.Printf("best %s: %.0f %s (%.2fx the default)\n",
		report.Metric, report.Best.Metric, report.Unit, report.Best.Metric/app.Base)

	// The resumed session is byte-identical to an uninterrupted one.
	refModel := newModel()
	uninterrupted, err := wayfinder.New(refModel, app,
		wayfinder.WithSearcher(newSearcher(refModel)),
		wayfinder.WithWorkers(8),
		wayfinder.WithHosts(2),
		wayfinder.WithBudget(*iterations, 0),
		wayfinder.WithSeed(seed),
	)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := uninterrupted.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	refJSON, err := ref.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	reportJSON, err := report.MarshalJSON()
	if err != nil {
		log.Fatal(err)
	}
	if bytes.Equal(refJSON, reportJSON) {
		fmt.Println("verified: snapshot → resume reproduced the uninterrupted session byte-for-byte")
	} else {
		log.Fatalf("resumed session diverged from the uninterrupted reference (best %.2f vs %.2f, elapsed %.2f vs %.2f)",
			report.Best.Metric, ref.Best.Metric, report.ElapsedSec, ref.ElapsedSec)
	}
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
