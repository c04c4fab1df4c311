// Command wfd runs the Wayfinder daemon: a long-lived, multi-tenant
// service multiplexing many concurrent tuning sessions over one process.
// Clients (wfctl, anything speaking HTTP+JSON) submit declarative job
// specs, attach to live event streams, and fetch canonical final reports.
//
// Usage:
//
//	wfd -listen /run/wfd.sock -state /var/lib/wfd
//	wfd -listen 127.0.0.1:7077 -state ./state -quantum 8 -journal-every 64
//	wfd -listen ./wfd.sock -tenant-budget 5000
//
// -listen takes "host:port" for TCP or a filesystem path for a unix
// socket. With -state set, every job is journaled (spec at admission,
// session snapshots periodically, the canonical report at completion) and
// a restarted daemon — even after kill -9 — resumes all in-flight jobs
// from their snapshots and completes them byte-identically to an
// uninterrupted run. SIGINT/SIGTERM shut down gracefully: the scheduler
// drains at quantum boundaries and every active job is snapshotted.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"wayfinder/internal/wfd"
)

func main() {
	fs := flag.NewFlagSet("wfd", flag.ExitOnError)
	listen := fs.String("listen", "wfd.sock", "listen address: host:port (TCP) or a unix-socket path")
	state := fs.String("state", "", "journal directory (empty = in-memory only, no crash recovery)")
	corpusDir := fs.String("corpus", "", "shared transfer-corpus directory (empty = corpus jobs rejected)")
	quantum := fs.Int("quantum", 8, "observations per scheduling quantum")
	journalEvery := fs.Int("journal-every", 64, "snapshot an active job every N observations")
	steppers := fs.Int("steppers", runtime.GOMAXPROCS(0), "stepping goroutine pool size")
	maxActive := fs.Int("max-active", 4096, "daemon-wide active-job cap")
	tenantMax := fs.Int("tenant-max-active", 1024, "per-tenant active-job cap")
	tenantBudget := fs.Int("tenant-budget", 0, "per-tenant total observation budget (0 = unlimited)")
	quiet := fs.Bool("quiet", false, "suppress the operational log")
	_ = fs.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: wfd [flags]")
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	d, err := wfd.New(wfd.Config{
		StateDir:        *state,
		CorpusDir:       *corpusDir,
		Quantum:         *quantum,
		JournalEvery:    *journalEvery,
		Steppers:        *steppers,
		MaxActiveJobs:   *maxActive,
		TenantMaxActive: *tenantMax,
		TenantBudget:    *tenantBudget,
		Logf:            logf,
	})
	if err != nil {
		logger.Fatal(err)
	}

	ln, err := wfd.Listen(*listen)
	if err != nil {
		logger.Fatal(err)
	}
	// ReadHeaderTimeout drops a client that opens a connection and never
	// finishes its request headers; bodies and event streams are not
	// bounded in time, since a streaming client legitimately stays for a
	// whole job.
	srv := &http.Server{Handler: wfd.NewHandler(d), ReadHeaderTimeout: 10 * time.Second}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		logf("wfd: %v: shutting down", s)
		// Close the listener first (no new jobs), then drain the scheduler
		// and journal every active job so a future daemon resumes them.
		srv.Close()
	}()

	logf("wfd: serving on %s (state=%q quantum=%d steppers=%d)", *listen, *state, *quantum, *steppers)
	if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
		logger.Fatal(err)
	}
	d.Shutdown()
	logf("wfd: shut down cleanly")
}
