// Command wfctl creates and runs Wayfinder specialization jobs from YAML
// job files, mirroring the workflow of the paper's artifact
// ("wfctl create ./job.yaml && wfctl start ... -s random $ID").
//
// Usage:
//
//	wfctl create job.yaml                   # validate and summarize a job
//	wfctl start -s deeptune job.yaml        # run the search session
//	wfctl start -s random -workers 8 job.yaml
//	wfctl start -s random -workers 8 -async job.yaml
//	wfctl start -s random -workers 8 -async -staleness 2 -straggler 4 job.yaml
//	wfctl start -s random -workers 8 -hosts 4 job.yaml
//	wfctl start -s random -workers 8 -hosts 4 -faults "down:1@300,up:1@900,retry:3/20/2" job.yaml
//	wfctl start -s random -workers 8 -hosts 4 -dispatch locality job.yaml
//	wfctl start -s random -workers 8 -no-cache job.yaml
//	wfctl start -s bayesian -gp-window 512 job.yaml
//	wfctl start -s random -json job.yaml
//	wfctl start -s random -progress job.yaml    # live one-line status
//	wfctl start -s random -timeout 30s job.yaml # wall-clock bound, partial report
//
// start and submit (daemon.go) share one set of job flags: -s, -l,
// -seed, -workers, -async, -staleness, -hosts, -no-cache, -gp-window,
// -faults, and -dispatch. Both map a job file and those flags onto the
// same wfd.JobSpec, and start builds its session with JobSpec.NewSession,
// the constructor the daemon uses, so `start` and `submit` with the same
// flags produce the same canonical report. -straggler, -json, -progress,
// and -timeout are start's own.
//
// The target OS named in the job file selects the simulated model
// ("linux", "unikraft", "linux-riscv"); the app field selects the
// workload; metric selects performance/memory/score; favor and fixed
// shape the OS profile's space. A job's params list and maximize flag are
// summarized by create only.
//
// start drives the Session API: the session streams typed events (which
// -progress renders live) and honors context cancellation (which -timeout
// wires to a real-time deadline — the session's partial report is printed
// when it fires).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	wayfinder "wayfinder"
	"wayfinder/internal/configspace"
	"wayfinder/internal/core"
	"wayfinder/internal/wfd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "create":
		cmdCreate(os.Args[2:])
	case "start":
		cmdStart(os.Args[2:])
	case "submit":
		cmdSubmit(os.Args[2:])
	case "jobs":
		cmdJobs(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	case "attach":
		cmdAttach(os.Args[2:])
	case "report":
		cmdReport(os.Args[2:])
	case "cancel":
		cmdCancel(os.Args[2:])
	case "corpus":
		cmdCorpus(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: wfctl <command> [flags] ...
  local:  create job.yaml | start [flags] job.yaml
  daemon: submit -d addr [flags] job.yaml | jobs | status [id] |
          attach id | report [-wait] id | cancel id   (all take -d addr)
  corpus: corpus ls|show|gc -dir <corpus-dir> ...`)
	os.Exit(2)
}

// errUsage reports a command line of the wrong shape; the caller prints
// the usage text.
var errUsage = errors.New("usage")

func readJob(path string) (*configspace.Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return configspace.ParseJobYAML(string(data))
}

// jobFlags are the job flags start and submit share, registered once so
// the two commands describe a job identically; spec maps them onto a
// JobSpec.
type jobFlags struct {
	fs        *flag.FlagSet
	strategy  *string
	iters     *int
	seed      *uint64
	workers   *int
	async     *bool
	staleness *int
	hosts     *int
	noCache   *bool
	gpWindow  *int
	faults    *string
	dispatch  *string
}

func addJobFlags(fs *flag.FlagSet) *jobFlags {
	return &jobFlags{
		fs:        fs,
		strategy:  fs.String("s", "deeptune", "search strategy: random, grid, bayesian, deeptune, unicorn"),
		iters:     fs.Int("l", 0, "iteration budget override (default: the job file's, else 100 when it sets no budget)"),
		seed:      fs.Uint64("seed", 1, "session seed"),
		workers:   fs.Int("workers", 1, "concurrent evaluation workers"),
		async:     fs.Bool("async", false, "use the event-driven asynchronous scheduler (no round barrier)"),
		staleness: fs.Int("staleness", -1, "async staleness bound: max unobserved in-flight evaluations a proposal may lag behind (0 = synchronous rounds; needs -async; omit for unbounded asynchrony)"),
		hosts:     fs.Int("hosts", 1, "split the workers across this many simulated hosts (each with its own artifact-store partition)"),
		noCache:   fs.Bool("no-cache", false, "disable the shared content-addressed artifact store (per-worker image reuse only)"),
		gpWindow:  fs.Int("gp-window", 0, "bound the learned surrogate to a sliding window of this many recent observations (min 8; 0 = unbounded); keeps per-decision cost flat on long sessions (bayesian/deeptune only)"),
		faults:    fs.String("faults", "", "deterministic fault schedule in the fault DSL, e.g. \"down:1@300,up:1@900,preempt:3@120,buildfail:7#1,retry:3/20/2\" (part of the spec; a resumed daemon job replays the same churn)"),
		dispatch:  fs.String("dispatch", "", "placement policy: static (default) or locality (prefer hosts that already hold the configuration's image)"),
	}
}

// spec lifts a job file into the JobSpec the flags describe. It rejects
// only what the flag layer alone can see — whether -staleness was passed
// at all, and explicit -workers/-hosts below 1 (a spec reads 0 as the
// default) — and leaves the rest (strategy, fault DSL, dispatch, window,
// fleet shape) to JobSpec.Validate.
func (f *jobFlags) spec(job *configspace.Job) (wfd.JobSpec, error) {
	stalenessSet := false
	f.fs.Visit(func(fl *flag.Flag) { stalenessSet = stalenessSet || fl.Name == "staleness" })
	switch {
	case stalenessSet && !*f.async:
		return wfd.JobSpec{}, fmt.Errorf("-staleness only applies to the async scheduler; add -async")
	case stalenessSet && *f.staleness < 0:
		return wfd.JobSpec{}, fmt.Errorf("-staleness must be ≥ 0 (omit the flag for unbounded asynchrony)")
	case *f.workers < 1:
		return wfd.JobSpec{}, fmt.Errorf("-workers must be ≥ 1 (got %d)", *f.workers)
	case *f.hosts < 1:
		return wfd.JobSpec{}, fmt.Errorf("-hosts must be ≥ 1 (got %d)", *f.hosts)
	}
	spec := wfd.SpecFromJob(job)
	spec.Searcher = *f.strategy
	spec.Seed = *f.seed
	if *f.iters > 0 {
		spec.Iterations = *f.iters
	}
	if spec.Iterations == 0 && spec.TimeBudgetSec == 0 { //wfvet:ignore floateq 0 is the unset-budget sentinel, never a computed value
		spec.Iterations = 100
	}
	spec.Workers = *f.workers
	if *f.async {
		spec.Async = true
		spec.Staleness = *f.staleness
	}
	spec.Hosts = *f.hosts
	spec.DisableCache = *f.noCache
	spec.SurrogateWindow = *f.gpWindow
	spec.FaultSchedule = *f.faults
	spec.Dispatch = *f.dispatch
	return spec, nil
}

func cmdCreate(args []string) {
	fs := newFlagSet("create")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	job, err := readJob(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	census := job.Space.Census()
	fmt.Printf("job %q validated\n", job.Name)
	fmt.Printf("  os=%s app=%s metric=%s maximize=%v\n", job.OS, job.App, job.Metric, job.Maximize)
	fmt.Printf("  parameters: %d (compile=%d boot=%d runtime=%d)\n",
		job.Space.Len(),
		census.CompileBool+census.CompileTristate+census.CompileString+census.CompileHex+census.CompileInt,
		census.Boot, census.Runtime)
	fmt.Printf("  log10 search-space size: %.1f\n", job.Space.LogCardinality())
}

// startCmd is a parsed `wfctl start` invocation: the job spec it runs
// plus the flags local to a foreground session.
type startCmd struct {
	spec      wfd.JobSpec
	straggler float64
	asJSON    bool
	progress  bool
	timeout   time.Duration
}

// parseStart parses start's flags and job file into a validated spec.
// The job flags go through the same jobFlags → JobSpec → Validate path as
// submit.
func parseStart(args []string) (*startCmd, error) {
	fs := newFlagSet("start")
	jf := addJobFlags(fs)
	straggler := fs.Float64("straggler", 1, "slow the last worker by this factor (models a straggler machine)")
	asJSON := fs.Bool("json", false, "emit the report as JSON")
	progress := fs.Bool("progress", false, "render a live one-line status from the session event stream")
	timeout := fs.Duration("timeout", 0, "real-time limit for the session; when it fires the partial report is printed")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return nil, errUsage
	}
	job, err := readJob(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	spec, err := jf.spec(job)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &startCmd{spec: spec, straggler: *straggler,
		asJSON: *asJSON, progress: *progress, timeout: *timeout}, nil
}

// session builds the spec's session, with -straggler and -progress
// applied on top of what the spec describes.
func (c *startCmd) session() (*wayfinder.Session, error) {
	var opts []wayfinder.Option
	if c.straggler > 1 && c.spec.Workers > 1 {
		opts = append(opts, wayfinder.WithWorkerSpeedFactors(core.StragglerFleet(c.spec.Workers, c.straggler)))
	}
	if c.progress {
		opts = append(opts, wayfinder.WithObserver(renderProgress))
	}
	return c.spec.NewSession(opts...)
}

// cmdStart runs a job in the foreground: parse → spec → validate →
// JobSpec.NewSession → Run, exactly the session a daemon builds for the
// same submit flags. The search space is the OS profile's; the job file
// shapes it only through favor: and fixed:.
func cmdStart(args []string) {
	c, err := parseStart(args)
	if errors.Is(err, errUsage) {
		usage()
	}
	if err != nil {
		fatal(err)
	}
	if c.spec.Workers <= 1 && (c.spec.Async || c.straggler > 1) {
		fmt.Fprintln(os.Stderr, "wfctl: -async/-staleness/-straggler need -workers > 1; running sequentially")
	}
	session, err := c.session()
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	report, err := session.Run(ctx)
	if c.progress {
		fmt.Fprintln(os.Stderr) // terminate the live status line
	}
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "wfctl: -timeout %s elapsed after %d observations; reporting the partial session\n",
			c.timeout, len(report.History))
	} else if err != nil {
		fatal(err)
	}
	if c.asJSON {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Printf("session complete: %d iterations, %.1f virtual minutes, %d crashes (%.1f%%)\n",
		len(report.History), report.ElapsedSec/60, report.Crashes, 100*report.CrashRate())
	if report.Workers > 1 {
		scheduler := "round-barrier"
		if report.Async {
			scheduler = fmt.Sprintf("async, staleness %d", report.Staleness)
		}
		fleet := ""
		if report.Hosts > 1 {
			fleet = fmt.Sprintf(" on %d hosts", report.Hosts)
		}
		fmt.Printf("workers: %d%s (%s; compute %.1f virtual minutes, idle %.1f, utilization %.0f%%)\n",
			report.Workers, fleet, scheduler, report.ComputeSec/60, report.IdleSec/60, 100*report.Utilization)
	}
	// Hits+misses > 0 means the store was consulted; with -no-cache both
	// stay 0 and no cache statistics are claimed.
	if report.CacheHits+report.CacheMisses > 0 {
		fmt.Printf("artifact cache: %d builds, %d hits (%d cross-host), %d misses, %d builds saved\n",
			report.Builds, report.CacheHits, report.CacheRemoteHits, report.CacheMisses, report.BuildsSaved)
	}
	if report.Best != nil {
		fmt.Printf("best %s: %.2f %s (found after %.0f virtual seconds)\n",
			report.Metric, report.Best.Metric, report.Unit, report.BestTimeSec)
		fmt.Printf("configuration: %s\n", report.Best.ConfigString)
	} else {
		fmt.Println("no viable configuration found")
	}
}

// renderProgress renders the live one-line session status from the typed
// event stream: observation position, incumbent best, utilization, and
// cache effectiveness, updated in place on stderr. Fault-injection events
// scroll past as their own lines; the status line redraws beneath them.
func renderProgress(ev core.Event) {
	switch e := ev.(type) {
	case core.HostStateChanged:
		state := "down"
		if e.Up {
			state = "up"
		}
		fmt.Fprintf(os.Stderr, "\r\033[Khost %d %s at t=%.0fs\n", e.Host, state, e.AtSec)
		return
	case core.FaultInjected:
		fmt.Fprintf(os.Stderr, "\r\033[Kfault %s hit iter %d (attempt %d, worker %d) at t=%.0fs\n",
			e.Kind, e.Iter, e.Attempt, e.Worker, e.AtSec)
		return
	case core.RetryScheduled:
		fmt.Fprintf(os.Stderr, "\r\033[Kretry iter %d (attempt %d) not before t=%.0fs\n",
			e.Iter, e.Attempt, e.NotBeforeSec)
		return
	}
	p, ok := ev.(core.Progress)
	if !ok {
		return
	}
	total := "?"
	if p.Iterations > 0 {
		total = fmt.Sprintf("%d", p.Iterations)
	}
	best := "best -"
	if p.Best != nil {
		best = fmt.Sprintf("best %.2f", p.Best.Metric)
	}
	fmt.Fprintf(os.Stderr, "\r\033[Kiter %d/%s  %s  crashes %d  util %.0f%%  cache %d hits / %d builds saved",
		p.Observed, total, best, p.Crashes, 100*p.Utilization, p.CacheHits, p.BuildsSaved)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wfctl: %v\n", err)
	os.Exit(1)
}
