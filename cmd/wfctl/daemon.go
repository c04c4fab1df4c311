// Daemon-mode subcommands: wfctl as a client of a running wfd daemon.
//
//	wfctl submit -d wfd.sock -s random -seed 7 -l 200 job.yaml
//	wfctl jobs -d wfd.sock
//	wfctl status -d wfd.sock [j000001]
//	wfctl attach -d wfd.sock -from 0 j000001
//	wfctl report -d wfd.sock -wait j000001
//	wfctl cancel -d wfd.sock j000001
//
// submit takes start's job flags (jobFlags) plus -d, -tenant, -corpus,
// and -warm-start-k.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"wayfinder/internal/wfd"
)

func newFlagSet(name string) *flag.FlagSet {
	return flag.NewFlagSet(name, flag.ExitOnError)
}

// parseSubmit parses submit's flags and job file into the daemon address
// and the spec to send. The job flags are start's, through the same
// jobFlags → JobSpec mapping; the daemon validates and admits the spec.
func parseSubmit(args []string) (string, wfd.JobSpec, error) {
	fs := newFlagSet("submit")
	jf := addJobFlags(fs)
	addr := fs.String("d", "wfd.sock", "daemon address: unix-socket path or host:port")
	tenant := fs.String("tenant", "", "tenant name for fair-share scheduling and quotas")
	useCorpus := fs.Bool("corpus", false, "deposit the job's outcome into the daemon's shared transfer corpus")
	warmStartK := fs.Int("warm-start-k", 0, "warm-start from the K nearest corpus neighbors (needs -corpus)")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		return "", wfd.JobSpec{}, errUsage
	}
	job, err := readJob(fs.Arg(0))
	if err != nil {
		return "", wfd.JobSpec{}, err
	}
	spec, err := jf.spec(job)
	if err != nil {
		return "", wfd.JobSpec{}, err
	}
	spec.Tenant = *tenant
	spec.Corpus = *useCorpus
	spec.WarmStartK = *warmStartK
	return *addr, spec, nil
}

func cmdSubmit(args []string) {
	addr, spec, err := parseSubmit(args)
	if errors.Is(err, errUsage) {
		usage()
	}
	if err != nil {
		fatal(err)
	}
	id, err := wfd.NewClient(addr).Submit(context.Background(), spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println(id)
}

func cmdJobs(args []string) {
	fs := newFlagSet("jobs")
	addr := fs.String("d", "wfd.sock", "daemon address")
	_ = fs.Parse(args)
	jobs, err := wfd.NewClient(*addr).Jobs(context.Background())
	if err != nil {
		fatal(err)
	}
	for _, j := range jobs {
		fmt.Printf("%s  %-8s  tenant=%-10s  %s/%s/%s  %d/%d obs  best=%g\n",
			j.ID, j.State, j.Tenant, j.OS, j.Searcher, j.Metric, j.Observed, j.Iterations, j.BestMetric)
	}
}

func cmdStatus(args []string) {
	fs := newFlagSet("status")
	addr := fs.String("d", "wfd.sock", "daemon address")
	_ = fs.Parse(args)
	c := wfd.NewClient(*addr)
	ctx := context.Background()
	if fs.NArg() == 1 {
		st, err := c.Job(ctx, fs.Arg(0))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s %s tenant=%s %s/%s/%s seed=%d\n", st.ID, st.State, st.Tenant, st.OS, st.Searcher, st.Metric, st.Seed)
		fmt.Printf("  observed %d/%d, crashes %d, events %d, journalable %v\n",
			st.Observed, st.Iterations, st.Crashes, st.Events, st.Journalable)
		if st.BestConfig != "" {
			fmt.Printf("  best %g @ %s\n", st.BestMetric, st.BestConfig)
		}
		if st.Err != "" {
			fmt.Printf("  error: %s\n", st.Err)
		}
		return
	}
	st, err := c.Status(ctx)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("jobs %d (queued %d running %d done %d canceled %d failed %d)\n",
		st.Jobs, st.Queued, st.Running, st.Done, st.Canceled, st.Failed)
	fmt.Printf("served %d observations in %d quanta; recovered %d (resumed %d); builds %d unique, %d duplicated\n",
		st.ServedTotal, st.Quanta, st.Recovered, st.Resumed, st.UniqueBuilds, st.DupBuilds)
	if st.CorpusHash != "" || st.CorpusEntries > 0 {
		fmt.Printf("corpus: %d entries, hash %.12s\n", st.CorpusEntries, st.CorpusHash)
	}
	for _, t := range st.Tenants {
		fmt.Printf("  tenant %-12s active=%d committed=%d served=%d service=%d compute=%.0fs\n",
			t.Name, t.Active, t.Committed, t.Served, t.Service, t.ComputeSec)
	}
}

func cmdAttach(args []string) {
	fs := newFlagSet("attach")
	addr := fs.String("d", "wfd.sock", "daemon address")
	from := fs.Int("from", 0, "replay the event stream from this sequence number")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	_, err := wfd.NewClient(*addr).Events(context.Background(), fs.Arg(0), *from, func(ev wfd.WireEvent) bool {
		switch ev.Type {
		case "eval":
			state := fmt.Sprintf("%g", ev.Metric)
			if ev.Crashed {
				state = "crash[" + ev.Stage + "]"
			}
			fmt.Printf("#%-6d eval  it=%-5d %s  %s\n", ev.Seq, ev.Iteration, state, ev.Config)
		case "best":
			fmt.Printf("#%-6d best  it=%-5d %g  %s\n", ev.Seq, ev.Iteration, ev.Metric, ev.Config)
		case "cache":
			fmt.Printf("#%-6d cache it=%-5d %s\n", ev.Seq, ev.Iteration, ev.Source)
		case "round":
			fmt.Printf("#%-6d round %d (%d evals) t=%.1fs\n", ev.Seq, ev.Round, ev.Size, ev.WallSec)
		case "progress":
			fmt.Printf("#%-6d %d/%d observed, best=%g, t=%.1fs, util=%.2f\n",
				ev.Seq, ev.Observed, ev.Iterations, ev.BestMetric, ev.ElapsedSec, ev.Utilization)
		case "fault":
			fmt.Printf("#%-6d fault %s it=%-5d attempt=%d worker=%d t=%.1fs\n",
				ev.Seq, ev.Kind, ev.Iteration, ev.Attempt, ev.Worker, ev.AtSec)
		case "retry":
			fmt.Printf("#%-6d retry it=%-5d attempt=%d not-before=%.1fs\n",
				ev.Seq, ev.Iteration, ev.Attempt, ev.AtSec)
		case "host":
			state := "down"
			if ev.Up {
				state = "up"
			}
			fmt.Printf("#%-6d host  %d %s t=%.1fs\n", ev.Seq, ev.Host, state, ev.AtSec)
		case "corpus":
			switch ev.Kind {
			case "warmstart":
				fmt.Printf("#%-6d corpus warmstart: %d seeds, dtm=%v, hash=%.12s\n", ev.Seq, ev.Seeds, ev.DTM, ev.Hash)
			case "deposit":
				fmt.Printf("#%-6d corpus deposit: %.12s (corpus hash %.12s)\n", ev.Seq, ev.Digest, ev.Hash)
			}
		case "done":
			fmt.Printf("#%-6d done: %d observed, best=%g @ %s\n", ev.Seq, ev.Observed, ev.BestMetric, ev.BestConfig)
		}
		return true
	})
	if err != nil {
		fatal(err)
	}
}

func cmdReport(args []string) {
	fs := newFlagSet("report")
	addr := fs.String("d", "wfd.sock", "daemon address")
	wait := fs.Bool("wait", false, "block until the job completes")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	data, err := wfd.NewClient(*addr).Report(context.Background(), fs.Arg(0), *wait)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(data)
	fmt.Println()
}

func cmdCancel(args []string) {
	fs := newFlagSet("cancel")
	addr := fs.String("d", "wfd.sock", "daemon address")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	if err := wfd.NewClient(*addr).Cancel(context.Background(), fs.Arg(0)); err != nil {
		fatal(err)
	}
	fmt.Println("canceling", fs.Arg(0))
}
