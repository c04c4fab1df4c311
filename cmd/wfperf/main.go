// Command wfperf is the repository's benchmark: four workloads that each
// load a different layer of Wayfinder, measured from outside through the
// public APIs in a closed loop.
//
//	wfperf [-workload all|NAME] [-seed N] [-seconds S] [-trace 0|1] [-dir DIR]
//
// Each workload runs in a child process, the only process that reads
// the wall clock. An untraced run prints the end-to-end metrics; a
// traced run (-trace 1) prints the per-layer metrics and writes its
// spans to DIR/wfperf-WORKLOAD.spans.jsonl. Every metric is printed as
// "workload metric value unit n=samples", and the last line of output is
// the result as JSON. The exit status is non-zero when a correctness
// check fails. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed the workload inputs are drawn from")
	seconds := flag.Float64("seconds", 25, "how long each workload measures, in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run: per-layer metrics and a span file")
	dir := flag.String("dir", ".bench_build", "scratch directory for daemon state and span files")
	child := flag.Bool("child", false, "run one workload in this process (the parent starts children this way)")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		usage("-trace must be 0 or 1")
	}
	if !(*seconds > 0) {
		usage("-seconds must be positive")
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := workloadByName(*workload); err != nil {
		usage(err.Error())
	}

	if *child {
		res := runChild(runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
			dir: *dir, spans: filepath.Join(*dir, "wfperf-"+*workload+".spans.jsonl"),
			sz: benchSizes, pins: pinnedDigests,
		})
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil || !res.Correct {
			os.Exit(1)
		}
		return
	}

	final := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		res, err := spawn(name, *seed, *seconds, *trace, *dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wfperf: %s: %v\n", name, err)
			os.Exit(1)
		}
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			m := res.Metrics[d.name]
			fmt.Printf("%s %s %g %s n=%d\n", name, d.name, m.Value, m.Unit, m.N)
			key := d.name
			if len(names) > 1 {
				key = name + "." + d.name
			}
			final.Metrics[key] = metric{Value: m.Value, Unit: m.Unit}
		}
		if *trace == 0 {
			// The probe time is what the end-to-end times were scaled by
			// (probe.go); it is printed, not a metric of the result.
			p := res.Metrics["host.probe_ms"]
			fmt.Printf("%s host.probe_ms %g %s n=%d\n", name, p.Value, p.Unit, p.N)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wfperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

func usage(msg string) {
	fmt.Fprintln(os.Stderr, "wfperf:", msg)
	flag.Usage()
	os.Exit(2)
}

// spawn runs one workload in a child process and returns its result,
// with the child's peak resident set size added to an untraced run's.
func spawn(name string, seed uint64, seconds float64, trace int, dir string) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-dir", dir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	res := &result{}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), res); jerr != nil {
		return nil, fmt.Errorf("child printed no result (%v): %w", err, jerr)
	}
	res.Correct = res.Correct && exit == nil
	if trace == 0 {
		ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		if !ok {
			return nil, errors.New("no resource usage for the child process")
		}
		// Linux reports ru_maxrss in KiB.
		res.Metrics["peak_rss_mb"] = metric{Value: float64(ru.Maxrss) / 1024, Unit: "MB", N: 1}
	}
	return res, nil
}
