package main

import (
	"context"
	"time"
)

// Every wall-clock read in wfperf lives in this file. Host time is what
// the benchmark measures; it never feeds a session, a report or a digest.
// Only the child process that runs a workload starts a clock.

// clock reads monotonic host time relative to its start.
type clock struct{ start time.Time }

// startClock starts a clock.
func startClock() *clock {
	return &clock{start: time.Now()} //wfvet:ignore walltime the benchmark measures host time, which no session input or output reads
}

// ns returns the nanoseconds elapsed since the clock started.
func (c *clock) ns() int64 {
	return int64(time.Since(c.start)) //wfvet:ignore walltime the benchmark measures host time, which no session input or output reads
}

// sleep pauses a polling loop of the daemon workload.
func sleep(d time.Duration) {
	time.Sleep(d) //wfvet:ignore walltime the daemon workload polls Status in host time
}

// withTimeout bounds a wait on the daemon workload's jobs, so a job that
// never ends fails the run instead of hanging it.
func withTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
