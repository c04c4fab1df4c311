package main

import (
	"slices"

	"wayfinder/internal/rng"
)

// The host this benchmark runs on is shared: its speed drifts by a
// quarter or more within minutes, and changes from one second to the
// next, as neighbours come and go. Every end-to-end time is therefore
// scaled to a nominal host speed. The child times a fixed reference
// computation, the probe, before each round, every probeEveryNS inside a
// round's timed phase, and wherever else a round pauses its workload;
// timed phases leave the probe's time out. A time t that a round
// measured is reported as t * probeNominalNS / p, where p is the median
// time of the probes run for that round, and a rate r as
// r * p / probeNominalNS. On a host where the probe takes
// probeNominalNS, the reported values are the measured ones.

// probeNominalNS is about the probe's median time on a quiet 2-vCPU Intel
// Xeon host, the host the bounds in BENCHMARK.json were calibrated on.
const probeNominalNS = 30e6

// probeEveryNS is how often a round's timed phase pauses for a probe.
const probeEveryNS = 500e6

// hostProbe is the reference computation and its timings. The
// computation sorts, hashes and chases pointers through a few MiB, like
// the engine does. It allocates nothing after the first run, so it
// leaves the workload's heap alone.
type hostProbe struct {
	clk  *clock
	keys []uint64 // fixed pseudo-random keys
	buf  []uint64 // sort buffer
	next []uint32 // a single-cycle permutation to chase
	m    map[uint64]uint64
	ns   []int64 // each probe's duration
	last int64   // when the last probe ended
	sink uint64
}

// newHostProbe builds a probe over n keys; benchSizes fixes n.
func newHostProbe(clk *clock, n int) *hostProbe {
	r := rng.New(0x9e3779b97f4a7c15)
	p := &hostProbe{
		clk:  clk,
		keys: make([]uint64, n),
		buf:  make([]uint64, n),
		next: make([]uint32, n),
		m:    make(map[uint64]uint64, n/4),
	}
	for i := range p.keys {
		p.keys[i] = r.Uint64()
	}
	// Sattolo's shuffle gives one cycle through every index.
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p
}

// run times the probe once and returns its duration.
func (p *hostProbe) run() int64 {
	start := p.clk.ns()
	copy(p.buf, p.keys)
	slices.Sort(p.buf)
	clear(p.m)
	for _, k := range p.keys[:len(p.keys)/4] {
		p.m[k] = k
	}
	at := uint32(0)
	for range p.next {
		at = p.next[at]
	}
	p.sink += p.buf[len(p.buf)/2] + uint64(len(p.m)) + uint64(at)
	p.last = p.clk.ns()
	d := p.last - start
	p.ns = append(p.ns, d)
	return d
}

// pause runs the probe if probeEveryNS have passed since the last one,
// and returns the time it took, for the caller to leave out of its timed
// phase.
func (p *hostProbe) pause() int64 {
	if p.clk.ns()-p.last < probeEveryNS {
		return 0
	}
	return p.run()
}

// scaleSince is the factor that takes a time measured while the probes
// from the from-th on ran to the nominal host.
func (p *hostProbe) scaleSince(from int) float64 {
	return probeNominalNS / quantile(p.ns[from:], 0.5)
}
