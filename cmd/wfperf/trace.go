package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"time"

	wayfinder "wayfinder"
	"wayfinder/internal/core"
	"wayfinder/internal/rng"
	"wayfinder/internal/search"
)

// span is one timed call into a layer. Spans nest by call: a span's
// parent is the span that was open on the driving goroutine when it
// began (-1 for none).
type span struct {
	id, parent int32
	name       string
	start, end int64 // ns on the run's clock
}

// tracer records spans in memory. A nil tracer records nothing, so
// untraced rounds run the same call sites. It is not safe for concurrent
// use: a session steps on its caller's goroutine, simulated workers
// included, so every traced call comes from the round's goroutine.
type tracer struct {
	clk   *clock
	spans []span
	open  []int32
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{id: id, parent: parent, name: name, start: t.clk.ns()})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned. Spans close in reverse order of
// opening: every traced call returns before its caller does.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = t.clk.ns()
	t.open = t.open[:len(t.open)-1]
}

// layerTimes aggregates spans by name: total duration, self time (the
// duration minus the time direct children cover), and each duration.
type layerTimes struct {
	total map[string]int64
	self  map[string]int64
	durs  map[string][]int64
}

// aggregate folds the recorded spans into per-name totals.
func (t *tracer) aggregate() layerTimes {
	lt := layerTimes{total: map[string]int64{}, self: map[string]int64{}, durs: map[string][]int64{}}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += self[i]
		lt.durs[s.name] = append(lt.durs[s.name], d)
	}
	return lt
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	wl := strconv.Quote(workload)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"workload\":%s}\n",
			s.id, s.parent, strconv.Quote(s.name), s.start, s.end, wl)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSearcher records a span around each Propose and Observe of a
// checkpointable searcher and forwards everything else. It is not a
// BatchSearcher, so the session adapts it with search.AsBatch exactly as
// it adapts the searcher it wraps.
type tracedSearcher struct {
	inner search.Checkpointable
	tr    *tracer
}

func (s *tracedSearcher) Name() string { return s.inner.Name() }

func (s *tracedSearcher) Propose() *wayfinder.Config {
	id := s.tr.begin("propose")
	defer s.tr.end(id)
	return s.inner.Propose()
}

func (s *tracedSearcher) Observe(o search.Observation) {
	id := s.tr.begin("observe")
	defer s.tr.end(id)
	s.inner.Observe(o)
}

func (s *tracedSearcher) DecisionCost() time.Duration { return s.inner.DecisionCost() }
func (s *tracedSearcher) Checkpoint() ([]byte, error) { return s.inner.Checkpoint() }
func (s *tracedSearcher) Restore(data []byte) error   { return s.inner.Restore(data) }

// tracedBatch is tracedSearcher for searchers that also speak the batch
// and sliding-window protocols (Bayesian, DeepTune).
type tracedBatch struct {
	*tracedSearcher
	batch search.BatchSearcher
	win   search.Windowed
}

func (s *tracedBatch) ProposeBatch(n int) []*wayfinder.Config {
	id := s.tr.begin("propose")
	defer s.tr.end(id)
	return s.batch.ProposeBatch(n)
}

func (s *tracedBatch) SetSurrogateWindow(n int) error { return s.win.SetSurrogateWindow(n) }

// traceSearcher wraps s so that the wrapper implements exactly the
// optional interfaces s does. A wrapper that added BatchSearcher would
// bypass the pending-set adapter; one that dropped Windowed or
// Checkpointable would make the session reject it.
func traceSearcher(s search.Searcher, tr *tracer) (search.Searcher, error) {
	ck, isCk := s.(search.Checkpointable)
	batch, isBatch := s.(search.BatchSearcher)
	win, isWin := s.(search.Windowed)
	base := &tracedSearcher{inner: ck, tr: tr}
	switch {
	case isCk && !isBatch && !isWin:
		return base, nil
	case isCk && isBatch && isWin:
		return &tracedBatch{tracedSearcher: base, batch: batch, win: win}, nil
	}
	return nil, fmt.Errorf("wfperf: no tracing wrapper for searcher %q (checkpointable=%v batch=%v windowed=%v)",
		s.Name(), isCk, isBatch, isWin)
}

// tracedMetric records a span around each Measure.
type tracedMetric struct {
	core.Metric
	tr *tracer
}

func (m *tracedMetric) Measure(model *wayfinder.Model, app *wayfinder.App, c *wayfinder.Config, noise *rng.RNG) float64 {
	id := m.tr.begin("measure")
	defer m.tr.end(id)
	return m.Metric.Measure(model, app, c, noise)
}

// traceMetric wraps m, except a MemoryMetric: the pipeline type-asserts
// that one to shorten its benchmark stage.
func traceMetric(m core.Metric, tr *tracer) core.Metric {
	if _, isMem := m.(core.MemoryMetric); isMem {
		return m
	}
	return &tracedMetric{Metric: m, tr: tr}
}
