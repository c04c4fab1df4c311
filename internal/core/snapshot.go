// Session serialization: Snapshot captures the state machine's complete
// state — options, report, worker clocks and RNG streams, artifact-store
// contents and in-flight build tickets, unobserved in-flight evaluations,
// the checkpoint of the BatchSearcher the session proposes through
// (search.Checkpointable: the searcher's own state, wrapped with the batch
// adapter's pending set when the searcher is adapted), and any stateful
// metric — and RestoreSession rebuilds a Session that continues
// byte-identically to the uninterrupted run. Snapshots are taken between
// steps (any observation boundary, including mid-batch: an in-flight
// evaluation is finished virtual work, and serializes as such).
//
// The format is JSON for inspectability; exactness is preserved because
// Go's JSON round-trips float64 (shortest-representation encoding) and
// 64-bit integers bit-for-bit when decoded into typed fields. Config
// assignments travel as canonical key=value maps (Config.KV's map,
// Space.FromKV), never as the lossy display string.
//
// encoding/json writes everything but the results. Every Result, in the
// report's history and best and in the in-flight table, is written by
// the hand-written encoder in encode.go ((*Result).appendJSON, with
// Config.AppendKVJSON for its config_kv), whose bytes equal what
// encoding/json's reflection writes for the same result; that reflection
// form is its test oracle (FuzzResultJSON, TestReportJSONMatchesReflection).
// encoding/json is still the only decoder.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"wayfinder/internal/artifact"
	"wayfinder/internal/configspace"
	"wayfinder/internal/search"
)

// snapshotVersion guards the serialization format. Version 2 dropped the
// per-scheduler mode and round buffer when the schedulers became one.
// Version 3 carries DeepTune's trained model in the searcher state instead
// of an observation history to replay, and reduces the corpus warm DTM to
// a flag. Version 4 moves the batch adapter's pending set inside the
// searcher state and gives Unicorn a checkpoint.
const snapshotVersion = 4

// workerSnap is one worker's serialized evaluation state.
type workerSnap struct {
	ClockSec  float64   `json:"clock_sec"`
	StallSec  float64   `json:"stall_sec,omitempty"`
	RNG       [4]uint64 `json:"rng"`
	ImageKey  uint64    `json:"image_key,omitempty"`
	HaveImage bool      `json:"have_image,omitempty"`
	BootKey   uint64    `json:"boot_key,omitempty"`
	HaveBoot  bool      `json:"have_boot,omitempty"`
	Builds    int       `json:"builds,omitempty"`
}

// ticketSnap is one in-flight-build registration.
type ticketSnap struct {
	Key      uint64  `json:"key"`
	Host     int     `json:"host"`
	EndSec   float64 `json:"end_sec"`
	OK       bool    `json:"ok"`
	Resolved bool    `json:"resolved"`
}

// cacheSnap is the session cache: store contents plus the in-flight
// registry (sorted by key for a canonical serialization).
type cacheSnap struct {
	Store    *artifact.State `json:"store,omitempty"`
	Building []ticketSnap    `json:"building,omitempty"`
}

// evalSnap is one evaluated-but-unrecorded evaluation (an in-flight
// completion event).
type evalSnap struct {
	Iter   int        `json:"iter"`
	Worker int        `json:"worker"`
	Result snapResult `json:"result"`
	// ArtifactKey and BuildEndSec carry Result's unexported pipeline
	// fields.
	ArtifactKey uint64  `json:"artifact_key"`
	BuildEndSec float64 `json:"build_end_sec"`
	// TicketRegistered marks a ticket that is (identity-wise) the cache's
	// registered in-flight build for ArtifactKey; Ticket carries a
	// replaced (crashed-builder) ticket's contents otherwise.
	TicketRegistered bool        `json:"ticket_registered,omitempty"`
	Ticket           *ticketSnap `json:"ticket,omitempty"`
}

// snapResult is an in-flight Result as a snapshot writes it: through
// appendJSON, as the report's results are. It decodes as a plain Result.
type snapResult struct{ Result }

// MarshalJSON encodes the result as a report's results are encoded.
func (r *snapResult) MarshalJSON() ([]byte, error) { return r.appendJSON(nil) }

// retrySnap is one queued re-dispatch of a fault-lost iteration.
type retrySnap struct {
	Iter         int               `json:"iter"`
	ConfigKV     map[string]string `json:"config_kv"`
	Attempt      int               `json:"attempt"`
	NotBeforeSec float64           `json:"not_before_sec"`
}

// sessionSnapshot is the serialized session.
type sessionSnapshot struct {
	Version      int     `json:"version"`
	Options      Options `json:"options"`
	SearcherName string  `json:"searcher"`
	MetricName   string  `json:"metric"`

	BaseSec   float64 `json:"base_sec"`
	FoldedSec float64 `json:"folded_sec,omitempty"`
	Next      int     `json:"next"`
	Observed  int     `json:"observed"`
	Done      bool    `json:"done,omitempty"`
	Round     int     `json:"round,omitempty"`
	Exhausted bool    `json:"exhausted,omitempty"`
	Frontier  float64 `json:"frontier,omitempty"`

	// Fault runtime state: the queued re-dispatches of fault-lost
	// iterations and the schedule-timeline cursor. In-flight evaluations
	// need nothing extra — they are already fault-resolved (resolveFaults
	// runs before anything enters the in-flight table).
	Retries     []retrySnap `json:"retries,omitempty"`
	FaultCursor int         `json:"fault_cursor,omitempty"`

	Report  *Report      `json:"report"`
	Workers []workerSnap `json:"workers"`
	Cache   *cacheSnap   `json:"cache,omitempty"`

	// Inflight is the per-worker unobserved completions (null = idle).
	Inflight []*evalSnap `json:"inflight,omitempty"`

	SearcherState json.RawMessage `json:"searcher_state"`
	MetricState   json.RawMessage `json:"metric_state,omitempty"`

	// CorpusSeedKVs are the resolved-but-unconsumed warm-start seed
	// configurations; WarmDTM records that the live session warm-started
	// its DeepTune searcher from corpus weights (the weights themselves,
	// as trained since, are in SearcherState). A restored session replays
	// the original query answer from these instead of re-asking a corpus
	// that may have grown since (Options.Corpus is json:"-").
	CorpusSeedKVs []map[string]string `json:"corpus_seed_kvs,omitempty"`
	WarmDTM       bool                `json:"warm_dtm,omitempty"`
}

// CheckpointableMetric is the optional Metric extension stateful metrics
// implement so sessions using them can snapshot (ScoreMetric's running
// normalization is session state like any other). Stateless metrics need
// not implement it.
type CheckpointableMetric interface {
	Metric
	// CheckpointMetric serializes the metric's accumulated state.
	CheckpointMetric() ([]byte, error)
	// RestoreMetric rebuilds state captured by CheckpointMetric.
	RestoreMetric(data []byte) error
}

// Snapshot serializes the session's complete state. It requires the
// searcher to implement search.Checkpointable (every built-in searcher
// does) and must be called between steps — never concurrently with Run.
// The session remains usable afterwards.
func (s *Session) Snapshot() ([]byte, error) {
	ck, err := s.checkpointable()
	if err != nil {
		return nil, err
	}
	s.finalize()
	searcherState, err := ck.Checkpoint()
	if err != nil {
		return nil, err
	}
	snap := sessionSnapshot{
		Version:       snapshotVersion,
		Options:       s.opts,
		SearcherName:  s.eng.Searcher.Name(),
		MetricName:    s.eng.Metric.Name(),
		BaseSec:       s.base,
		FoldedSec:     s.folded,
		Next:          s.next,
		Observed:      s.observed,
		Done:          s.done.Load(),
		Round:         s.round,
		Exhausted:     s.exhausted,
		Frontier:      s.frontier,
		SearcherState: searcherState,
		FaultCursor:   s.faultCur,
	}
	for _, r := range s.retries {
		snap.Retries = append(snap.Retries, retrySnap{
			Iter: r.iter, ConfigKV: r.cfg.KV(), Attempt: r.attempt, NotBeforeSec: r.notBefore,
		})
	}
	for _, cfg := range s.seeds {
		snap.CorpusSeedKVs = append(snap.CorpusSeedKVs, cfg.KV())
	}
	snap.WarmDTM = s.warmDTM
	snap.Workers = make([]workerSnap, len(s.workers))
	for i, st := range s.workers {
		snap.Workers[i] = workerSnap{
			ClockSec:  st.clock.Now(),
			StallSec:  s.wall.WorkerStallSec(i),
			RNG:       st.noise.State(),
			ImageKey:  st.imageKey,
			HaveImage: st.haveImage,
			BootKey:   st.bootKey,
			HaveBoot:  st.haveBoot,
			Builds:    st.builds,
		}
	}
	if c := s.cache; c != nil && c.store != nil {
		cs := &cacheSnap{Store: c.store.Snapshot()}
		keys := make([]uint64, 0, len(c.building))
		for k := range c.building {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			t := c.building[k]
			cs.Building = append(cs.Building, ticketSnap{Key: k, Host: t.host, EndSec: t.endSec, OK: t.ok, Resolved: t.resolved})
		}
		snap.Cache = cs
	}
	snap.Inflight = make([]*evalSnap, len(s.inflight))
	for i, ev := range s.inflight {
		if ev != nil {
			es := s.snapEval(ev)
			snap.Inflight[i] = &es
		}
	}
	if cm, ok := s.eng.Metric.(CheckpointableMetric); ok {
		ms, err := cm.CheckpointMetric()
		if err != nil {
			return nil, fmt.Errorf("core: checkpointing metric %q: %w", cm.Name(), err)
		}
		snap.MetricState = ms
	}
	// encoding/json writes the snapshot with its report left null, and the
	// report's own encoder writes the report in that place: one pass over
	// the history, which encoding/json would otherwise re-scan and copy.
	head, err := json.Marshal(&snap)
	if err != nil {
		return nil, err
	}
	return encodeScratch(func(dst []byte) ([]byte, error) {
		return splice(dst, head, `,"report":null`, func(dst []byte) ([]byte, error) {
			return s.report.appendJSON(dst)
		})
	})
}

// snapEval serializes one pending evaluation.
func (s *Session) snapEval(ev *batchEval) evalSnap {
	res := &ev.res
	es := evalSnap{
		Iter:        ev.iter,
		Worker:      ev.st.worker,
		Result:      snapResult{*res},
		ArtifactKey: res.artifactKey,
		BuildEndSec: res.buildEndSec,
	}
	if t := res.ticket; t != nil {
		if s.cache != nil && s.cache.building[res.artifactKey] == t {
			es.TicketRegistered = true
		} else {
			es.Ticket = &ticketSnap{Key: res.artifactKey, Host: t.host, EndSec: t.endSec, OK: t.ok, Resolved: t.resolved}
		}
	}
	return es
}

// PeekSnapshot returns the options a session snapshot was taken with,
// without restoring it — callers use it to reconstruct the searcher and
// engine with matching construction parameters (notably the seed) before
// RestoreSession. It reads only the header: Snapshot writes "version" and
// "options" first, and decoding stops once both are in, so a body that is
// malformed past them fails in RestoreSession instead.
func PeekSnapshot(data []byte) (Options, error) {
	version, opts, err := peekHeader(data)
	if err != nil {
		return Options{}, fmt.Errorf("core: decoding session snapshot: %w", err)
	}
	if version != snapshotVersion {
		return Options{}, fmt.Errorf("core: session snapshot version %d (want %d)", version, snapshotVersion)
	}
	return opts, nil
}

// peekHeader streams the snapshot object's keys until it has seen both
// "version" and "options", skipping any other value, matching keys
// case-insensitively as json.Unmarshal does.
func peekHeader(data []byte) (version int, opts Options, err error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	if tok, err := dec.Token(); err != nil {
		return 0, Options{}, err
	} else if tok != json.Delim('{') {
		return 0, Options{}, fmt.Errorf("snapshot is not a JSON object")
	}
	var haveVersion, haveOptions bool
	for !(haveVersion && haveOptions) && dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return 0, Options{}, err
		}
		key, _ := tok.(string)
		switch {
		case strings.EqualFold(key, "version"):
			haveVersion = true
			err = dec.Decode(&version)
		case strings.EqualFold(key, "options"):
			haveOptions = true
			err = dec.Decode(&opts)
		default:
			err = dec.Decode(new(json.RawMessage))
		}
		if err != nil {
			return 0, Options{}, err
		}
	}
	if !(haveVersion && haveOptions) {
		// The object ended early: it must still be whole.
		if _, err := dec.Token(); err != nil {
			return 0, Options{}, err
		}
	}
	return version, opts, nil
}

// RestoreSession rebuilds a session from a Snapshot against an engine
// whose model, app, metric, and searcher were constructed exactly as the
// snapshotted session's were (same spaces, same constructor arguments —
// the searcher's accumulated state is restored from the snapshot). The
// engine's clock is advanced to the snapshot's virtual position; it must
// not already be past it.
func (e *Engine) RestoreSession(data []byte) (*Session, error) {
	var snap sessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("core: decoding session snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: session snapshot version %d (want %d)", snap.Version, snapshotVersion)
	}
	if got := e.Searcher.Name(); got != snap.SearcherName {
		return nil, fmt.Errorf("core: snapshot was taken with searcher %q, engine has %q", snap.SearcherName, got)
	}
	if got := e.Metric.Name(); got != snap.MetricName {
		return nil, fmt.Errorf("core: snapshot was taken with metric %q, engine has %q", snap.MetricName, got)
	}
	if snap.Report == nil {
		return nil, fmt.Errorf("core: session snapshot has no report")
	}
	// A live session's options always validate, and every table sized
	// from them is checked against the snapshot's before it is built.
	if err := snap.Options.Validate(); err != nil {
		return nil, fmt.Errorf("core: session snapshot: %w", err)
	}
	wantWorkers := snap.Options.effWorkers()
	if len(snap.Workers) != wantWorkers {
		return nil, fmt.Errorf("core: snapshot has %d workers, options imply %d", len(snap.Workers), wantWorkers)
	}
	events := 0
	if f := snap.Options.Faults; f != nil {
		events = len(f.Events)
	}
	if snap.Next < 0 || snap.Observed < 0 || snap.FaultCursor < 0 || snap.FaultCursor > events {
		return nil, fmt.Errorf("core: snapshot position out of range: next %d, observed %d, fault cursor %d of %d events",
			snap.Next, snap.Observed, snap.FaultCursor, events)
	}
	if now := e.Clock.Now(); now > snap.BaseSec {
		return nil, fmt.Errorf("core: engine clock at %.3fs is past the snapshot baseline %.3fs", now, snap.BaseSec)
	}
	e.Clock.Advance(snap.BaseSec - e.Clock.Now())

	s := e.newSession(snap.Options)
	// The surrogate window must be in place before the searcher checkpoint
	// is restored: a windowed GP restore keeps its packed factor windowed,
	// and a windowed DeepTune restore rejects a training window longer than
	// the bound and keeps trimming at it.
	if err := e.applySurrogateWindow(snap.Options); err != nil {
		return nil, err
	}

	// Report: reattach the in-memory configurations from their canonical
	// KV assignments.
	s.report = snap.Report
	space := e.Model.Space
	for i := range s.report.History {
		if err := restoreResult(&s.report.History[i], space); err != nil {
			return nil, fmt.Errorf("core: history[%d]: %w", i, err)
		}
	}
	if s.report.Best != nil {
		if err := restoreResult(s.report.Best, space); err != nil {
			return nil, fmt.Errorf("core: best result: %w", err)
		}
	}

	// Workers: clocks, stall accounting, noise streams, skip digests.
	for i, ws := range snap.Workers {
		st := s.workers[i]
		s.wall.RestoreWorker(i, ws.ClockSec, ws.StallSec)
		st.noise.SetState(ws.RNG)
		st.imageKey, st.haveImage = ws.ImageKey, ws.HaveImage
		st.bootKey, st.haveBoot = ws.BootKey, ws.HaveBoot
		st.builds = ws.Builds
	}
	// The session's wall-clock advance up to the snapshot was already
	// folded onto the original engine's clock (finalize); bring this
	// engine's clock to the same virtual position, so chains sharing the
	// clock resume exactly where the uninterrupted run would be.
	if target := snap.BaseSec + snap.FoldedSec; target > e.Clock.Now() {
		e.Clock.Advance(target - e.Clock.Now())
	}

	// Cache: store contents and the in-flight registry.
	if snap.Cache != nil && s.cache != nil && s.cache.store != nil {
		if st := snap.Cache.Store; st != nil {
			if err := st.Check(s.cache.store.Hosts()); err != nil {
				return nil, fmt.Errorf("core: snapshot artifact store: %w", err)
			}
			s.cache.store = artifact.Restore(st)
		}
		for _, ts := range snap.Cache.Building {
			s.cache.building[ts.Key] = &buildTicket{host: ts.Host, endSec: ts.EndSec, ok: ts.OK, resolved: ts.Resolved}
		}
	}

	// Scheduler position and pending evaluations.
	s.next, s.observed = snap.Next, snap.Observed
	s.done.Store(snap.Done)
	s.folded = snap.FoldedSec
	s.round = snap.Round
	s.exhausted, s.frontier = snap.Exhausted, snap.Frontier
	s.faultCur = snap.FaultCursor
	for _, rs := range snap.Retries {
		cfg, err := space.FromKV(rs.ConfigKV)
		if err != nil {
			return nil, fmt.Errorf("core: queued retry of iteration %d: %w", rs.Iter, err)
		}
		s.retries = append(s.retries, &retryItem{
			iter: rs.Iter, cfg: cfg, attempt: rs.Attempt, notBefore: rs.NotBeforeSec,
		})
	}
	if len(snap.Inflight) != wantWorkers {
		return nil, fmt.Errorf("core: snapshot has %d inflight slots, options imply %d", len(snap.Inflight), wantWorkers)
	}
	for i, es := range snap.Inflight {
		if es == nil {
			continue
		}
		ev, err := s.restoreEval(es)
		if err != nil {
			return nil, err
		}
		s.inflight[i] = ev
		s.busy++
	}

	// Corpus warm-start state: the remaining seed queue, and whether the
	// searcher warm-started from corpus weights. The weights need no
	// re-applying: the searcher state below is the DTM as trained since.
	for _, kv := range snap.CorpusSeedKVs {
		cfg, err := space.FromKV(kv)
		if err != nil {
			return nil, fmt.Errorf("core: corpus seed config: %w", err)
		}
		s.seeds = append(s.seeds, cfg)
	}
	if snap.WarmDTM {
		if _, ok := e.Searcher.(*search.DeepTune); !ok {
			return nil, fmt.Errorf("core: snapshot records corpus DTM weights but searcher %q is not deeptune", snap.SearcherName)
		}
		s.warmDTM = true
	}

	// Searcher and metric state.
	ck, err := s.checkpointable()
	if err != nil {
		return nil, err
	}
	if err := ck.Restore(snap.SearcherState); err != nil {
		return nil, err
	}
	if len(snap.MetricState) > 0 {
		cm, ok := e.Metric.(CheckpointableMetric)
		if !ok {
			return nil, fmt.Errorf("core: snapshot carries state for metric %q but the engine's does not implement CheckpointableMetric", snap.MetricName)
		}
		if err := cm.RestoreMetric(snap.MetricState); err != nil {
			return nil, err
		}
	}
	s.finalize()
	return s, nil
}

// restoreResult reattaches a deserialized result's Config from its
// canonical KV assignment and drops the decoded map, so the result
// encodes from Config again, as a live one does. The bytes are the same:
// the map is what Config.AppendKVJSON wrote, KV → FromKV is the identity
// (FuzzFromKV), and a restored session snapshots to the bytes it was
// restored from (TestSnapshotBytesDeterministic).
func restoreResult(res *Result, space *configspace.Space) error {
	if res.ConfigKV == nil {
		return nil
	}
	cfg, err := space.FromKV(res.ConfigKV)
	if err != nil {
		return err
	}
	res.Config, res.ConfigKV = cfg, nil
	return nil
}

// restoreEval rebuilds one pending evaluation, re-linking its build ticket
// to the cache's registered in-flight build when the identities matched at
// snapshot time.
func (s *Session) restoreEval(es *evalSnap) (*batchEval, error) {
	if es.Worker < 0 || es.Worker >= len(s.workers) {
		return nil, fmt.Errorf("core: pending evaluation on worker %d of %d", es.Worker, len(s.workers))
	}
	res := es.Result.Result
	if err := restoreResult(&res, s.eng.Model.Space); err != nil {
		return nil, fmt.Errorf("core: pending evaluation %d: %w", es.Iter, err)
	}
	if res.Config == nil {
		return nil, fmt.Errorf("core: pending evaluation %d has no configuration", es.Iter)
	}
	if st := s.workers[es.Worker]; res.Worker != st.worker || res.Host != st.host {
		return nil, fmt.Errorf("core: pending evaluation %d ran on worker %d of host %d, its slot is worker %d of host %d",
			es.Iter, res.Worker, res.Host, st.worker, st.host)
	}
	res.artifactKey = es.ArtifactKey
	res.buildEndSec = es.BuildEndSec
	switch {
	case es.TicketRegistered:
		if s.cache == nil || s.cache.building[es.ArtifactKey] == nil {
			return nil, fmt.Errorf("core: pending evaluation %d references an unregistered in-flight build", es.Iter)
		}
		res.ticket = s.cache.building[es.ArtifactKey]
	case es.Ticket != nil:
		res.ticket = &buildTicket{host: es.Ticket.Host, endSec: es.Ticket.EndSec, ok: es.Ticket.OK, resolved: es.Ticket.Resolved}
	}
	return &batchEval{iter: es.Iter, cfg: res.Config, st: s.workers[es.Worker], res: res}, nil
}
