// Corpus plumbing for the Session state machine: warm-start resolution at
// construction, seed injection bookkeeping (the schedulers consume
// s.seeds ahead of searcher proposals), and deposit-on-done. The corpus
// itself lives in internal/corpus; this file is the session-side contract:
//
//   - Resolution happens exactly once, in Engine.NewSession. A restored
//     session never re-queries the corpus — its snapshot carries the
//     resolved-but-unconsumed seeds, and the DeepTune checkpoint the DTM
//     as trained since its warm start, so resume continues from the
//     original query answer even if the corpus grew since.
//   - An empty corpus (or one with nothing for this space) resolves to
//     nothing and leaves the session byte-identical to a corpusless one.
//   - Deposit happens on session completion, before SessionDone, and is
//     idempotent: entries are content-addressed, so re-depositing the same
//     outcome is free.
package core

import (
	"fmt"
	"sort"

	"wayfinder/internal/configspace"
	"wayfinder/internal/corpus"
	"wayfinder/internal/forest"
	"wayfinder/internal/nn"
	"wayfinder/internal/search"
)

// Salts decorrelating the deposit-time forest fit from every other
// consumer of the session seed.
const (
	corpusFitSalt = 0xc09f17
	corpusImpSalt = 0xc09f5e
)

// corpusDepositK bounds how many best configurations a deposit carries.
const corpusDepositK = 8

// corpusMinObservations is the fewest non-crashed observations a session
// must have made for its importance profile to mean anything; below it
// the session completes without depositing.
const corpusMinObservations = 2

// resolveCorpus answers the session's warm-start query at construction
// time: seed configurations become the first proposals (all searchers),
// and a DeepTune searcher additionally has the nearest neighbor's model
// weights restored into it. Resolving nothing (no corpus, empty corpus,
// WarmStartK 0) is the cold-start path and changes no state at all.
func (s *Session) resolveCorpus() error {
	o := &s.opts
	if o.WarmStartK > 0 && o.Corpus == nil {
		return fmt.Errorf("core: WarmStartK set without a Corpus to draw from")
	}
	if o.Corpus == nil || o.WarmStartK <= 0 {
		return nil
	}
	e := s.eng
	ws := o.Corpus.WarmStart(e.App.Name, e.Model.Space.Fingerprint(), o.WarmStartK)
	if ws == nil {
		return nil
	}
	for _, kv := range ws.Seeds {
		cfg, err := e.Model.Space.FromKV(kv)
		if err != nil {
			return fmt.Errorf("core: corpus seed config: %w", err)
		}
		s.seeds = append(s.seeds, cfg)
	}
	resolved := len(s.seeds) > 0
	if len(ws.DTM) > 0 {
		if dt, ok := e.Searcher.(*search.DeepTune); ok {
			snap, err := nn.DecodeSnapshot(ws.DTM)
			if err != nil {
				return fmt.Errorf("core: corpus DTM snapshot: %w", err)
			}
			if err := dt.Selector().Model().Restore(snap); err != nil {
				return fmt.Errorf("core: corpus DTM restore: %w", err)
			}
			s.warmDTM = true
			resolved = true
		}
	}
	if !resolved {
		// Neighbors existed but contributed nothing usable (e.g. only a
		// DTM, under a non-DeepTune searcher): still a cold start.
		s.seeds = nil
		return nil
	}
	s.report.CorpusHash = ws.Hash
	s.report.CorpusSeeds = len(s.seeds)
	return nil
}

// announceCorpus emits the warm-start CorpusEvent lazily on the first
// step: root-layer observers attach only after session construction
// returns, so emitting during resolveCorpus would address an empty
// observer list.
func (s *Session) announceCorpus() {
	if s.corpusAnnounced {
		return
	}
	s.corpusAnnounced = true
	if s.report.CorpusHash == "" {
		return
	}
	s.emit(CorpusEvent{
		Kind:  "warmstart",
		Hash:  s.report.CorpusHash,
		Seeds: s.report.CorpusSeeds,
		DTM:   s.warmDTM,
	})
}

// AttachCorpus re-attaches a live corpus store to the session, so a
// session restored from a snapshot (whose serialized Options cannot carry
// the store pointer) deposits its outcome on completion. Warm-start
// resolution is never redone: the snapshot already carries the resolved
// seeds and weights.
func (s *Session) AttachCorpus(st *corpus.Store) {
	s.opts.Corpus = st
}

// depositCorpus stores the completed session's outcome: its importance
// profile fitted over the observation history (the Fig 5 recipe), its
// best configurations, and — for DeepTune — its model weights. Runs in
// markDone after the final finalize, immediately before SessionDone.
func (s *Session) depositCorpus() {
	st := s.opts.Corpus
	if st == nil {
		return
	}
	entry := s.buildCorpusEntry()
	if entry == nil {
		return
	}
	digest, err := st.Deposit(entry)
	if err != nil {
		// A deposit failure (disk full, permissions) must not fail the
		// session — the report is already complete; the corpus just
		// doesn't grow.
		return
	}
	s.emit(CorpusEvent{Kind: "deposit", Hash: st.Hash(), Digest: digest})
}

// buildCorpusEntry assembles the session's corpus entry, or nil when the
// history holds too little signal to transfer (no viable best, or fewer
// than corpusMinObservations non-crashed observations).
func (s *Session) buildCorpusEntry() *corpus.Entry {
	e, rep := s.eng, s.report
	if rep.Best == nil || rep.Best.Config == nil {
		return nil
	}
	type scored struct {
		cfg    *configspace.Config
		y      float64
		metric float64
	}
	var ok []scored
	for i := range rep.History {
		res := &rep.History[i]
		if res.Crashed || res.Config == nil {
			continue
		}
		y := res.Metric
		if !rep.Maximize {
			// Sign-flip latency-like metrics so "important" means the same
			// direction everywhere, exactly as the Fig 5 fit does.
			y = -y
		}
		ok = append(ok, scored{cfg: res.Config, y: y, metric: res.Metric})
	}
	if len(ok) < corpusMinObservations {
		return nil
	}
	xs := make([][]float64, len(ok))
	ys := make([]float64, len(ok))
	for i, sc := range ok {
		xs[i], ys[i] = e.enc.Encode(sc.cfg), sc.y
	}
	fc := forest.DefaultConfig()
	fc.Trees = 30
	fc.Seed = s.opts.Seed ^ corpusFitSalt
	f := forest.Fit(xs, ys, fc)
	imp := f.Importance(s.opts.Seed ^ corpusImpSalt)

	// Best-K seed configurations, best-first, deduplicated by config hash.
	sort.SliceStable(ok, func(i, j int) bool { return ok[i].y > ok[j].y })
	var seeds []corpus.SeedConfig
	seen := map[uint64]bool{}
	for _, sc := range ok {
		if len(seeds) >= corpusDepositK {
			break
		}
		if h := sc.cfg.Hash(); seen[h] {
			continue
		} else {
			seen[h] = true
		}
		seeds = append(seeds, corpus.SeedConfig{ConfigKV: sc.cfg.KV(), Metric: sc.metric})
	}

	entry := &corpus.Entry{
		App:          e.App.Name,
		Space:        e.Model.Space.Fingerprint(),
		Metric:       rep.Metric,
		Maximize:     rep.Maximize,
		Seed:         s.opts.Seed,
		Observations: s.observed,
		Importance:   imp,
		Seeds:        seeds,
	}
	if dt, isDT := e.Searcher.(*search.DeepTune); isDT {
		if snap, err := dt.Selector().Model().Snapshot(map[string]string{"app": e.App.Name}); err == nil {
			if raw, err := snap.Encode(); err == nil {
				entry.DTM = raw
			}
		}
	}
	return entry
}
