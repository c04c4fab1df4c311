// Package search defines Wayfinder's pluggable search-algorithm API
// (§3.1) and the four strategies the paper evaluates: random search, grid
// search, Bayesian optimization, and DeepTune — plus the Unicorn-style
// causal-inference comparator used in the Fig 7 scalability study.
//
// Searchers interact with the platform through Propose/Observe: the
// platform asks for the next configuration to evaluate and reports back
// the measured metric, whether the configuration crashed, and at which
// stage — exactly the information the paper's API exposes ("the history
// of configurations explored, the corresponding performance results,
// which configurations resulted in build failure or runtime crashes").
package search

import (
	"math"
	"time"

	"wayfinder/internal/causal"
	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/gp"
	"wayfinder/internal/rng"
)

// Observation is one evaluated configuration reported to a searcher. It
// carries no feature vector: a searcher that learns encodes Config with
// its own Encoder in Observe, so the platform computes nothing that only
// some searchers read.
type Observation struct {
	// Config is the evaluated configuration.
	Config *configspace.Config
	// Metric is the measured value (undefined when Crashed).
	Metric float64
	// Crashed reports any build/boot/run failure.
	Crashed bool
	// Stage names the failing stage ("build", "boot", "run", "ok").
	Stage string
}

// stopwatch is a searcher's decision-cost accumulator: the host time it
// spends deciding — the paper's Fig 8 "update time" — summed until
// DecisionCost drains it. Searchers embed it, so its DecisionCost is
// theirs. It deliberately reads the wall clock: it measures the
// strategy's actual compute cost, never feeds the virtual session clock,
// and never influences what a searcher proposes. Keeping the
// time.Now/time.Since pair here, behind two reviewed pragmas, is what
// lets the walltime analyzer ban the wall clock everywhere else in the
// package.
type stopwatch struct{ spent time.Duration }

// timed starts timing and returns the func that stops it, adding the
// elapsed time to the accumulator: `defer s.timed()()`.
func (w *stopwatch) timed() func() {
	start := time.Now() //wfvet:ignore walltime decision cost measures real compute time (Fig 8), never session-visible state
	return func() {
		w.spent += time.Since(start) //wfvet:ignore walltime decision cost measures real compute time (Fig 8), never session-visible state
	}
}

// DecisionCost implements Searcher: the host time spent since the
// previous call, drained on read.
func (w *stopwatch) DecisionCost() time.Duration {
	d := w.spent
	w.spent = 0
	return d
}

// Searcher decides which configuration to evaluate next.
type Searcher interface {
	// Name identifies the strategy.
	Name() string
	// Propose returns the next configuration to evaluate.
	Propose() *configspace.Config
	// Observe reports an evaluation result.
	Observe(o Observation)
	// DecisionCost returns the host time the searcher spent deciding since
	// the previous DecisionCost call, and resets it (the paper's Fig 8
	// "update time"). Read once per observation, it is that observation's
	// Propose+Observe cost; a batch's proposal cost is returned by the
	// first read after ProposeBatch, once.
	DecisionCost() time.Duration
}

// Windowed is the optional extension of searchers whose learned surrogate
// can run over a bounded sliding window of recent observations instead of
// the full history — the knob that turns an O(n²)-per-decision session
// into a constant-cost one on long runs. SetSurrogateWindow(0) restores
// unbounded history; implementations reject degenerate windows with an
// explicit error. Bayesian and DeepTune implement it; memoryless
// strategies (random, grid) have nothing to bound and do not.
type Windowed interface {
	Searcher
	// SetSurrogateWindow bounds the surrogate's training history to the
	// most recent n observations (0 = unbounded). It must be called before
	// or between decisions, never mid-batch.
	SetSurrogateWindow(n int) error
}

// Random is the random-search baseline: every proposal is drawn uniformly
// from the space, deduplicated against history ("continuously generating
// unique configurations with random values for each parameter").
//
// With a mutation width k > 0 (NewRandomMutate) it is the random baseline
// for compile-time exploration (§4.4) instead: rather than resampling
// every parameter — which on a space with essential boot options
// produces almost no bootable kernels — each proposal re-draws k
// randomly-chosen parameters from the space's default (for Fig 10/11,
// the distro or Cozart baseline).
type Random struct {
	space *configspace.Space
	k     int
	rng   *rng.RNG
	seen  map[uint64]bool
	stopwatch
}

// NewRandom returns a random searcher that draws uniformly.
func NewRandom(space *configspace.Space, seed uint64) *Random {
	return NewRandomMutate(space, 0, seed)
}

// NewRandomMutate returns a mutation-based random searcher that re-draws
// k parameters of the space's default per proposal; k = 0 is NewRandom's
// uniform draw.
func NewRandomMutate(space *configspace.Space, k int, seed uint64) *Random {
	return &Random{space: space, k: k, rng: rng.New(seed), seen: map[uint64]bool{}}
}

// Name implements Searcher.
func (s *Random) Name() string { return "random" }

// Propose implements Searcher.
func (s *Random) Propose() *configspace.Config {
	defer s.timed()()
	for attempt := 0; attempt < 64; attempt++ {
		c := s.draw()
		if h := c.Hash(); !s.seen[h] {
			s.seen[h] = true
			return c
		}
	}
	// Space effectively exhausted near the sampler: accept a duplicate.
	return s.draw()
}

// draw samples one candidate: a uniform draw, or with k > 0 the space's
// default with k parameters re-drawn in place (Mutate's RNG stream, one
// allocation).
func (s *Random) draw() *configspace.Config {
	if s.k <= 0 {
		return s.space.Random(s.rng)
	}
	c := s.space.Default()
	s.space.MutateInto(c, c, s.k, s.rng)
	return c
}

// Observe implements Searcher.
func (s *Random) Observe(Observation) {}

// Grid explores the space systematically, one parameter value after the
// other: for each parameter in turn it steps through a small value grid
// while holding everything else at the incumbent default. The paper omits
// grid search from the evaluation as "well-known to be inferior to random
// search on large configuration spaces" — it is provided for completeness
// and for small spaces.
//
// Grid implements BatchSearcher natively: ProposeBatch walks the ladder
// directly instead of going through the AsBatch adapter, with each slot
// one pendingSet.draw over the ladder step — the adapter's dedup, so the
// native path proposes the same sequence the adapter would.
type Grid struct {
	space   *configspace.Space
	base    *configspace.Config
	pending pendingSet

	paramIdx int
	valueIdx int
	stopwatch
}

// NewGrid returns a grid searcher starting from the space defaults.
func NewGrid(space *configspace.Space) *Grid {
	return &Grid{space: space, base: space.Default(), pending: pendingSet{}}
}

// Name implements Searcher.
func (s *Grid) Name() string { return "grid" }

// gridValues returns the value grid for a parameter: full domains for
// bool/tristate/enum, a geometric ladder for integers.
func gridValues(p *configspace.Param) []configspace.Value {
	switch p.Type {
	case configspace.Bool:
		return []configspace.Value{configspace.BoolValue(false), configspace.BoolValue(true)}
	case configspace.Tristate:
		return []configspace.Value{
			configspace.TriValue(configspace.TriNo),
			configspace.TriValue(configspace.TriModule),
			configspace.TriValue(configspace.TriYes),
		}
	case configspace.Enum:
		out := make([]configspace.Value, len(p.Values))
		for i, v := range p.Values {
			out[i] = configspace.EnumValue(v)
		}
		return out
	default:
		var out []configspace.Value
		span := p.Max - p.Min
		if span >= 0 && span <= 8 {
			for v := p.Min; v <= p.Max; v++ {
				out = append(out, configspace.IntValue(v))
			}
			return out
		}
		// Geometric ladder from Min toward Max. The step is sign-safe:
		// negative values shrink toward zero (v*4+1 would diverge to
		// -inf), and the multiply near MaxInt64 is overflow-guarded.
		for v := p.Min; v < p.Max; {
			out = append(out, configspace.IntValue(v))
			switch {
			case v < 0:
				v /= 4
			case v > (math.MaxInt64-1)/4:
				v = p.Max
			default:
				v = v*4 + 1
			}
		}
		out = append(out, configspace.IntValue(p.Max))
		return out
	}
}

// step advances the ladder by one proposal — the walk shared by Propose
// and ProposeBatch.
func (s *Grid) step() *configspace.Config {
	wraps := 0
	for {
		if s.paramIdx >= s.space.Len() {
			// Wrapped the whole space: restart. A second consecutive wrap
			// without yielding means nothing is sweepable (every parameter
			// Fixed or in a zero-weight class) — return the base rather
			// than spinning forever.
			wraps++
			if wraps > 1 || s.space.Len() == 0 {
				return s.base.Clone()
			}
			s.paramIdx, s.valueIdx = 0, 0
		}
		p := s.space.Param(s.paramIdx)
		if p.Fixed || s.space.ClassWeight(p.Class) <= 0 {
			s.paramIdx++
			s.valueIdx = 0
			continue
		}
		values := gridValues(p)
		if s.valueIdx >= len(values) {
			s.paramIdx++
			s.valueIdx = 0
			continue
		}
		c := s.base.Clone()
		c.SetIndex(s.paramIdx, values[s.valueIdx])
		s.valueIdx++
		return c
	}
}

// Propose implements Searcher.
func (s *Grid) Propose() *configspace.Config {
	defer s.timed()()
	return s.step()
}

// ProposeBatch implements BatchSearcher natively: up to n consecutive
// ladder steps, each slot one pendingSet.draw, which skips a step that
// collides with a pending proposal (a ladder step equal to the sweep
// base — its parameter's grid includes the incumbent value — can repeat
// within a window).
func (s *Grid) ProposeBatch(n int) []*configspace.Config {
	defer s.timed()()
	out := make([]*configspace.Config, 0, n)
	for len(out) < n {
		out = append(out, s.pending.draw(s.step))
	}
	return out
}

// Observe implements Searcher, clearing the configuration from the
// pending set. Grid learns nothing from the measurement itself: without
// direction knowledge it cannot rank, so the engine feeds the best
// configuration back via AdoptBase.
func (s *Grid) Observe(o Observation) { s.pending.done(o.Config) }

// AdoptBase re-centers the sweep on a new base configuration.
func (s *Grid) AdoptBase(c *configspace.Config) { s.base = c.Clone() }

// Bayesian is the Bayesian-optimization baseline: a Gaussian-process
// surrogate updated on every observation (an O(n²) incremental Cholesky
// extension — see package gp), proposing the candidate with maximum
// Expected Improvement over a random pool. Crashed configurations are
// taught to the surrogate as worst-case outcomes (BO has no native crash
// model — the deficiency §2.3 calls out).
//
// Bayesian implements BatchSearcher natively: ProposeBatch scores one
// shared candidate pool and fills later slots via constant-liar
// fantasized observations (each pick is speculatively taught to the
// surrogate at the incumbent best value, pushed in O(n²) and popped for
// free), so within a round later slots condition on earlier picks instead
// of proposing near-duplicates. A slot that is not picked from the scored
// pool uses pendingSet.draw, the adapter's dedup, and ProposeBatch(1) on
// an empty pending set reproduces Propose byte-for-byte — what keeps
// one-worker parallel sessions identical to sequential ones.
type Bayesian struct {
	space    *configspace.Space
	enc      *configspace.Encoder
	model    *gp.GP
	rng      *rng.RNG
	maximize bool

	poolSize  int
	best      float64
	haveBest  bool
	worst     float64
	haveWorst bool
	fitErrors int
	pending   pendingSet

	// Reusable proposal scratch: the candidate pool (configurations
	// redrawn in place; a slot handed to the caller is nil until the next
	// draw reallocates it), its encodings in pool-owned rows, its hashes
	// (filled only for multi-slot batches, their one reader), and the
	// batched-EI output — so a steady-state proposal allocates only the
	// candidate it hands out.
	pool       []*configspace.Config
	poolXs     [][]float64
	poolHashes []uint64
	poolEIs    []float64

	stopwatch
}

// NewBayesian returns a Bayesian-optimization searcher.
func NewBayesian(space *configspace.Space, maximize bool, seed uint64) *Bayesian {
	return &Bayesian{
		space:    space,
		enc:      configspace.NewEncoder(space),
		model:    gp.New(0.35, 1.0, 1e-3),
		rng:      rng.New(seed),
		maximize: maximize,
		poolSize: 96,
		pending:  pendingSet{},
	}
}

// Name implements Searcher.
func (s *Bayesian) Name() string { return "bayesian" }

// hyperAdaptEvery is the online hyperparameter-adaptation cadence a
// windowed Bayesian searcher runs at: every this-many observations the
// surrogate grid-probes the (lengthScale, signalVar) neighborhood by log
// marginal likelihood and adopts an improvement. Windowed models need it —
// with only a recent slice of history in view, the construction-time
// hyperparameters can drift arbitrarily far from what the window supports.
const hyperAdaptEvery = 32

// SetSurrogateWindow implements Windowed: the GP trains on (and downdates
// out of) a sliding window of the most recent n observations, and online
// hyperparameter adaptation is switched on alongside (off again at n=0).
func (s *Bayesian) SetSurrogateWindow(n int) error {
	if err := s.model.SetWindow(n); err != nil {
		return err
	}
	if n > 0 {
		s.model.SetHyperAdapt(hyperAdaptEvery)
	} else {
		s.model.SetHyperAdapt(0)
	}
	return nil
}

// FitErrors returns how many surrogate fit failures proposals have
// absorbed (each one falls back to the best candidate scored so far, or a
// random draw when the failure hits before any candidate was scored).
func (s *Bayesian) FitErrors() int { return s.fitErrors }

// signed maps a metric into maximize direction.
func (s *Bayesian) signed(y float64) float64 {
	if s.maximize {
		return y
	}
	return -y
}

// Propose implements Searcher.
func (s *Bayesian) Propose() *configspace.Config {
	defer s.timed()()
	return s.proposeOne()
}

// drawPool refills the reusable proposal scratch with poolSize fresh
// random candidates and their encodings — the same RNG draws and encode
// order the per-candidate loop consumed, just performed upfront so the
// pool can be scored with one kernel-matrix build and one triangular
// batch solve instead of poolSize scalar solves. Candidates are redrawn
// in place (Space.RandomInto) and encoded into pool-owned rows; only a
// slot whose candidate was handed out last time is reallocated.
func (s *Bayesian) drawPool() {
	if s.pool == nil {
		dim := s.enc.Dim()
		rows := make([]float64, s.poolSize*dim)
		s.pool = make([]*configspace.Config, s.poolSize)
		s.poolXs = make([][]float64, s.poolSize)
		for i := range s.poolXs {
			s.poolXs[i] = rows[i*dim : (i+1)*dim : (i+1)*dim]
		}
		s.poolHashes = make([]uint64, s.poolSize)
		s.poolEIs = make([]float64, s.poolSize)
	}
	for i, c := range s.pool {
		if c == nil {
			s.pool[i] = s.space.Random(s.rng)
		} else {
			s.space.RandomInto(c, s.rng)
		}
		s.enc.EncodeInto(s.pool[i], s.poolXs[i])
	}
}

// takePool hands pool candidate i to the caller: the configuration
// leaves the pool, so the next draw cannot overwrite it.
func (s *Bayesian) takePool(i int) *configspace.Config {
	c := s.pool[i]
	s.pool[i] = nil
	return c
}

// proposeOne draws and scores one candidate pool — the single-proposal
// path Propose and the batch cold-start share. The whole pool is scored
// with one batched EI sweep (bit-identical to the scalar loop); on a
// surrogate fit failure the batch is all-or-nothing, so the fallback is
// the pool's first candidate — a random draw, exactly what the caller
// would get from an unscored pool — and the fit error is counted.
func (s *Bayesian) proposeOne() *configspace.Config {
	if s.model.Len() < 3 {
		return s.space.Random(s.rng)
	}
	s.drawPool()
	if err := s.model.ExpectedImprovementBatch(s.poolXs, s.best, 0.01, s.poolEIs); err != nil {
		s.fitErrors++
		return s.takePool(0)
	}
	bestEI, bestIdx := -1.0, 0
	for i, ei := range s.poolEIs {
		if ei > bestEI {
			bestEI, bestIdx = ei, i
		}
	}
	return s.takePool(bestIdx)
}

// ProposeBatch implements BatchSearcher natively. One shared pool of
// poolSize random candidates is drawn, encoded and hashed once (the
// hashes are what keeps pending candidates out); each slot scores
// the whole pool against the current surrogate — including the fantasized
// observations pushed for earlier slots (constant liar: each pick is
// speculatively taught at the incumbent best, so EI collapses around it
// and the next slot is steered elsewhere) — and picks the best-EI
// candidate not colliding with a pending proposal. All fantasy frames are
// popped before returning: the surrogate the next Observe updates is
// exactly the real-history one.
func (s *Bayesian) ProposeBatch(n int) []*configspace.Config {
	defer s.timed()()
	out := make([]*configspace.Config, 0, n)
	if n == 1 || s.model.Len() < 3 {
		// A singleton batch is the adapter's propose-once path verbatim —
		// including the lazy pool draw, so even the fit-error early exit
		// consumes the RNG identically and the ProposeBatch(1) ≡ Propose
		// byte-equivalence holds on every code path. On a cold start
		// proposeOne is a plain random draw, so each slot is the adapter's
		// policy around the single-proposal cold path exactly.
		for len(out) < n {
			out = append(out, s.pending.draw(s.proposeOne))
		}
		return out
	}
	s.drawPool()
	for i, c := range s.pool {
		s.poolHashes[i] = c.Hash()
	}
	defer s.model.PopAllFantasies()
	for slot := 0; slot < n; slot++ {
		// One batched EI sweep per slot: the fantasy pushed for the
		// previous pick changes the surrogate, so each slot re-scores the
		// shared pool — still one solve per slot instead of poolSize.
		bestEI, bestIdx := -1.0, -1
		if err := s.model.ExpectedImprovementBatch(s.poolXs, s.best, 0.01, s.poolEIs); err != nil {
			// All-or-nothing batch failure: fall back to the first
			// non-pending pool candidate (a random draw) and count it.
			s.fitErrors++
			for i := range s.pool {
				if !s.pending.has(s.poolHashes[i]) {
					bestIdx = i
					break
				}
			}
		} else {
			for i := range s.pool {
				if s.pending.has(s.poolHashes[i]) {
					continue
				}
				if s.poolEIs[i] > bestEI {
					bestEI, bestIdx = s.poolEIs[i], i
				}
			}
		}
		if bestIdx < 0 {
			// Every pool candidate is pending: fall back to fresh random
			// draws with the adapter's bounded dedup.
			out = append(out, s.pending.draw(s.randomConfig))
			continue
		}
		s.pending.add(s.poolHashes[bestIdx])
		out = append(out, s.takePool(bestIdx))
		if slot < n-1 {
			// Constant liar: fantasize the pick at the incumbent best
			// (signed), so the next slot's EI avoids its neighborhood.
			// A push failure just skips the fantasy — the slot still
			// proposes, the pool is merely scored unconditioned.
			if err := s.model.PushFantasy(s.poolXs[bestIdx], s.best); err != nil {
				s.fitErrors++
			}
		}
	}
	return out
}

// randomConfig is one uniform draw from the proposal stream.
func (s *Bayesian) randomConfig() *configspace.Config { return s.space.Random(s.rng) }

// Observe implements Searcher, clearing the configuration from the
// pending set before teaching it to the surrogate.
func (s *Bayesian) Observe(o Observation) {
	defer s.timed()()
	s.pending.done(o.Config)
	if o.Crashed {
		// Penalize with the worst observed value so far, in the signed
		// (maximize) direction — so on minimize objectives, where every
		// signed value is ≤ 0, a crash is never taught as an improvement.
		// Before the first successful observation there is no scale to
		// penalize against, so the crash is withheld from the surrogate
		// (Propose keeps sampling randomly until the model has points).
		if s.haveWorst {
			s.model.Add(s.enc.Encode(o.Config), s.worst)
		}
		return
	}
	y := s.signed(o.Metric)
	if !s.haveWorst || y < s.worst {
		s.worst, s.haveWorst = y, true
	}
	if !s.haveBest || y > s.best {
		s.best, s.haveBest = y, true
	}
	s.model.Add(s.enc.Encode(o.Config), y)
}

// DeepTune adapts the deeptune.Selector to the Searcher interface,
// carrying the training window the DTM retrains on. Its checkpoint is the
// trained model itself — weights, optimizer moments, RNG positions and the
// window — so a restore costs the size of that state, not one retrain per
// past observation.
//
// DeepTune implements BatchSearcher natively: ProposeBatch ranks one
// shared candidate pool — one DTM forward pass per candidate, not per
// slot — and fills later slots under a diversity penalty (each pick joins
// the dissimilarity term's explored set), replacing the batchAdapter path
// for parallel/async sessions. In-flight proposals are kept out through
// the same pendingSet the adapter uses, and ProposeBatch(1) on an empty
// pending set reproduces Propose byte-for-byte.
type DeepTune struct {
	sel *deeptune.Selector

	// xs, ys and crashes are the training window; xs holds the same
	// vectors as the selector's explored set.
	xs      [][]float64
	ys      []float64
	crashes []bool
	pending pendingSet
	// window bounds the training history handed to the DTM (0 = full
	// history).
	window int

	stopwatch
}

// NewDeepTune returns a DeepTune searcher.
func NewDeepTune(space *configspace.Space, maximize bool, cfg deeptune.Config) *DeepTune {
	return &DeepTune{sel: deeptune.NewSelector(space, maximize, cfg), pending: pendingSet{}}
}

// Name implements Searcher.
func (s *DeepTune) Name() string { return "deeptune" }

// Selector exposes the underlying selector (for transfer learning).
func (s *DeepTune) Selector() *deeptune.Selector { return s.sel }

// SetSurrogateWindow implements Windowed: the DTM retrains on (and the
// selector's dissimilarity term remembers) only the most recent n
// observations, bounding the per-iteration retrain cost that otherwise
// grows with the session.
func (s *DeepTune) SetSurrogateWindow(n int) error {
	if err := s.sel.SetWindow(n); err != nil {
		return err
	}
	s.window = n
	return nil
}

// Propose implements Searcher.
func (s *DeepTune) Propose() *configspace.Config {
	defer s.timed()()
	return s.sel.Propose()
}

// ProposeBatch implements BatchSearcher natively (see the type comment).
// The selector skips pool candidates that collide with a pending proposal
// on a best-effort basis, its own bounded re-roll standing in for
// pendingSet.draw; every pick is then recorded in the pending set.
func (s *DeepTune) ProposeBatch(n int) []*configspace.Config {
	defer s.timed()()
	var skip func(*configspace.Config) bool
	if len(s.pending) > 0 {
		skip = func(c *configspace.Config) bool { return s.pending.has(c.Hash()) }
	}
	out := s.sel.ProposeBatch(n, skip)
	for _, c := range out {
		s.pending.add(c.Hash())
	}
	return out
}

// Observe implements Searcher, clearing the configuration from the
// pending set before retraining the DTM.
func (s *DeepTune) Observe(o Observation) {
	defer s.timed()()
	s.pending.done(o.Config)
	x := s.sel.Encoder().Encode(o.Config) // kept: the window and the explored set hold it
	s.xs = append(s.xs, x)
	s.ys = append(s.ys, o.Metric)
	s.crashes = append(s.crashes, o.Crashed)
	if s.window > 0 && len(s.xs) > s.window {
		// Slide the training window: copy-shift in place so the backing
		// arrays stop growing with the session.
		drop := len(s.xs) - s.window
		s.xs = shiftTail(s.xs, drop)
		s.ys = shiftTail(s.ys, drop)
		s.crashes = shiftTail(s.crashes, drop)
	}
	// Selector.Observe never fails with aligned histories, which this
	// adapter maintains by construction.
	_ = s.sel.Observe(o.Config, x, o.Metric, o.Crashed, s.xs, s.ys, s.crashes)
}

// shiftTail drops the first drop elements of s in place — copy-shift, zero
// the vacated tail (releasing pointed-to memory), reslice — so a sliding
// window reuses its backing array instead of leaking it one append at a
// time.
func shiftTail[T any](s []T, drop int) []T {
	var zero T
	n := copy(s, s[drop:])
	for i := n; i < len(s); i++ {
		s[i] = zero
	}
	return s[:n]
}

// Unicorn adapts the causal-inference optimizer to the Searcher interface
// (Fig 7's comparator). Every Observe refits the causal graph from
// scratch — the scaling behaviour the figure measures.
type Unicorn struct {
	space    *configspace.Space
	enc      *configspace.Encoder
	opt      *causal.Optimizer
	rng      *rng.RNG
	maximize bool
	poolSize int
	stopwatch
}

// NewUnicorn returns a causal-inference searcher.
func NewUnicorn(space *configspace.Space, maximize bool, seed uint64) *Unicorn {
	enc := configspace.NewEncoder(space)
	return &Unicorn{
		space:    space,
		enc:      enc,
		opt:      causal.New(enc.Dim(), maximize),
		rng:      rng.New(seed),
		maximize: maximize,
		poolSize: 64,
	}
}

// Name implements Searcher.
func (s *Unicorn) Name() string { return "unicorn" }

// Propose implements Searcher.
func (s *Unicorn) Propose() *configspace.Config {
	defer s.timed()()
	if s.opt.Len() < 5 {
		return s.space.Random(s.rng)
	}
	pool := make([]*configspace.Config, s.poolSize)
	feats := make([][]float64, s.poolSize)
	for i := range pool {
		pool[i] = s.space.Random(s.rng)
		feats[i] = s.enc.Encode(pool[i])
	}
	return pool[s.opt.SelectNext(feats)]
}

// Observe implements Searcher.
func (s *Unicorn) Observe(o Observation) {
	defer s.timed()()
	y := o.Metric
	if o.Crashed {
		y = 0
		if !s.maximize {
			y = 1e12
		}
	}
	s.opt.Observe(s.enc.Encode(o.Config), y)
	s.opt.Fit()
}

// Optimizer exposes the causal optimizer (for Fig 7 cost accounting).
func (s *Unicorn) Optimizer() *causal.Optimizer { return s.opt }
