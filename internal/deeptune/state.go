package deeptune

import (
	"fmt"

	"wayfinder/internal/configspace"
	"wayfinder/internal/nn"
	"wayfinder/internal/stats"
)

// State is the DTM's complete dynamic state: everything Update, Predict
// and the ranking read or write. A model of the same dimension and
// Config restored from it trains, predicts and ranks bit-identically to
// the model it was taken from, with no retraining.
type State struct {
	// Tensors holds the ten trainable tensors by name (trunk1.w, …,
	// rbf_hid.c).
	Tensors map[string]nn.Vec `json:"tensors"`
	// Opt and RBFOpt are the prediction-branch and RBF-bank optimizers,
	// moments in parameter order.
	Opt    nn.AdamState `json:"opt"`
	RBFOpt nn.AdamState `json:"rbf_opt"`
	// RNG is the minibatch-shuffle stream; Drop1RNG and Drop2RNG are the
	// two dropout mask streams.
	RNG      [4]uint64 `json:"rng"`
	Drop1RNG [4]uint64 `json:"drop1_rng"`
	Drop2RNG [4]uint64 `json:"drop2_rng"`
	// ZScorer is the feature normalization; nil before the first Update
	// or corpus restore.
	ZScorer *ZScorerState `json:"zscorer,omitempty"`
	// YStats is the target accumulator's raw Welford fields [n, mean, m2]
	// (n is exact in a float64 far beyond any session length).
	YStats nn.Vec `json:"y_stats"`
	// Trained is the Update count, which anneals the ranking's
	// exploitation weight.
	Trained int `json:"trained"`
}

// ZScorerState is a z-scorer's per-dimension mean and std.
type ZScorerState struct {
	Mean nn.Vec `json:"mean"`
	Std  nn.Vec `json:"std"`
}

// State captures the model's dynamic state. Its vectors alias the live
// model: serialize the state before the next Update.
func (d *DTM) State() *State {
	names, params := d.named()
	st := &State{
		Tensors:  make(map[string]nn.Vec, len(names)),
		RNG:      d.rng.State(),
		Drop1RNG: d.drop1.RNGState(),
		Drop2RNG: d.drop2.RNGState(),
		Trained:  d.trained,
	}
	for i, p := range params {
		st.Tensors[names[i]] = p.W
	}
	trunk, rbf := d.trunkParams(), d.rbfParams()
	st.Opt = d.opt.State(trunk[:])
	st.RBFOpt = d.rbfOpt.State(rbf[:])
	if d.zscorer != nil {
		mean, std := d.zscorer.Stats()
		st.ZScorer = &ZScorerState{Mean: mean, Std: std}
	}
	n, mean, m2 := d.yStats.Raw()
	st.YStats = nn.Vec{float64(n), mean, m2}
	return st
}

// RestoreState overwrites the model with a state captured by State from a
// model of the same dimension and Config. The state is validated in full
// first: on error the model is unchanged.
func (d *DTM) RestoreState(st *State) error {
	if st == nil {
		return fmt.Errorf("deeptune: no model state")
	}
	names, params := d.named()
	if len(st.Tensors) != len(names) {
		return fmt.Errorf("deeptune: model state has %d tensors, want %d", len(st.Tensors), len(names))
	}
	for i, p := range params {
		w, ok := st.Tensors[names[i]]
		if !ok {
			return fmt.Errorf("deeptune: model state missing tensor %q", names[i])
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("deeptune: tensor %q has %d weights, want %d", names[i], len(w), len(p.W))
		}
	}
	if st.ZScorer != nil {
		if n := len(st.ZScorer.Mean); len(st.ZScorer.Std) != n || (n != 0 && n != d.dim) {
			return fmt.Errorf("deeptune: z-scorer mean/std lengths %d/%d for dimension %d",
				n, len(st.ZScorer.Std), d.dim)
		}
	}
	if len(st.YStats) != 3 {
		return fmt.Errorf("deeptune: target stats have %d fields, want 3", len(st.YStats))
	}
	yn := st.YStats[0]
	if !isCount(yn) {
		return fmt.Errorf("deeptune: target count %v is not a count", yn)
	}
	if st.Trained < 0 {
		return fmt.Errorf("deeptune: trained count %d is negative", st.Trained)
	}
	// The optimizers validate before they mutate; stage them on copies so
	// a failure in the second leaves the first untouched too.
	trunk, rbf := d.trunkParams(), d.rbfParams()
	opt, rbfOpt := *d.opt, *d.rbfOpt
	if err := opt.SetState(trunk[:], st.Opt); err != nil {
		return fmt.Errorf("deeptune: optimizer: %w", err)
	}
	if err := rbfOpt.SetState(rbf[:], st.RBFOpt); err != nil {
		return fmt.Errorf("deeptune: rbf optimizer: %w", err)
	}

	*d.opt, *d.rbfOpt = opt, rbfOpt
	for i, p := range params {
		copy(p.W, st.Tensors[names[i]])
	}
	d.rng.SetState(st.RNG)
	d.drop1.SetRNGState(st.Drop1RNG)
	d.drop2.SetRNGState(st.Drop2RNG)
	d.zscorer = nil
	if st.ZScorer != nil {
		d.zscorer = stats.NewZScorerFromStats(st.ZScorer.Mean, st.ZScorer.Std)
	}
	d.yStats = stats.RunningFromRaw(int(yn), st.YStats[1], st.YStats[2])
	d.trained = st.Trained
	return nil
}

// SelectorState is a Selector's complete dynamic state: the model, the
// proposal stream, the explored set and the incumbent.
type SelectorState struct {
	Model *State    `json:"model"`
	RNG   [4]uint64 `json:"rng"`
	// Explored is the dissimilarity term's explored set, oldest first.
	Explored []nn.Vec `json:"explored"`
	// Best is the incumbent in canonical KV form (null without one; an
	// all-default incumbent is the empty map).
	Best     map[string]string `json:"best"`
	BestY    float64           `json:"best_y"`
	HaveBest bool              `json:"have_best"`
}

// State captures the selector's dynamic state. Like DTM.State, its
// vectors alias the live selector.
func (s *Selector) State() *SelectorState {
	st := &SelectorState{
		Model:    s.model.State(),
		RNG:      s.rng.State(),
		Explored: make([]nn.Vec, len(s.explored)),
		BestY:    s.bestY,
		HaveBest: s.haveBest,
	}
	for i, x := range s.explored {
		st.Explored[i] = x
	}
	if s.best != nil {
		st.Best = s.best.KV()
	}
	return st
}

// RestoreState overwrites the selector with a state captured by State
// from a selector built with the same space, direction and Config, after
// the same SetWindow. The explored vectors are adopted, not copied. The
// state is validated in full first: on error the selector is unchanged.
func (s *Selector) RestoreState(st *SelectorState) error {
	if st == nil {
		return fmt.Errorf("deeptune: no selector state")
	}
	if s.window > 0 && len(st.Explored) > s.window {
		return fmt.Errorf("deeptune: %d explored vectors exceed the %d-observation window", len(st.Explored), s.window)
	}
	dim := s.enc.Dim()
	for i, x := range st.Explored {
		if len(x) != dim {
			return fmt.Errorf("deeptune: explored vector %d has %d features, want %d", i, len(x), dim)
		}
	}
	if st.HaveBest && st.Best == nil {
		return fmt.Errorf("deeptune: selector state has an incumbent value but no incumbent")
	}
	var best *configspace.Config
	if st.Best != nil {
		c, err := s.space.FromKV(st.Best)
		if err != nil {
			return fmt.Errorf("deeptune: incumbent: %w", err)
		}
		best = c
	}
	if err := s.model.RestoreState(st.Model); err != nil {
		return err
	}
	s.rng.SetState(st.RNG)
	s.explored = make([][]float64, len(st.Explored))
	for i, x := range st.Explored {
		s.explored[i] = x
	}
	s.best, s.bestY, s.haveBest = best, st.BestY, st.HaveBest
	return nil
}
