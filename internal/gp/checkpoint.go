// Session checkpointing for the GP surrogate. The factor state cannot be
// rebuilt by simply re-Adding the observations: the incremental layer's
// numerical state (which prefix the last full refactorization covered, how
// many in-place extensions sit on top of it, whether the persistent jitter
// was engaged) depends on the sync cadence of the original session, and a
// from-scratch refit differs from an extended factor in the last bits —
// enough to flip an argmax and fork a resumed session. Instead the
// checkpoint records exactly that numerical state and Restore replays the
// factor's construction: one refactorization over the prefix the live
// session last refactorized, then the same one-row extensions, bit for bit.
package gp

import (
	"fmt"

	"wayfinder/internal/stats"
)

// State is a serializable image of a GP: the observations plus the
// incremental-factor bookkeeping needed to rebuild the Cholesky factor
// exactly as the live session held it.
type State struct {
	// Xs, Ys are the observed inputs and targets, in Add order
	// (fantasized observations are never part of a checkpoint).
	Xs [][]float64 `json:"xs"`
	Ys []float64   `json:"ys"`
	// Fitted is how many observations the factor covered; trailing
	// observations past it were awaiting the next lazy sync.
	Fitted int `json:"fitted"`
	// SinceRefit is how many in-place extensions sat on top of the last
	// full refactorization, so the factor's construction can be replayed:
	// refactorize the first Fitted−SinceRefit rows, extend the rest.
	SinceRefit int `json:"since_refit"`
	// Jitter is the persistent numerical-rescue diagonal.
	Jitter float64 `json:"jitter"`
	// Window is the sliding-window bound (0 = unbounded history).
	Window int `json:"window,omitempty"`
	// LengthScale and SignalVar are serialized because online adaptation
	// (SetHyperAdapt) can move them off their construction-time values; 0
	// means "keep the restore target's constructor value" so legacy
	// checkpoints restore unchanged.
	LengthScale float64 `json:"length_scale,omitempty"`
	SignalVar   float64 `json:"signal_var,omitempty"`
	// SinceAdapt is the adaptation-cadence position.
	SinceAdapt int `json:"since_adapt,omitempty"`
	// Chol is the packed factor itself, serialized only for windowed
	// models: once a downdate has dropped an observation, the factor's
	// construction history can no longer be replayed from Xs — the dropped
	// rows' kernel values are gone — so the windowed checkpoint carries
	// the numbers instead of the recipe.
	Chol []float64 `json:"chol,omitempty"`
}

// State captures the model's full state. Active fantasy frames are popped
// first: a checkpoint is a real-history boundary, exactly like Add.
func (g *GP) State() *State {
	g.PopAllFantasies()
	st := &State{
		Xs:          make([][]float64, len(g.xs)),
		Ys:          append([]float64(nil), g.ys...),
		Fitted:      g.fitted,
		SinceRefit:  g.sinceRefit,
		Jitter:      g.jitter,
		Window:      g.window,
		LengthScale: g.LengthScale,
		SignalVar:   g.SignalVar,
		SinceAdapt:  g.sinceAdapt,
	}
	for i, x := range g.xs {
		st.Xs[i] = append([]float64(nil), x...)
	}
	if g.window > 0 && g.fitted > 0 {
		st.Chol = g.chol.PackedData()
	}
	return st
}

// RestoreState rebuilds the model from a checkpoint. The hyperparameters
// (length scale, signal variance, noise) come from the receiver — they are
// construction-time constants — and the factor is reconstructed by
// replaying the live session's refactorize-then-extend history, so the
// restored model predicts bit-identically to the one checkpointed.
func (g *GP) RestoreState(st *State) error {
	n := len(st.Xs)
	if len(st.Ys) != n {
		return fmt.Errorf("gp: checkpoint has %d inputs for %d targets", n, len(st.Ys))
	}
	for i, x := range st.Xs {
		if len(x) != len(st.Xs[0]) {
			return fmt.Errorf("gp: checkpoint input %d has %d dims, input 0 has %d", i, len(x), len(st.Xs[0]))
		}
	}
	// A windowed checkpoint carries the packed factor directly; its
	// sinceRefit may exceed fitted (downdates count toward the refit
	// cadence without growing the factor), so the replay-path invariant
	// applies only when the factor must be replayed.
	direct := len(st.Chol) > 0
	if st.Fitted < 0 || st.Fitted > n || st.SinceRefit < 0 || (!direct && st.SinceRefit > st.Fitted) {
		return fmt.Errorf("gp: checkpoint factor state fitted=%d sinceRefit=%d over %d observations",
			st.Fitted, st.SinceRefit, n)
	}
	g.xs = make([][]float64, n)
	for i, x := range st.Xs {
		g.xs[i] = append([]float64(nil), x...)
	}
	g.ys = append(g.ys[:0:0], st.Ys...)
	g.kRows = nil
	g.chol = &stats.TriFactor{}
	g.alpha = nil
	g.frames = nil
	g.fitted, g.sinceRefit = 0, 0
	g.jitter = st.Jitter
	g.sinceAdapt = st.SinceAdapt
	if st.Window > 0 {
		g.window = st.Window
	}
	if st.LengthScale > 0 {
		g.LengthScale = st.LengthScale
	}
	if st.SignalVar > 0 {
		g.SignalVar = st.SignalVar
	}
	if st.Fitted == 0 {
		return nil
	}
	if direct {
		if err := g.chol.SetPacked(st.Fitted, st.Chol); err != nil {
			return fmt.Errorf("gp: restoring packed factor: %w", err)
		}
		g.fitted, g.sinceRefit = st.Fitted, st.SinceRefit
		if g.fitted == n {
			return g.refreshWeights()
		}
		return nil
	}
	g.kernelRow(st.Fitted - 1) // rebuild the cached rows the factor covers
	if base := st.Fitted - st.SinceRefit; base > 0 {
		if err := g.chol.FactorFromRows(g.kRows[:base], g.NoiseVar+g.jitter); err != nil {
			return fmt.Errorf("gp: restoring factor base: %w", err)
		}
	}
	for i := st.Fitted - st.SinceRefit; i < st.Fitted; i++ {
		row := g.kRows[i]
		if err := g.chol.Extend(row[:i], row[i]+g.NoiseVar+g.jitter); err != nil {
			return fmt.Errorf("gp: restoring factor extension %d: %w", i, err)
		}
	}
	g.fitted, g.sinceRefit = st.Fitted, st.SinceRefit
	if g.fitted == n {
		// The live model's weights were in sync; rebuild them now, since the
		// next sync will see a fully-covered factor and skip the refresh.
		return g.refreshWeights()
	}
	return nil
}
