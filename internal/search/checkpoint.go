// Searcher checkpointing: the optional protocol that lets a session
// serialize a strategy's full dynamic state and resume it byte-identically
// — histories, dedup sets, pending proposals, and RNG stream positions
// included. Construction-time parameters (the space, the optimization
// direction, hyperparameters, the seed) are NOT part of a checkpoint: a
// restore target is built fresh with the same constructor arguments and
// Restore overlays the accumulated state, which keeps checkpoints small
// and spaces shareable.
//
// Every searcher serializes its state directly: RNG words, seen/pending
// hashes, ladder position, the GP's observation list plus its
// incremental-factor bookkeeping (gp.State, whose unwindowed form the gp
// package still refactorizes on restore), and DeepTune's trained model —
// DTM tensors, Adam moments, training RNG positions, normalization and
// the training window (deeptune.SelectorState), restored without a single
// retrain. Float tensors travel as nn.Vec, bit-exact.
package search

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"wayfinder/internal/deeptune"
	"wayfinder/internal/gp"
	"wayfinder/internal/nn"
)

// Checkpointable is the optional searcher extension session snapshots use:
// Checkpoint serializes the strategy's full dynamic state, and Restore —
// called on a freshly-constructed searcher with identical constructor
// arguments — rebuilds it so the resumed session proposes byte-identically
// to an uninterrupted one. Random (uniform or mutation-based), Grid,
// Bayesian, and DeepTune implement it; strategies that do not (Unicorn, custom ones)
// make their sessions snapshot with an explanatory error.
type Checkpointable interface {
	Searcher
	// Checkpoint returns an opaque serialization of the searcher's dynamic
	// state. The searcher remains usable afterwards.
	Checkpoint() ([]byte, error)
	// Restore rebuilds the state captured by Checkpoint. It must be called
	// on an unused searcher constructed with the same arguments as the
	// checkpointed one.
	Restore(data []byte) error
}

// hashKey renders a 64-bit config hash as a JSON-safe map key.
func hashKey(h uint64) string { return strconv.FormatUint(h, 16) }

// parseHashKey inverts hashKey.
func parseHashKey(s string) (uint64, error) { return strconv.ParseUint(s, 16, 64) }

// encodePending renders a pending multiset for serialization.
func encodePending(pending pendingSet) map[string]int {
	out := make(map[string]int, len(pending))
	for h, c := range pending {
		out[hashKey(h)] = c
	}
	return out
}

// decodePending inverts encodePending. A zero or negative count is an
// error: a pendingSet never holds one, so no valid checkpoint does.
func decodePending(enc map[string]int) (pendingSet, error) {
	out := make(pendingSet, len(enc))
	for _, s := range slices.Sorted(maps.Keys(enc)) {
		h, err := parseHashKey(s)
		if err != nil {
			return nil, fmt.Errorf("search: bad pending hash %q: %w", s, err)
		}
		if err := checkPendingCount(h, enc[s]); err != nil {
			return nil, err
		}
		out[h] = enc[s]
	}
	return out, nil
}

// checkPendingCount rejects the non-positive counts a pendingSet never
// holds.
func checkPendingCount(h uint64, c int) error {
	if c <= 0 {
		return fmt.Errorf("search: pending count %d for hash %s, want > 0", c, hashKey(h))
	}
	return nil
}

// encodeSeen renders a seen-set deterministically (sorted).
func encodeSeen(seen map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// decodeSeen inverts encodeSeen.
func decodeSeen(hashes []uint64) map[uint64]bool {
	out := make(map[uint64]bool, len(hashes))
	for _, h := range hashes {
		out[h] = true
	}
	return out
}

// randomState is the serialized form of Random, uniform or mutation-based
// alike: the proposal RNG position and the history dedup set.
type randomState struct {
	RNG  [4]uint64 `json:"rng"`
	Seen []uint64  `json:"seen,omitempty"`
}

// Checkpoint implements Checkpointable.
func (s *Random) Checkpoint() ([]byte, error) {
	return json.Marshal(randomState{RNG: s.rng.State(), Seen: encodeSeen(s.seen)})
}

// Restore implements Checkpointable.
func (s *Random) Restore(data []byte) error {
	var st randomState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("search: random checkpoint: %w", err)
	}
	s.rng.SetState(st.RNG)
	s.seen = decodeSeen(st.Seen)
	return nil
}

// gridState is the serialized form of Grid: the sweep base (as the
// canonical non-default KV assignment), the ladder position, and the
// pending multiset.
type gridState struct {
	BaseKV   map[string]string `json:"base_kv"`
	ParamIdx int               `json:"param_idx"`
	ValueIdx int               `json:"value_idx"`
	Pending  map[string]int    `json:"pending,omitempty"`
}

// Checkpoint implements Checkpointable.
func (s *Grid) Checkpoint() ([]byte, error) {
	return json.Marshal(gridState{
		BaseKV:   s.base.KV(),
		ParamIdx: s.paramIdx,
		ValueIdx: s.valueIdx,
		Pending:  encodePending(s.pending),
	})
}

// Restore implements Checkpointable.
func (s *Grid) Restore(data []byte) error {
	var st gridState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("search: grid checkpoint: %w", err)
	}
	base, err := s.space.FromKV(st.BaseKV)
	if err != nil {
		return fmt.Errorf("search: grid checkpoint base: %w", err)
	}
	pending, err := decodePending(st.Pending)
	if err != nil {
		return err
	}
	s.base = base
	s.paramIdx, s.valueIdx = st.ParamIdx, st.ValueIdx
	s.pending = pending
	return nil
}

// bayesianState is the serialized form of Bayesian: the candidate-pool RNG
// position, the incumbent/worst trackers, the pending multiset, and the GP
// surrogate's exact numerical state.
type bayesianState struct {
	RNG       [4]uint64      `json:"rng"`
	Best      float64        `json:"best"`
	HaveBest  bool           `json:"have_best"`
	Worst     float64        `json:"worst"`
	HaveWorst bool           `json:"have_worst"`
	FitErrors int            `json:"fit_errors,omitempty"`
	Pending   map[string]int `json:"pending,omitempty"`
	GP        *gp.State      `json:"gp"`
}

// Checkpoint implements Checkpointable.
func (s *Bayesian) Checkpoint() ([]byte, error) {
	return json.Marshal(bayesianState{
		RNG:       s.rng.State(),
		Best:      s.best,
		HaveBest:  s.haveBest,
		Worst:     s.worst,
		HaveWorst: s.haveWorst,
		FitErrors: s.fitErrors,
		Pending:   encodePending(s.pending),
		GP:        s.model.State(),
	})
}

// Restore implements Checkpointable.
func (s *Bayesian) Restore(data []byte) error {
	var st bayesianState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("search: bayesian checkpoint: %w", err)
	}
	if st.GP == nil {
		return fmt.Errorf("search: bayesian checkpoint has no surrogate state")
	}
	if len(st.GP.Xs) > 0 && len(st.GP.Xs[0]) != s.enc.Dim() {
		return fmt.Errorf("search: bayesian checkpoint surrogate rows have %d dims, the space encodes %d",
			len(st.GP.Xs[0]), s.enc.Dim())
	}
	pending, err := decodePending(st.Pending)
	if err != nil {
		return err
	}
	if err := s.model.RestoreState(st.GP); err != nil {
		return err
	}
	s.rng.SetState(st.RNG)
	s.best, s.haveBest = st.Best, st.HaveBest
	s.worst, s.haveWorst = st.Worst, st.HaveWorst
	s.fitErrors = st.FitErrors
	s.pending = pending
	return nil
}

// deepTuneState is the serialized form of DeepTune: the selector's
// complete state (the trained DTM, the proposal stream, the incumbent, and
// the explored set, which holds the training window's feature vectors),
// the window's targets and crash labels, and the pending multiset.
type deepTuneState struct {
	Selector *deeptune.SelectorState `json:"selector"`
	Ys       nn.Vec                  `json:"ys"`
	Crashes  []bool                  `json:"crashes"`
	Pending  map[string]int          `json:"pending,omitempty"`
}

// Checkpoint implements Checkpointable.
func (s *DeepTune) Checkpoint() ([]byte, error) {
	st := deepTuneState{
		Selector: s.sel.State(),
		Ys:       s.ys,
		Crashes:  s.crashes,
		Pending:  encodePending(s.pending),
	}
	if len(st.Selector.Explored) != len(s.xs) {
		return nil, fmt.Errorf("search: deeptune explored set (%d) out of step with its training window (%d)",
			len(st.Selector.Explored), len(s.xs))
	}
	return json.Marshal(st)
}

// Restore implements Checkpointable: it overlays the checkpointed model,
// selector and training window directly, with no retraining.
func (s *DeepTune) Restore(data []byte) error {
	if len(s.xs) != 0 {
		return fmt.Errorf("search: deeptune restore onto a used searcher (%d observations)", len(s.xs))
	}
	var st deepTuneState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("search: deeptune checkpoint: %w", err)
	}
	if st.Selector == nil {
		return fmt.Errorf("search: deeptune checkpoint has no selector state")
	}
	n := len(st.Selector.Explored)
	if len(st.Ys) != n || len(st.Crashes) != n {
		return fmt.Errorf("search: deeptune checkpoint window has %d vectors, %d targets, %d crash labels",
			n, len(st.Ys), len(st.Crashes))
	}
	pending, err := decodePending(st.Pending)
	if err != nil {
		return err
	}
	if err := s.sel.RestoreState(st.Selector); err != nil {
		return fmt.Errorf("search: deeptune checkpoint: %w", err)
	}
	s.xs = make([][]float64, n)
	for i, x := range st.Selector.Explored {
		s.xs[i] = x
	}
	s.ys, s.crashes = st.Ys, st.Crashes
	s.pending = pending
	s.stopwatch = stopwatch{}
	return nil
}

// PendingSnapshot exports the adapter's pending multiset for session
// checkpointing — the one piece of batch-protocol state that lives outside
// a wrapped single-proposal searcher.
func (b *batchAdapter) PendingSnapshot() map[uint64]int { return maps.Clone(b.pending) }

// RestorePending overwrites the adapter's pending multiset with a snapshot
// taken by PendingSnapshot. A zero or negative count is an error, as in
// decodePending; the adapter is left unchanged.
func (b *batchAdapter) RestorePending(pending map[uint64]int) error {
	for _, h := range slices.Sorted(maps.Keys(pending)) {
		if err := checkPendingCount(h, pending[h]); err != nil {
			return err
		}
	}
	b.pending = make(pendingSet, len(pending))
	maps.Copy(b.pending, pending)
	return nil
}
