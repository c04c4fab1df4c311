package search

import (
	"reflect"
	"testing"

	"wayfinder/internal/causal"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/snapcover"
)

// The searcher ↔ checkpoint-state pairs, pinned so a new piece of
// dynamic searcher state cannot silently stay out of its checkpoint.
// Constructor arguments (the space, direction, hyperparameters, seeds)
// are deliberately not checkpointed: a restore target is built fresh
// with the same arguments and Restore overlays the accumulated state.

var randomSpec = snapcover.Spec{
	Covered: map[string]string{
		"rng":  "RNG",
		"seen": "Seen",
	},
	Excluded: map[string]string{
		"space":     "construction-time: the restore target is built over the same space",
		"k":         "construction-time mutation width",
		"stopwatch": "decision-cost stopwatch, host time drained by DecisionCost, never replayed",
	},
}

func TestRandomStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Random](), reflect.TypeFor[randomState](), randomSpec)
}

// The mutation searcher is checked through its constructor, so a
// mutation-only type split back out of Random must pair with
// randomState on its own.
func TestRandomMutateStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeOf(NewRandomMutate(toySpace(), 3, 1)), reflect.TypeFor[randomState](), randomSpec)
}

func TestGridStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Grid](), reflect.TypeFor[gridState](), snapcover.Spec{
		Covered: map[string]string{
			"base":     "BaseKV",
			"paramIdx": "ParamIdx",
			"valueIdx": "ValueIdx",
			"pending":  "Pending",
		},
		Excluded: map[string]string{
			"space":     "construction-time: the restore target is built over the same space",
			"stopwatch": "decision-cost stopwatch, host time drained by DecisionCost, never replayed",
		},
	})
}

func TestBayesianStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Bayesian](), reflect.TypeFor[bayesianState](), snapcover.Spec{
		Covered: map[string]string{
			"rng":       "RNG",
			"best":      "Best",
			"haveBest":  "HaveBest",
			"worst":     "Worst",
			"haveWorst": "HaveWorst",
			"fitErrors": "FitErrors",
			"pending":   "Pending",
			"model":     "GP",
		},
		Excluded: map[string]string{
			"space":     "construction-time: the restore target is built over the same space",
			"enc":       "derived from the space at construction",
			"maximize":  "construction-time optimization direction",
			"poolSize":  "construction-time candidate-pool size",
			"stopwatch": "decision-cost stopwatch, host time drained by DecisionCost, never replayed",
			// The surrogate's window/adaptation knobs live inside gp.State;
			// the proposal scratch is redrawn from the RNG every proposal.
			"pool":       "reusable proposal scratch, redrawn every proposal",
			"poolXs":     "pool-owned encoding rows, re-encoded in place every proposal",
			"poolHashes": "pool hashes, refilled by every multi-slot ProposeBatch before it reads them",
			"poolEIs":    "reusable proposal scratch, redrawn every proposal",
		},
	})
}

func TestDeepTuneStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[DeepTune](), reflect.TypeFor[deepTuneState](), snapcover.Spec{
		Covered: map[string]string{
			"sel":     "Selector",
			"ys":      "Ys",
			"crashes": "Crashes",
			"pending": "Pending",
			// The training window's feature vectors are the selector's
			// explored set: stored once, there, and shared on restore.
			"xs": "Selector",
		},
		Excluded: map[string]string{
			"stopwatch": "decision-cost stopwatch, host time drained by DecisionCost, never replayed; Restore resets it",
			"window":    "session-level knob: reapplied by the session (SetSurrogateWindow from Options) before Restore",
		},
	})
}

func TestUnicornStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[Unicorn](), reflect.TypeFor[unicornState](), snapcover.Spec{
		Covered: map[string]string{
			"rng": "RNG",
			"opt": "Causal",
		},
		Excluded: map[string]string{
			"space":     "construction-time: the restore target is built over the same space",
			"enc":       "derived from the space at construction",
			"maximize":  "construction-time optimization direction",
			"poolSize":  "construction-time candidate-pool size",
			"stopwatch": "decision-cost stopwatch, host time drained by DecisionCost, never replayed",
		},
	})
}

func TestCausalStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[causal.Optimizer](), reflect.TypeFor[causal.State](), snapcover.Spec{
		Covered: map[string]string{
			"xs": "Xs",
			"ys": "Ys",
			// Fit is a pure function of the observations, so RestoreState
			// refits the newest graph and its stats from Xs and Ys.
			"graphs":    "Xs",
			"lastStats": "Xs",
		},
		Excluded: map[string]string{
			"Alpha":    "construction-time CI-test threshold",
			"Maximize": "construction-time optimization direction",
			"dim":      "construction-time feature dimension",
		},
	})
}

// The adapter's own state is its pending set; everything else is the
// wrapped searcher's checkpoint.
func TestAdapterStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[batchAdapter](), reflect.TypeFor[adapterState](), snapcover.Spec{
		Covered: map[string]string{
			"Searcher": "Searcher",
			"pending":  "Pending",
		},
	})
}

func TestSelectorStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[deeptune.Selector](), reflect.TypeFor[deeptune.SelectorState](), snapcover.Spec{
		Covered: map[string]string{
			"model":    "Model",
			"rng":      "RNG",
			"explored": "Explored",
			"best":     "Best",
			"bestY":    "BestY",
			"haveBest": "HaveBest",
		},
		Excluded: map[string]string{
			"cfg":      "construction-time hyperparameters",
			"space":    "construction-time: the restore target is built over the same space",
			"enc":      "derived from the space at construction",
			"maximize": "construction-time optimization direction",
			"window":   "session-level knob: reapplied by the session (SetSurrogateWindow from Options) before Restore",
			"pool":     "candidate-pool scratch, redrawn and re-encoded by every proposal",
		},
	})
}

func TestDTMStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[deeptune.DTM](), reflect.TypeFor[deeptune.State](), snapcover.Spec{
		Covered: map[string]string{
			"trunk1":  "Tensors",
			"trunk2":  "Tensors",
			"crash":   "Tensors",
			"perf":    "Tensors",
			"rbfIn":   "Tensors",
			"rbfHid":  "Tensors",
			"drop1":   "Drop1RNG",
			"drop2":   "Drop2RNG",
			"opt":     "Opt",
			"rbfOpt":  "RBFOpt",
			"rng":     "RNG",
			"zscorer": "ZScorer",
			"yStats":  "YStats",
			"trained": "Trained",
		},
		Excluded: map[string]string{
			"cfg":     "construction-time hyperparameters",
			"dim":     "construction-time feature dimension",
			"relu1":   "stateless ReLU: its activation cache is rewritten by every forward pass",
			"relu2":   "stateless ReLU: its activation cache is rewritten by every forward pass",
			"scratch": "PredictBatch and Update batch scratch, rewritten by every batch",
		},
	})
}
