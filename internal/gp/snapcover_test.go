package gp

import (
	"reflect"
	"testing"

	"wayfinder/internal/snapcover"
)

// TestGPStateCoverage pins the GP ↔ State field mapping: a new piece of
// surrogate state that is not checkpointed (or not justified as
// rebuildable) fails here instead of as a diverged resumed session.
func TestGPStateCoverage(t *testing.T) {
	snapcover.Pair(t, reflect.TypeFor[GP](), reflect.TypeFor[State](), snapcover.Spec{
		Covered: map[string]string{
			"xs":         "Xs",
			"ys":         "Ys",
			"fitted":     "Fitted",
			"sinceRefit": "SinceRefit",
			"jitter":     "Jitter",
			"window":     "Window",
			"sinceAdapt": "SinceAdapt",
			// Online adaptation can move the hyperparameters off their
			// construction-time values, so they serialize (0 = keep the
			// constructor's, for legacy checkpoints).
			"LengthScale": "LengthScale",
			"SignalVar":   "SignalVar",
			// Unbounded models replay the refactorize-then-extend history;
			// windowed models carry the packed factor in Chol (a downdate
			// destroys the replay recipe).
			"chol": "Chol",
		},
		Excluded: map[string]string{
			"NoiseVar":   "construction-time hyperparameter: the restore target is built with the same arguments",
			"hyperEvery": "construction-time adaptation cadence: reapplied by the owner (SetSurrogateWindow) before Restore",
			"yMean":      "recomputed from Ys when the weights refresh",
			"kRows":      "kernel-row cache, rebuilt from Xs during restore",
			"alpha":      "rebuilt by refreshWeights once the factor is reconstructed",
			"frames":     "fantasy frames are popped before State(): a checkpoint is a real-history boundary",
			"kStar":      "reusable scratch, regrown on demand",
			"v":          "reusable scratch, regrown on demand",
			"centered":   "reusable scratch, regrown on demand",
			"kStarB":     "batch-acquisition scratch, regrown on demand",
			"vB":         "batch-acquisition scratch, regrown on demand",
			"candT":      "batch-acquisition scratch (the candidate pool, packed), rewritten by every batch call",
			"pairT":      "hyperparameter-probe scratch (a block of observations, packed), rewritten by every probe round",
		},
	})
}
