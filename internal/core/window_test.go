package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestWindowedSessionSnapshotResume: a sliding-window surrogate session
// snapshotted mid-flight and restored into a fresh engine must finish
// byte-identically to an uninterrupted windowed run — for both learned
// searchers, on every scheduler. The window (10) is well below the
// snapshot point (13), so the surrogate is already sliding when the
// checkpoint is cut: the GP must carry its downdated factor across the
// snapshot (the replay recipe is gone), and DeepTune must carry its
// trained model and keep sliding its restored window exactly as the live
// session did.
func TestWindowedSessionSnapshotResume(t *testing.T) {
	for _, tc := range sessionOptsMatrix {
		for _, kind := range []string{"bayesian", "deeptune"} {
			if kind == "deeptune" && testing.Short() {
				continue
			}
			opts := tc.opts
			opts.SurrogateWindow = 10
			full, err := newSessionEngine(t, kind, 11).Run(opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			sess, err := newSessionEngine(t, kind, 11).NewSession(opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, kind, err)
			}
			sess.Step(13) // mid-round, mid-flight, past the window
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatalf("%s/%s: snapshot: %v", tc.name, kind, err)
			}
			resumed, err := newSessionEngine(t, kind, 11).RestoreSession(snap)
			if err != nil {
				t.Fatalf("%s/%s: restore: %v", tc.name, kind, err)
			}
			rep, err := resumed.Run(context.Background())
			if err != nil {
				t.Fatalf("%s/%s: resumed run: %v", tc.name, kind, err)
			}
			if canonicalJSON(t, full) != canonicalJSON(t, rep) {
				t.Fatalf("%s/%s: windowed snapshot-at-13 + resume diverged from the uninterrupted windowed run",
					tc.name, kind)
			}
		}
	}
}

// TestWindowedSessionReachesSurrogate: the option must actually bite —
// after a windowed Bayesian session runs past its window, the snapshot's
// surrogate state must show the bound applied, the history trimmed to it,
// and the packed factor serialized (the downdate destroys the replay
// recipe, so a windowed checkpoint carries the factor directly). Guards
// against the knob silently never reaching the surrogate.
func TestWindowedSessionReachesSurrogate(t *testing.T) {
	sess, err := newSessionEngine(t, "bayesian", 11).NewSession(
		Options{Iterations: 40, Seed: 11, SurrogateWindow: 8})
	if err != nil {
		t.Fatal(err)
	}
	sess.Step(25) // well past the 3-observation cold start + 8-window
	snap, err := sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var state struct {
		SearcherState struct {
			GP struct {
				Xs     [][]float64 `json:"xs"`
				Fitted int         `json:"fitted"`
				Window int         `json:"window"`
				Chol   []float64   `json:"chol"`
			} `json:"gp"`
		} `json:"searcher_state"`
	}
	if err := json.Unmarshal(snap, &state); err != nil {
		t.Fatal(err)
	}
	gp := state.SearcherState.GP
	if gp.Window != 8 {
		t.Fatalf("snapshot carries window %d, want 8: the option never reached the surrogate", gp.Window)
	}
	// The factor syncs lazily, so up to one trailing observation may sit
	// unfitted past the window until the next prediction drains it.
	if gp.Fitted > 8 || len(gp.Xs) > 9 {
		t.Fatalf("surrogate history %d/%d observations exceeds the 8-window", len(gp.Xs), gp.Fitted)
	}
	if len(gp.Chol) == 0 {
		t.Fatal("windowed snapshot did not serialize the packed factor")
	}
}

// TestSurrogateWindowRequiresLearnedSearcher: the option names a surrogate
// bound, so strategies without one are rejected at construction — loudly,
// naming the searcher — rather than silently ignoring the knob.
func TestSurrogateWindowRequiresLearnedSearcher(t *testing.T) {
	for _, kind := range []string{"random", "grid", "unicorn"} {
		_, err := newSessionEngine(t, kind, 3).NewSession(
			Options{Iterations: 4, Seed: 3, SurrogateWindow: 16})
		if err == nil {
			t.Fatalf("%s: expected SurrogateWindow on a surrogate-free searcher to fail", kind)
		}
		if !strings.Contains(err.Error(), "no learned surrogate") {
			t.Fatalf("%s: error %q does not name the missing surrogate", kind, err)
		}
	}
}
