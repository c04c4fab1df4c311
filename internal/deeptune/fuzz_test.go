package deeptune

import (
	"encoding/json"
	"testing"

	"wayfinder/internal/nn"
)

// fuzzDim and fuzzConfig size the model FuzzDTMRestore restores into:
// small enough that a snapshot seed is a few KB.
const fuzzDim = 4

func fuzzConfig() Config {
	cfg := DefaultConfig()
	cfg.Hidden1, cfg.Hidden2, cfg.Centroids, cfg.Epochs = 6, 4, 3, 2
	return cfg
}

// transferSnapshots returns encoded transfer snapshots of the fuzz
// model: untrained, trained, trained with a 2-wide z-scorer, trained
// with a negative training count, and the trained one cut in half.
func transferSnapshots(tb testing.TB) [][]byte {
	tb.Helper()
	encode := func(d *DTM, mutate func(map[string][]float64)) []byte {
		snap, err := d.Snapshot(map[string]string{"app": "fuzz"})
		if err != nil {
			tb.Fatal(err)
		}
		if mutate != nil {
			mutate(snap.Tensors)
		}
		data, err := json.Marshal(snap)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	fresh := New(fuzzDim, fuzzConfig())
	trained := New(fuzzDim, fuzzConfig())
	xs, ys, crashed := synthProblem(12, fuzzDim, 3)
	if err := trained.Update(xs, ys, crashed); err != nil {
		tb.Fatal(err)
	}
	full := encode(trained, nil)
	return [][]byte{
		encode(fresh, nil),
		full,
		encode(trained, func(ts map[string][]float64) {
			ts["zscorer.mean"], ts["zscorer.std"] = ts["zscorer.mean"][:2], ts["zscorer.std"][:2]
		}),
		encode(trained, func(ts map[string][]float64) { ts["trained"] = []float64{-1e9} }),
		full[:len(full)/2],
	}
}

// FuzzDTMRestore feeds arbitrary bytes down the transfer path a corpus
// warm start takes — DecodeSnapshot, Restore, then a prediction through
// Predict and PredictBatch. Every input must either fail with an error
// or predict; none may panic.
func FuzzDTMRestore(f *testing.F) {
	for _, data := range transferSnapshots(f) {
		f.Add(data)
	}
	xs, _, _ := synthProblem(5, fuzzDim, 4)
	out := make([]Prediction, len(xs))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := nn.DecodeSnapshot(data)
		if err != nil {
			return
		}
		d := New(fuzzDim, fuzzConfig())
		if err := d.Restore(snap); err != nil {
			return
		}
		d.Predict(xs[0])
		d.PredictBatch(xs, out)
	})
}
