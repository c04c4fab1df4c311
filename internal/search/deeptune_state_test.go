package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"wayfinder/internal/configspace"
	"wayfinder/internal/deeptune"
	"wayfinder/internal/nn"
	"wayfinder/internal/rng"
)

// dtStateBits flattens every float of a DeepTune searcher's state — the
// ten tensors, both optimizers' moments, the normalization, the explored
// set and the window targets — to IEEE bits under a readable name, and
// renders the integer state (step counts, RNG words, labels) as a string.
func dtStateBits(s *DeepTune) (map[string][]uint64, string) {
	st := s.sel.State()
	out := map[string][]uint64{}
	put := func(name string, v []float64) {
		bits := make([]uint64, len(v))
		for i, f := range v {
			bits[i] = math.Float64bits(f)
		}
		out[name] = bits
	}
	m := st.Model
	for name, w := range m.Tensors {
		put("tensor "+name, w)
	}
	for _, o := range []struct {
		name string
		st   nn.AdamState
	}{{"opt", m.Opt}, {"rbf_opt", m.RBFOpt}} {
		for i := range o.st.M {
			put(fmt.Sprintf("%s.m[%d]", o.name, i), o.st.M[i])
			put(fmt.Sprintf("%s.v[%d]", o.name, i), o.st.V[i])
		}
	}
	if m.ZScorer != nil {
		put("zscorer.mean", m.ZScorer.Mean)
		put("zscorer.std", m.ZScorer.Std)
	}
	put("y_stats", m.YStats)
	for i, x := range st.Explored {
		put(fmt.Sprintf("explored[%d]", i), x)
	}
	put("ys", s.ys)
	put("best_y", []float64{st.BestY})
	scalars := fmt.Sprintf("t=%d/%d rng=%v drop=%v/%v zscorer=%t trained=%d sel_rng=%v best=%v/%t xs=%d crashes=%v pending=%v",
		m.Opt.T, m.RBFOpt.T, m.RNG, m.Drop1RNG, m.Drop2RNG, m.ZScorer != nil, m.Trained,
		st.RNG, st.Best, st.HaveBest, len(s.xs), s.crashes, encodePending(s.pending))
	return out, scalars
}

// assertDTStateEqual fails unless two searchers' states agree to the bit.
func assertDTStateEqual(t *testing.T, label string, want, got *DeepTune) {
	t.Helper()
	wb, ws := dtStateBits(want)
	gb, gs := dtStateBits(got)
	if ws != gs {
		t.Fatalf("%s: integer state differs:\n got %s\nwant %s", label, gs, ws)
	}
	if len(wb) != len(gb) {
		t.Fatalf("%s: %d float vectors, want %d", label, len(gb), len(wb))
	}
	for _, name := range slices.Sorted(maps.Keys(wb)) {
		w, g := wb[name], gb[name]
		_, ok := gb[name]
		if !ok || len(g) != len(w) {
			t.Fatalf("%s: %s has %d floats, want %d", label, name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: %s[%d] bits %#x, want %#x", label, name, i, g[i], w[i])
			}
		}
	}
}

// assertDTPredictionsEqual fails unless both models predict every probe to
// the bit, through the scalar and the batched path.
func assertDTPredictionsEqual(t *testing.T, label string, want, got *DeepTune, probes [][]float64) {
	t.Helper()
	bits := func(p deeptune.Prediction) [4]uint64 {
		return [4]uint64{math.Float64bits(p.CrashProb), math.Float64bits(p.Perf),
			math.Float64bits(p.Sigma), math.Float64bits(p.Uncertainty)}
	}
	wantBatch := make([]deeptune.Prediction, len(probes))
	gotBatch := make([]deeptune.Prediction, len(probes))
	want.sel.Model().PredictBatch(probes, wantBatch)
	got.sel.Model().PredictBatch(probes, gotBatch)
	for i, x := range probes {
		if w, g := bits(want.sel.Model().Predict(x)), bits(got.sel.Model().Predict(x)); w != g {
			t.Fatalf("%s: prediction %d bits %x, want %x", label, i, g, w)
		}
		if w, g := bits(wantBatch[i]), bits(gotBatch[i]); w != g {
			t.Fatalf("%s: batch prediction %d bits %x, want %x", label, i, g, w)
		}
	}
}

// dtTestConfig is a DeepTune configuration cheap enough to retrain every
// step of a test.
func dtTestConfig() deeptune.Config {
	cfg := deeptune.DefaultConfig()
	cfg.Seed = 7
	cfg.Epochs = 2
	return cfg
}

// corpusWarmSnapshot trains a donor searcher on a short history and
// round-trips its DTM through the corpus encoding, as a warm start does.
func corpusWarmSnapshot(t *testing.T, space *configspace.Space) *nn.Snapshot {
	t.Helper()
	cfg := dtTestConfig()
	cfg.Seed = 11
	donor := NewDeepTune(space, true, cfg)
	r := rng.New(3)
	for i := 0; i < 6; i++ {
		observe(donor, donor.Propose(), 80+20*r.Float64(), i == 2)
	}
	snap, err := donor.sel.Model().Snapshot(map[string]string{"app": "donor"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := nn.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestDeepTuneCheckpointBitExact checkpoints after k observations,
// restores into a fresh searcher, and runs both on: every tensor, Adam
// moment, RNG position and prediction must agree with the uninterrupted
// searcher to the bit, after the restore and after every later step.
func TestDeepTuneCheckpointBitExact(t *testing.T) {
	space := checkpointSpace(t)
	enc := configspace.NewEncoder(space)
	probeRNG := rng.New(42)
	var probes [][]float64
	for i := 0; i < 12; i++ {
		probes = append(probes, enc.Encode(space.Random(probeRNG)))
	}
	warm := corpusWarmSnapshot(t, space)
	cases := []struct {
		name       string
		window     int
		prefix     int
		tail       int
		crashEvery int  // every crashEvery-th observation crashes (0 = none)
		warm       bool // the original starts from corpus weights
		batch      int  // proposals left pending at the checkpoint
	}{
		{name: "no-observation", prefix: 0, tail: 4},
		{name: "corpus-warm-before-update", warm: true, prefix: 0, tail: 4},
		{name: "corpus-warm-trained", warm: true, prefix: 3, tail: 3},
		{name: "unwindowed", prefix: 10, tail: 5},
		{name: "windowed", window: 4, prefix: 10, tail: 5},
		{name: "crashes", prefix: 10, tail: 6, crashEvery: 3},
		{name: "windowed-crashes-pending", window: 5, prefix: 7, tail: 4, crashEvery: 2, batch: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *DeepTune {
				s := NewDeepTune(space, true, dtTestConfig())
				if err := s.SetSurrogateWindow(tc.window); err != nil {
					t.Fatal(err)
				}
				return s
			}
			orig := mk()
			if tc.warm {
				if err := orig.sel.Model().Restore(warm); err != nil {
					t.Fatal(err)
				}
			}
			noise := rng.New(99)
			step := 0
			crashed := func() bool {
				step++
				return tc.crashEvery > 0 && step%tc.crashEvery == 0
			}
			for i := 0; i < tc.prefix; i++ {
				observe(orig, orig.Propose(), 100+10*noise.Float64(), crashed())
			}
			var batch []*configspace.Config
			if tc.batch > 0 {
				batch = orig.ProposeBatch(tc.batch)
			}
			data, err := orig.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			fresh := mk() // never warm-started: the checkpoint carries the weights
			if err := fresh.Restore(data); err != nil {
				t.Fatal(err)
			}
			again, err := fresh.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, data) {
				t.Fatal("re-checkpointing the restored searcher changed the bytes")
			}
			assertDTStateEqual(t, "after restore", orig, fresh)
			assertDTPredictionsEqual(t, "after restore", orig, fresh, probes)
			for i, c := range batch {
				y, cr := 100+10*noise.Float64(), crashed()
				observe(orig, c, y, cr)
				observe(fresh, c, y, cr)
				assertDTStateEqual(t, fmt.Sprintf("pending %d", i), orig, fresh)
			}
			for i := 0; i < tc.tail; i++ {
				a, b := orig.Propose(), fresh.Propose()
				if !a.Equal(b) {
					t.Fatalf("proposal %d diverged after restore:\n got %s\nwant %s", i, b, a)
				}
				y, cr := 100+10*noise.Float64(), crashed()
				observe(orig, a, y, cr)
				observe(fresh, b, y, cr)
				assertDTStateEqual(t, fmt.Sprintf("tail %d", i), orig, fresh)
				assertDTPredictionsEqual(t, fmt.Sprintf("tail %d", i), orig, fresh, probes)
			}
		})
	}
}

// fuzzSpace is a three-parameter space, so fuzz seeds stay a few KB.
func fuzzSpace() *configspace.Space {
	s := configspace.NewSpace("fuzz")
	for _, name := range []string{"a", "b", "c"} {
		s.MustAdd(&configspace.Param{Name: name, Type: configspace.Int, Class: configspace.Runtime,
			Min: 0, Max: 100, Default: configspace.IntValue(50)})
	}
	return s
}

// fuzzDeepTune builds the small searcher FuzzDeepTuneRestore restores into.
func fuzzDeepTune(space *configspace.Space) *DeepTune {
	cfg := deeptune.DefaultConfig()
	cfg.Hidden1, cfg.Hidden2, cfg.Centroids = 4, 3, 2
	cfg.PoolSize, cfg.Epochs, cfg.Seed = 8, 1, 5
	s := NewDeepTune(space, true, cfg)
	if err := s.SetSurrogateWindow(4); err != nil {
		panic(err)
	}
	return s
}

// fuzzCheckpoints returns valid checkpoints of the fuzz searcher after 0
// and 6 observations (crashes and a pending batch included).
func fuzzCheckpoints(tb testing.TB) [][]byte {
	tb.Helper()
	space := fuzzSpace()
	s := fuzzDeepTune(space)
	var out [][]byte
	for i := 0; i <= 6; i++ {
		if i == 0 || i == 6 {
			if i == 6 {
				s.ProposeBatch(2)
			}
			data, err := s.Checkpoint()
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, data)
		}
		if i < 6 {
			observe(s, s.Propose(), float64(10*i), i%3 == 1)
		}
	}
	return out
}

// TestDeepTuneRestoreRejectsMalformed mutates a valid checkpoint in each
// way a decoder must catch; every one must fail with an error.
func TestDeepTuneRestoreRejectsMalformed(t *testing.T) {
	space := fuzzSpace()
	valid := fuzzCheckpoints(t)[1]
	mutate := func(f func(st map[string]any)) []byte {
		var st map[string]any
		if err := json.Unmarshal(valid, &st); err != nil {
			t.Fatal(err)
		}
		f(st)
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	sel := func(st map[string]any) map[string]any { return st["selector"].(map[string]any) }
	model := func(st map[string]any) map[string]any { return sel(st)["model"].(map[string]any) }
	oneFloat := "AAAAAAAA8D8=" // nn.Vec{1}
	cases := map[string][]byte{
		"truncated":         valid[:len(valid)/2],
		"not json":          []byte("deeptune"),
		"no selector":       mutate(func(st map[string]any) { delete(st, "selector") }),
		"no model":          mutate(func(st map[string]any) { delete(sel(st), "model") }),
		"tensor length":     mutate(func(st map[string]any) { model(st)["tensors"].(map[string]any)["perf.b"] = oneFloat }),
		"missing tensor":    mutate(func(st map[string]any) { delete(model(st)["tensors"].(map[string]any), "crash.w") }),
		"extra tensor":      mutate(func(st map[string]any) { model(st)["tensors"].(map[string]any)["extra"] = oneFloat }),
		"tensor not base64": mutate(func(st map[string]any) { model(st)["tensors"].(map[string]any)["perf.b"] = "!!!!" }),
		"tensor partial":    mutate(func(st map[string]any) { model(st)["tensors"].(map[string]any)["perf.b"] = "AAAA" }),
		"moment length":     mutate(func(st map[string]any) { model(st)["opt"].(map[string]any)["m"].([]any)[0] = oneFloat }),
		"moment count":      mutate(func(st map[string]any) { model(st)["rbf_opt"].(map[string]any)["v"] = []any{} }),
		"negative step":     mutate(func(st map[string]any) { model(st)["opt"].(map[string]any)["t"] = -1 }),
		"zscorer length":    mutate(func(st map[string]any) { model(st)["zscorer"].(map[string]any)["std"] = oneFloat }),
		"y stats length":    mutate(func(st map[string]any) { model(st)["y_stats"] = oneFloat }),
		"explored width":    mutate(func(st map[string]any) { sel(st)["explored"].([]any)[0] = oneFloat }),
		"window exceeded": mutate(func(st map[string]any) {
			sel(st)["explored"] = append(sel(st)["explored"].([]any), sel(st)["explored"].([]any)...)
		}),
		"ys misaligned":        mutate(func(st map[string]any) { st["ys"] = oneFloat }),
		"crashes misaligned":   mutate(func(st map[string]any) { st["crashes"] = []any{true} }),
		"incumbent value only": mutate(func(st map[string]any) { sel(st)["best"] = nil }),
		"incumbent unknown":    mutate(func(st map[string]any) { sel(st)["best"] = map[string]any{"zzz": "1"} }),
		"pending hash":         mutate(func(st map[string]any) { st["pending"] = map[string]any{"xyz": 1} }),
		"pending zero":         mutate(func(st map[string]any) { st["pending"].(map[string]any)[firstPendingKey(t, st)] = 0 }),
	}
	for _, name := range slices.Sorted(maps.Keys(cases)) {
		data := cases[name]
		t.Run(strings.ReplaceAll(name, " ", "-"), func(t *testing.T) {
			if err := fuzzDeepTune(space).Restore(data); err == nil {
				t.Fatal("Restore accepted a malformed checkpoint")
			}
		})
	}
}

// FuzzDeepTuneRestore feeds mutated and truncated checkpoints to Restore:
// it must return an error or leave a searcher that proposes, observes and
// checkpoints without panicking.
func FuzzDeepTuneRestore(f *testing.F) {
	for _, data := range fuzzCheckpoints(f) {
		f.Add(data)
	}
	space := fuzzSpace()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := fuzzDeepTune(space)
		if err := s.Restore(data); err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			for _, c := range s.ProposeBatch(2) {
				observe(s, c, float64(i), i == 1)
			}
		}
		_, _ = s.Checkpoint() // a restored NaN incumbent cannot re-encode; that is an error, not a panic
	})
}
