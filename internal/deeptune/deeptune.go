// Package deeptune implements DeepTune, the neural-network optimization
// algorithm that drives Wayfinder's specialization process (§3.2).
//
// The DeepTune Model (DTM) is a multitask network with two branches:
//
//   - The prediction branch F_p — dense layers with ReLU and dropout —
//     ends in two heads: a two-class crash head trained with categorical
//     cross-entropy (L_CCE), and a performance head that outputs a mean
//     and a log-variance trained with Kendall & Gal's heteroscedastic
//     regression loss (L_Reg).
//   - The uncertainty branch F_u — Gaussian RBF banks (γ=0.1 over
//     z-scored features) parallel to the prediction layers, whose
//     centroids are fit to the training distribution with the Chamfer
//     regularizer (L_Cham). A sample far from every learned prototype
//     activates nothing, which reads out as high uncertainty.
//
// Selection follows Fig 3: generate a random pool of candidate
// permutations, predict each one's performance, crash probability, and
// uncertainty, then rank with the scoring function
//
//	sf(x, X) = α·ds(x, X) + (1−α)·F_u(x)        (Eq. 3)
//
// blended with the predicted performance and gated by the predicted crash
// probability. Training is incremental — a few epochs of minibatch Adam
// over the growing history per iteration — which is what keeps the
// per-iteration cost flat (Figs 7–8) in contrast to refit-from-scratch
// methods.
package deeptune

import (
	"fmt"
	"math"
	"slices"

	"wayfinder/internal/configspace"
	"wayfinder/internal/nn"
	"wayfinder/internal/rng"
	"wayfinder/internal/stats"
)

// Config collects the DTM hyperparameters.
type Config struct {
	// Hidden1, Hidden2 are the widths of the two trunk layers.
	Hidden1, Hidden2 int
	// Centroids is the number of RBF prototypes per bank.
	Centroids int
	// Gamma is the RBF width (the paper uses 0.1 on z-scored features).
	Gamma float64
	// Dropout is the trunk dropout probability.
	Dropout float64
	// LearningRate is Adam's step size.
	LearningRate float64
	// Epochs is the number of passes over history per incremental update.
	Epochs int
	// BatchSize is the minibatch size, at least 1.
	BatchSize int
	// Alpha balances dissimilarity against uncertainty in sf (Eq. 3);
	// the paper finds 0.5 effective.
	Alpha float64
	// ExploitWeight balances predicted performance against sf when
	// ranking the pool.
	ExploitWeight float64
	// CrashThreshold drops candidates whose predicted crash probability
	// exceeds it (when enough candidates survive).
	CrashThreshold float64
	// PoolSize is the number of candidate permutations per iteration.
	PoolSize int
	// MutationBias is the fraction of pool candidates generated by
	// mutating the best known configuration instead of uniform sampling.
	MutationBias float64
	// PoolMutateK, when positive, replaces uniform pool sampling with
	// K-parameter mutations of the space default — the generation mode for
	// compile-time exploration (§4.4), where fully random configurations
	// almost never boot.
	PoolMutateK int
	// Seed drives initialization, dropout, and pool generation.
	Seed uint64
}

// DefaultConfig returns the hyperparameters used by the experiments.
func DefaultConfig() Config {
	return Config{
		Hidden1: 64, Hidden2: 32,
		Centroids: 24, Gamma: 0.1,
		Dropout: 0.1, LearningRate: 2e-3,
		Epochs: 6, BatchSize: 16,
		Alpha: 0.5, ExploitWeight: 0.85,
		CrashThreshold: 0.5,
		PoolSize:       128, MutationBias: 0.65,
		Seed: 1,
	}
}

// Prediction is the DTM's output for one permutation.
type Prediction struct {
	// CrashProb is the predicted probability the configuration fails.
	CrashProb float64
	// Perf is the predicted metric value (denormalized).
	Perf float64
	// Sigma is the predicted aleatoric std of Perf (denormalized).
	Sigma float64
	// Uncertainty is the RBF novelty signal in [0,1]: 1 = unlike anything
	// seen in training.
	Uncertainty float64
}

// DTM is the DeepTune Model.
type DTM struct {
	cfg Config
	dim int

	trunk1  *nn.Dense
	relu1   *nn.ReLU
	drop1   *nn.Dropout
	trunk2  *nn.Dense
	relu2   *nn.ReLU
	drop2   *nn.Dropout
	crash   *nn.Dense // 2 logits: {runs, crashes}
	perf    *nn.Dense // [mu, logVar]
	rbfIn   *nn.RBFBank
	rbfHid  *nn.RBFBank
	opt     *nn.Adam
	rbfOpt  *nn.Adam
	rng     *rng.RNG
	zscorer *stats.ZScorer

	// Target normalization (running).
	yStats stats.Running

	trained int // number of Update calls

	// scratch is the batch working memory of PredictBatch and Update.
	scratch batchScratch
}

// batchScratch holds the DTM's batch matrices, one row per sample, grown
// on demand and reused across calls, so a steady-state pool scoring pass
// allocates nothing and a steady-state Update allocates only its
// z-scorer refit. PredictBatch uses the first seven over one block of
// the candidate pool; Update uses the rest, and h1 through perf, over one
// minibatch.
type batchScratch struct {
	z      [][]float64              // z-scored inputs
	h1     [][]float64              // post-ReLU trunk1 activations
	h2     [][]float64              // post-ReLU trunk2 activations
	crash  [][]float64              // crash-head logits
	perf   [][]float64              // perf-head [mu, logVar]
	maxIn  [stats.PackBlock]float64 // the input bank's largest activation per sample
	maxHid [stats.PackBlock]float64 // the hidden bank's largest activation per sample

	hist    [][]float64 // the z-scored history, in history order
	epochH1 [][]float64 // this epoch's post-dropout trunk1 activations, in visiting order
	order   []int       // the visiting order
	x       [][]float64 // the minibatch's rows of hist
	d2      [][]float64 // post-dropout trunk2 activations
	gCrash  [][]float64 // dL/d(crash logits)
	gPerf   [][]float64 // dL/d(perf head)
	gh2     [][]float64 // dL/dh2
	gPerfIn [][]float64 // the perf head's share of dL/dh2
	gh1     [][]float64 // dL/dh1
}

// New creates a DTM over dim-dimensional feature vectors.
func New(dim int, cfg Config) *DTM {
	r := rng.New(cfg.Seed)
	d := &DTM{
		cfg:    cfg,
		dim:    dim,
		trunk1: nn.NewDense(dim, cfg.Hidden1, r),
		relu1:  nn.NewReLU(cfg.Hidden1),
		drop1:  nn.NewDropout(cfg.Hidden1, cfg.Dropout, r.Split()),
		trunk2: nn.NewDense(cfg.Hidden1, cfg.Hidden2, r),
		relu2:  nn.NewReLU(cfg.Hidden2),
		drop2:  nn.NewDropout(cfg.Hidden2, cfg.Dropout, r.Split()),
		crash:  nn.NewDense(cfg.Hidden2, 2, r),
		perf:   nn.NewDense(cfg.Hidden2, 2, r),
		rbfIn:  nn.NewRBFBank(dim, cfg.Centroids, cfg.Gamma*math.Sqrt(float64(dim)), r),
		rbfHid: nn.NewRBFBank(cfg.Hidden1, cfg.Centroids, cfg.Gamma*math.Sqrt(float64(cfg.Hidden1)), r),
		opt:    nn.NewAdam(cfg.LearningRate),
		rbfOpt: nn.NewAdam(cfg.LearningRate * 2),
		rng:    r.Split(),
	}
	return d
}

// trunkParams returns the prediction-branch parameters opt steps, and
// rbfParams the centroids rbfOpt steps, in stepping order. They are
// arrays so that a retrain's steps slice them without allocating.
func (d *DTM) trunkParams() [8]*nn.Param {
	return [8]*nn.Param{
		d.trunk1.Weight, d.trunk1.Bias, d.trunk2.Weight, d.trunk2.Bias,
		d.crash.Weight, d.crash.Bias, d.perf.Weight, d.perf.Bias,
	}
}

func (d *DTM) rbfParams() [2]*nn.Param {
	return [2]*nn.Param{d.rbfIn.Centroids, d.rbfHid.Centroids}
}

// Dim returns the feature dimension.
func (d *DTM) Dim() int { return d.dim }

// Trained reports the number of incremental updates applied.
func (d *DTM) Trained() int { return d.trained }

// normalizeY maps a raw metric value into the model's training scale.
func (d *DTM) normalizeY(y float64) float64 {
	sd := d.yStats.StdDev()
	if sd < 1e-9 {
		sd = 1
	}
	return (y - d.yStats.Mean()) / sd
}

// denormalizeY inverts normalizeY.
func (d *DTM) denormalizeY(yn float64) float64 {
	sd := d.yStats.StdDev()
	if sd < 1e-9 {
		sd = 1
	}
	return yn*sd + d.yStats.Mean()
}

// Update incrementally trains the DTM on the full history: feature
// vectors, metric values (ignored for crashed samples), and crash labels.
// It refits the feature z-scorer, then runs cfg.Epochs of minibatch Adam
// on L = L_CCE + L_Reg + L_Cham.
//
// Each minibatch runs layer by layer over the whole batch (trainBatch).
// That is the per-sample loop — forward, backward and gradient
// accumulation one sample at a time, an optimizer step at each minibatch
// boundary — computed bit for bit: the weights change only at those
// boundaries, each dropout layer draws its masks from its own stream in
// sample order, and every gradient element receives its per-sample
// additions in sample order.
func (d *DTM) Update(xs [][]float64, ys []float64, crashed []bool) error {
	if len(xs) == 0 {
		return nil
	}
	if len(xs) != len(ys) || len(xs) != len(crashed) {
		return fmt.Errorf("deeptune: mismatched update lengths %d/%d/%d", len(xs), len(ys), len(crashed))
	}
	for i, x := range xs {
		if len(x) != d.dim {
			return fmt.Errorf("deeptune: update vector %d has %d features, want %d", i, len(x), d.dim)
		}
	}
	if d.cfg.BatchSize < 1 {
		return fmt.Errorf("deeptune: batch size %d is not positive", d.cfg.BatchSize)
	}
	d.zscorer = stats.FitZScorer(xs)
	d.yStats = stats.Running{}
	for i, y := range ys {
		if !crashed[i] {
			d.yStats.Add(y)
		}
	}
	n, b := len(xs), &d.scratch
	b.hist = nn.GrowMatrix(b.hist, n, d.dim)
	for i, x := range xs {
		d.zscorer.TransformInto(x, b.hist[i])
	}
	b.epochH1 = nn.GrowMatrix(b.epochH1, n, d.cfg.Hidden1)
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	order := b.order[:n]
	for i := range order {
		order[i] = i
	}
	rbfParams := d.rbfParams()
	for epoch := 0; epoch < d.cfg.Epochs; epoch++ {
		d.rng.ShuffleInts(order)
		for lo := 0; lo < n; lo += d.cfg.BatchSize {
			hi := min(lo+d.cfg.BatchSize, n)
			d.trainBatch(order[lo:hi], b.epochH1[lo:hi], ys, crashed)
		}
		// L_Cham: fit the RBF prototypes to the (z-scored) inputs and the
		// trunk latents of this epoch.
		d.rbfIn.ChamferLoss(b.hist[:n])
		d.rbfHid.ChamferLoss(b.epochH1[:n])
		d.rbfOpt.Step(rbfParams[:])
	}
	d.trained++
	return nil
}

// trainBatch runs one minibatch — the history rows idx, in visiting
// order — forward through the trunk and both heads, backpropagates
// L_CCE + L_Reg into every prediction-branch gradient, and takes one
// clipped Adam step. It writes each sample's post-dropout trunk1
// activations into h1 (one row per sample) for the epoch's L_Cham.
func (d *DTM) trainBatch(idx []int, h1 [][]float64, ys []float64, crashed []bool) {
	m, b := len(idx), &d.scratch
	h1w, h2w := d.cfg.Hidden1, d.cfg.Hidden2
	if len(b.x) < m {
		b.x = make([][]float64, m)
	}
	b.h1, b.h2, b.d2 = nn.GrowMatrix(b.h1, m, h1w), nn.GrowMatrix(b.h2, m, h2w), nn.GrowMatrix(b.d2, m, h2w)
	b.crash, b.perf = nn.GrowMatrix(b.crash, m, 2), nn.GrowMatrix(b.perf, m, 2)
	b.gCrash, b.gPerf = nn.GrowMatrix(b.gCrash, m, 2), nn.GrowMatrix(b.gPerf, m, 2)
	b.gh2, b.gPerfIn, b.gh1 = nn.GrowMatrix(b.gh2, m, h2w), nn.GrowMatrix(b.gPerfIn, m, h2w), nn.GrowMatrix(b.gh1, m, h1w)
	zs, a1, a2, h2 := b.x[:m], b.h1[:m], b.h2[:m], b.d2[:m]
	crashOut, perfOut, gCrash, gPerf := b.crash[:m], b.perf[:m], b.gCrash[:m], b.gPerf[:m]
	gh2, gPerfIn, gh1 := b.gh2[:m], b.gPerfIn[:m], b.gh1[:m]
	for k, i := range idx {
		zs[k] = b.hist[i]
	}

	// Forward: dense → ReLU → dropout, twice, then both heads.
	d.trunk1.ForwardBatch(zs, a1)
	d.relu1.ForwardBatch(a1)
	d.drop1.ForwardBatch(a1, h1)
	d.trunk2.ForwardBatch(h1, a2)
	d.relu2.ForwardBatch(a2)
	d.drop2.ForwardBatch(a2, h2)
	d.crash.ForwardBatch(h2, crashOut)
	d.perf.ForwardBatch(h2, perfOut)

	for k, i := range idx {
		// L_CCE on the crash head.
		class := 0
		if crashed[i] {
			class = 1
		}
		nn.CrossEntropyLogits(crashOut[k], class, gCrash[k])
		// L_Reg on the performance head (non-crashed samples only:
		// crashed runs have no metric).
		gPerf[k][0], gPerf[k][1] = 0, 0
		if !crashed[i] {
			_, dMu, dLogVar := nn.HeteroscedasticLoss(perfOut[k][0], perfOut[k][1], d.normalizeY(ys[i]))
			gPerf[k][0], gPerf[k][1] = dMu, dLogVar
		}
	}

	// Backprop both heads into the shared trunk:
	// drop2 → relu2 → trunk2 → drop1 → relu1 → trunk1. dL/dh2 is summed
	// the way the per-sample loop sums it, into a zeroed vector:
	// (+0 + crash share) + perf share.
	d.crash.BackwardBatch(h2, gCrash, gh2)
	d.perf.BackwardBatch(h2, gPerf, gPerfIn)
	for k, g := range gh2 {
		for i, p := range gPerfIn[k][:len(g)] {
			g[i] = (0 + g[i]) + p
		}
	}
	d.drop2.BackwardBatch(gh2)
	d.relu2.BackwardBatch(a2, gh2)
	d.trunk2.BackwardBatch(h1, gh2, gh1)
	d.drop1.BackwardBatch(gh1)
	d.relu1.BackwardBatch(a1, gh1)
	d.trunk1.BackwardBatch(zs, gh1, nil) // the input gradient is never used
	params := d.trunkParams()
	nn.ClipGradients(params[:], 5)
	d.opt.Step(params[:])
}

// Predict runs the DTM on one raw feature vector: PredictBatch over a
// batch of one.
func (d *DTM) Predict(x []float64) Prediction {
	var out [1]Prediction
	d.PredictBatch([][]float64{x}, out[:])
	return out[0]
}

// PredictBatch runs the DTM over a whole candidate batch, writing out[j]
// for xs[j]; out must hold at least len(xs) entries. The batch runs a
// block of stats.PackBlock candidates at a time, each block in
// matrix-shaped passes (z-score, trunk1, trunk2, heads, RBF banks). Every
// per-sample floating-point operation happens in the order of the
// per-sample layer chain, so out[j] does not depend on the rest of the
// batch: it equals Predict(xs[j]) bit for bit. Scratch is reused across
// calls and sized by the block, not the pool — a steady-state pool
// scoring pass allocates nothing.
func (d *DTM) PredictBatch(xs [][]float64, out []Prediction) {
	for lo := 0; lo < len(xs); lo += stats.PackBlock {
		hi := min(lo+stats.PackBlock, len(xs))
		d.predictBlock(xs[lo:hi], out[lo:hi])
	}
}

// predictBlock is PredictBatch over one block of at most stats.PackBlock
// candidates.
func (d *DTM) predictBlock(xs [][]float64, out []Prediction) {
	m, b := len(xs), &d.scratch
	b.z, b.h1, b.h2 = nn.GrowMatrix(b.z, m, d.dim), nn.GrowMatrix(b.h1, m, d.cfg.Hidden1), nn.GrowMatrix(b.h2, m, d.cfg.Hidden2)
	b.crash, b.perf = nn.GrowMatrix(b.crash, m, 2), nn.GrowMatrix(b.perf, m, 2)
	zs, h1, h2 := b.z[:m], b.h1[:m], b.h2[:m]
	for j, x := range xs {
		if d.zscorer != nil {
			d.zscorer.TransformInto(x, zs[j])
		} else {
			copy(zs[j], x)
		}
	}
	// Dropout at inference is the identity, so the eval-mode trunk chain
	// reduces to dense → ReLU → dense → ReLU → heads.
	d.trunk1.ForwardBatch(zs, h1)
	d.relu1.ForwardBatch(h1)
	d.trunk2.ForwardBatch(h1, h2)
	d.relu2.ForwardBatch(h2)
	d.crash.ForwardBatch(h2, b.crash[:m])
	d.perf.ForwardBatch(h2, b.perf[:m])
	maxIn, maxHid := b.maxIn[:m], b.maxHid[:m]
	d.rbfIn.MaxActivationBatch(zs, maxIn)
	d.rbfHid.MaxActivationBatch(h1, maxHid)
	sd := d.yStats.StdDev()
	if sd < 1e-9 {
		sd = 1
	}
	for j := range xs {
		crashLogits, perfOut := b.crash[j], b.perf[j]
		p := nn.Sigmoid(crashLogits[1] - crashLogits[0])
		sigma := math.Exp(0.5*stats.Clamp(perfOut[1], -20, 20)) * sd
		u := 1 - 0.5*(maxIn[j]+maxHid[j])
		out[j] = Prediction{
			CrashProb:   p,
			Perf:        d.denormalizeY(perfOut[0]),
			Sigma:       sigma,
			Uncertainty: stats.Clamp(u, 0, 1),
		}
	}
}

// Dissimilarity implements Eq. 2: ds(x, X) = 1 − 1/(1+‖x−X‖²), with
// ‖x−X‖² the per-dimension-normalized squared distance from x to the
// nearest explored point, so the value is comparable across space sizes.
// The explored set is scanned in order, each distance summing (e−x)² in
// index order — the sums the selector's packed pool pass
// (stats.SquaredDistanceCols) makes, so both give the same bits.
func Dissimilarity(x []float64, explored [][]float64) float64 {
	best := math.Inf(1)
	for _, e := range explored {
		if d := stats.SquaredDistance(e, x); d < best {
			best = d
		}
	}
	return dissimilarity(best, len(x), len(explored))
}

// dissimilarity is Eq. 2 given best, the squared distance from a
// dim-dimensional point to the nearest of n explored points.
func dissimilarity(best float64, dim, n int) float64 {
	if n == 0 {
		return 1
	}
	best /= float64(dim) // per-dimension normalization
	return 1 - 1/(1+best*float64(dim)/4)
}

// Score implements Eq. 3 for one candidate.
func (d *DTM) Score(x []float64, explored [][]float64) float64 {
	ds := Dissimilarity(x, explored)
	u := d.Predict(x).Uncertainty
	return d.cfg.Alpha*ds + (1-d.cfg.Alpha)*u
}

// Snapshot serializes the model weights for transfer learning (§3.3).
func (d *DTM) Snapshot(meta map[string]string) (*nn.Snapshot, error) {
	snap := nn.NewSnapshot()
	for k, v := range meta {
		snap.Meta[k] = v
	}
	snap.Meta["dim"] = fmt.Sprint(d.dim)
	names, params := d.named()
	if err := snap.Save(names, params); err != nil {
		return nil, err
	}
	// Normalization state travels with the weights: a restored model must
	// z-score features and denormalize targets exactly as it did when
	// trained, or its first predictions on the target application are
	// garbage and the transfer-learning advantage evaporates.
	if d.zscorer != nil {
		mean, std := d.zscorer.Stats()
		snap.Tensors["zscorer.mean"] = append([]float64(nil), mean...)
		snap.Tensors["zscorer.std"] = append([]float64(nil), std...)
	}
	snap.Tensors["ystats"] = []float64{float64(d.yStats.N()), d.yStats.Mean(), d.yStats.Variance()}
	snap.Tensors["trained"] = []float64{float64(d.trained)}
	return snap, nil
}

// Restore loads weights saved by Snapshot. The feature dimension must
// match (transfer learning applies across applications on the same OS
// space). The snapshot is validated in full first — every tensor's
// length, a z-scorer of the model's dimension with finite means and
// finite positive stds, target stats with a whole, non-negative count and
// a finite mean and non-negative variance, and a whole, non-negative
// training count — so a corpus or warm-start snapshot that would panic in
// Predict or invert the ranking is an error, and on error the model is
// unchanged.
func (d *DTM) Restore(snap *nn.Snapshot) error {
	if got, want := snap.Meta["dim"], fmt.Sprint(d.dim); got != want {
		return fmt.Errorf("deeptune: snapshot dim %s does not match model dim %s", got, want)
	}
	mean, hasMean := snap.Tensors["zscorer.mean"]
	std, hasStd := snap.Tensors["zscorer.std"]
	if hasMean != hasStd {
		return fmt.Errorf("deeptune: snapshot has only one of zscorer.mean and zscorer.std")
	}
	if hasMean {
		if len(mean) != d.dim || len(std) != d.dim {
			return fmt.Errorf("deeptune: z-scorer mean/std lengths %d/%d for dimension %d", len(mean), len(std), d.dim)
		}
		for i := range mean {
			if !isFinite(mean[i]) || !isFinite(std[i]) || !(std[i] > 0) {
				return fmt.Errorf("deeptune: z-scorer dimension %d has mean %v and std %v", i, mean[i], std[i])
			}
		}
	}
	ys, hasYStats := snap.Tensors["ystats"]
	if hasYStats {
		if len(ys) != 3 {
			return fmt.Errorf("deeptune: target stats have %d fields, want 3", len(ys))
		}
		if !isCount(ys[0]) || !isFinite(ys[1]) || !isFinite(ys[2]) || ys[2] < 0 {
			return fmt.Errorf("deeptune: target stats n=%v mean=%v variance=%v", ys[0], ys[1], ys[2])
		}
	}
	tr, hasTrained := snap.Tensors["trained"]
	if hasTrained && (len(tr) != 1 || !isCount(tr[0])) {
		return fmt.Errorf("deeptune: training count %v is not a count", tr)
	}
	names, params := d.named()
	if err := snap.Restore(names, params); err != nil {
		return err
	}
	if hasMean {
		d.zscorer = stats.NewZScorerFromStats(mean, std)
	}
	if hasYStats {
		d.yStats = stats.RestoreRunning(int(ys[0]), ys[1], ys[2])
	}
	// Carry over the training count: a transferred model resumes with the
	// source's exploration/exploitation balance instead of re-warming up
	// from scratch (the whole point of §3.3).
	if hasTrained {
		d.trained = int(tr[0])
	} else if d.trained == 0 && len(snap.Tensors) > 0 {
		d.trained = 1
	}
	return nil
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// isCount reports whether v is a whole number in [0, 2^53], the range in
// which a float64 holds every count exactly.
func isCount(v float64) bool {
	return v >= 0 && v <= 1<<53 && v == math.Trunc(v) //wfvet:ignore floateq integrality test: a count has no fractional part
}

func (d *DTM) named() ([]string, []*nn.Param) {
	names := []string{
		"trunk1.w", "trunk1.b", "trunk2.w", "trunk2.b",
		"crash.w", "crash.b", "perf.w", "perf.b",
		"rbf_in.c", "rbf_hid.c",
	}
	params := []*nn.Param{
		d.trunk1.Weight, d.trunk1.Bias, d.trunk2.Weight, d.trunk2.Bias,
		d.crash.Weight, d.crash.Bias, d.perf.Weight, d.perf.Bias,
		d.rbfIn.Centroids, d.rbfHid.Centroids,
	}
	return names, params
}

// Selector runs DeepTune's candidate-generation and ranking loop (Fig 3)
// over a configuration space.
type Selector struct {
	cfg   Config
	space *configspace.Space
	enc   *configspace.Encoder
	model *DTM
	// rng is the proposal stream (pool generation, fallback picks); the
	// DTM's training streams advance only inside Update.
	rng *rng.RNG

	maximize bool
	explored [][]float64
	best     *configspace.Config
	bestY    float64
	haveBest bool
	// window bounds the explored set the dissimilarity term (Eq. 2) scans
	// (0 = remember everything): on long sessions an unbounded explored
	// history makes every pool scoring pass O(iterations).
	window int

	// pool is the candidate pool, reused across proposals.
	pool candidatePool
}

// candidatePool is a Selector's proposal scratch: the pool's
// configurations, redrawn in place by every generatePool, their feature
// rows, re-encoded by every scorePool, and a block of the explored set
// packed by stats.PackColumns, rewritten by every scorePool. A slot whose
// candidate was handed out is nil until the next draw refills it.
type candidatePool struct {
	cfgs     []*configspace.Config
	xs       [][]float64
	explored []float64
}

// NewSelector builds a selector for a space/metric direction.
func NewSelector(space *configspace.Space, maximize bool, cfg Config) *Selector {
	enc := configspace.NewEncoder(space)
	return &Selector{
		cfg:      cfg,
		space:    space,
		enc:      enc,
		model:    New(enc.Dim(), cfg),
		rng:      rng.New(cfg.Seed ^ 0xd7),
		maximize: maximize,
	}
}

// Model exposes the underlying DTM (for transfer learning and audits).
func (s *Selector) Model() *DTM { return s.model }

// Space exposes the configuration space the selector searches.
func (s *Selector) Space() *configspace.Space { return s.space }

// Encoder exposes the feature encoder.
func (s *Selector) Encoder() *configspace.Encoder { return s.enc }

// SetWindow bounds the explored set Dissimilarity scans to the most
// recent n observations (0 = unbounded). The incumbent best is tracked
// separately and never slides out. A window below 2 is a configuration
// error, mirroring the GP surrogate's bound.
func (s *Selector) SetWindow(n int) error {
	if n != 0 && n < 2 {
		return fmt.Errorf("deeptune: window %d is below the 2-observation minimum (0 disables)", n)
	}
	s.window = n
	return nil
}

// Window returns the sliding-window bound (0 = unbounded).
func (s *Selector) Window() int { return s.window }

// Observe records an evaluated configuration and incrementally retrains
// the DTM.
func (s *Selector) Observe(c *configspace.Config, x []float64, y float64, crashed bool,
	xs [][]float64, ys []float64, crashes []bool) error {
	s.explored = append(s.explored, x)
	if s.window > 0 && len(s.explored) > s.window {
		drop := len(s.explored) - s.window
		n := copy(s.explored, s.explored[drop:])
		for i := n; i < len(s.explored); i++ {
			s.explored[i] = nil
		}
		s.explored = s.explored[:n]
	}
	if !crashed {
		better := !s.haveBest || (s.maximize && y > s.bestY) || (!s.maximize && y < s.bestY)
		if better {
			s.best, s.bestY, s.haveBest = c.Clone(), y, true
		}
	}
	return s.model.Update(xs, ys, crashes)
}

// generatePool produces the candidate pool of Fig 3 step 1: random
// permutations plus mutations of the incumbent (shared by Propose and
// ProposeBatch, which must consume the selector's RNG identically). The
// pool's configurations are redrawn in place — the Into draws consume the
// RNG exactly as the allocating ones — so only a slot whose candidate was
// handed out allocates.
func (s *Selector) generatePool() []*configspace.Config {
	if len(s.pool.cfgs) != s.cfg.PoolSize {
		s.pool.cfgs = make([]*configspace.Config, s.cfg.PoolSize)
	}
	pool := s.pool.cfgs
	for i, c := range pool {
		if c == nil {
			c = s.space.Default()
			pool[i] = c
		}
		switch {
		case s.haveBest && s.rng.Float64() < s.cfg.MutationBias:
			// Exploitation moves around the incumbent: half re-draw a few
			// parameters, half nudge one numeric parameter locally.
			if s.rng.Bool() {
				k := 1 + s.rng.Intn(3)
				s.space.MutateInto(c, s.best, k, s.rng)
			} else {
				s.space.NeighborInto(c, s.best, s.rng)
			}
		case s.cfg.PoolMutateK > 0:
			// Reset to the space's current default in place: SetDefaultsFrom
			// may have rebased it since the last pool (Fig 11).
			k := 1 + s.rng.Intn(s.cfg.PoolMutateK)
			s.space.DefaultInto(c)
			s.space.MutateInto(c, c, k, s.rng)
		default:
			s.space.RandomInto(c, s.rng)
		}
	}
	return pool
}

// poolScores is the shared per-pool prediction state batch ranking reuses
// across slots: the DTM forward passes (the expensive part) run once per
// candidate, never once per (candidate, slot) pair.
type poolScores struct {
	xs    [][]float64
	preds []Prediction
	perfN []float64
	// ds is the live dissimilarity term: initialized against the explored
	// history, then folded with each slot's pick so later slots see
	// already-chosen candidates as explored (the diversity penalty).
	ds        []float64
	survivors int
	w         float64
}

// scorePool runs the DTM over every candidate once and precomputes the
// ranking state (Fig 3 steps 2–3).
func (s *Selector) scorePool(pool []*configspace.Config) *poolScores {
	s.pool.xs = nn.GrowMatrix(s.pool.xs, len(pool), s.enc.Dim())
	ps := &poolScores{
		xs:    s.pool.xs[:len(pool)],
		preds: make([]Prediction, len(pool)),
		ds:    make([]float64, len(pool)),
	}
	for i, c := range pool {
		s.enc.EncodeInto(c, ps.xs[i])
	}
	// Matrix-shaped DTM passes over the pool instead of len(pool) scalar
	// forward chains — bit-identical to the per-candidate loop.
	s.model.PredictBatch(ps.xs, ps.preds)
	// Normalize predicted performance across the pool into [0,1] with the
	// metric direction folded in.
	perfs := make([]float64, len(pool))
	for i, p := range ps.preds {
		if s.maximize {
			perfs[i] = p.Perf
		} else {
			perfs[i] = -p.Perf
		}
	}
	ps.perfN = stats.MinMaxNorm(perfs)
	for i := range pool {
		if ps.preds[i].CrashProb <= s.cfg.CrashThreshold {
			ps.survivors++
		}
	}
	s.pool.nearest(ps.xs, s.explored, ps.ds)
	for i, best := range ps.ds {
		ps.ds[i] = dissimilarity(best, s.enc.Dim(), len(s.explored))
	}
	// Exploitation weight anneals in as the model accumulates signal: the
	// early phase is dominated by the exploration score sf (the "slowly
	// uncovers configurations" phase of Fig 9), the later phase by the
	// predicted performance ("picks up an impactful set of parameters and
	// enters an exploitation phase").
	warmup := math.Min(1, float64(s.model.Trained())/30)
	ps.w = s.cfg.ExploitWeight * warmup
	return ps
}

// nearest writes to best[i] the squared distance from xs[i] to its
// nearest explored point (+Inf with nothing explored), as Dissimilarity
// finds it: the explored set is packed a block of stats.PackBlock points
// at a time into the pool's scratch, each candidate's distances to a
// block are one packed pass, and the minimum is taken in explored order.
func (p *candidatePool) nearest(xs, explored [][]float64, best []float64) {
	for i := range best {
		best[i] = math.Inf(1)
	}
	var dists [stats.PackBlock]float64
	for lo := 0; lo < len(explored); lo += stats.PackBlock {
		block := explored[lo:min(lo+stats.PackBlock, len(explored))]
		p.explored = stats.PackColumns(p.explored, block, len(block[0]))
		for i, x := range xs {
			stats.SquaredDistanceCols(x, p.explored, len(block), dists[:len(block)])
			for _, d := range dists[:len(block)] {
				if d < best[i] {
					best[i] = d
				}
			}
		}
	}
}

// pick ranks the pool (Fig 3 step 3) and returns the winning index,
// skipping candidates for which skip returns true (pending or
// already-picked configurations during batch proposal). A negative return
// means nothing was rankable.
func (s *Selector) pick(pool []*configspace.Config, ps *poolScores, skip func(int) bool) int {
	bestScore, bestIdx := math.Inf(-1), -1
	for i := range pool {
		if skip != nil && skip(i) {
			continue
		}
		// Crash gating: drop likely-crashing candidates when we can afford
		// to; otherwise discount them.
		if ps.survivors >= 8 && ps.preds[i].CrashProb > s.cfg.CrashThreshold {
			continue
		}
		sf := s.cfg.Alpha*ps.ds[i] + (1-s.cfg.Alpha)*ps.preds[i].Uncertainty
		score := ps.w*ps.perfN[i] + (1-ps.w)*sf
		score *= 1 - ps.preds[i].CrashProb
		if score > bestScore {
			bestScore, bestIdx = score, i
		}
	}
	return bestIdx
}

// penalize folds a picked candidate into the live dissimilarity term:
// every candidate's ds drops to at most its dissimilarity against the
// pick, exactly as if the pick had joined the explored set. Dissimilarity
// is monotone in the nearest-neighbor distance, so the fold equals
// recomputing against explored ∪ picks.
func (ps *poolScores) penalize(picked int) {
	chosen := ps.xs[picked : picked+1]
	for i := range ps.ds {
		if d := Dissimilarity(ps.xs[i], chosen); d < ps.ds[i] {
			ps.ds[i] = d
		}
	}
}

// Propose generates a candidate pool (Fig 3 step 1: random permutations,
// plus mutations of the incumbent), predicts each candidate (step 2),
// ranks them (step 3), and returns the winner (step 4). It is
// ProposeBatch(1, nil): a cold model explores by a uniform pool draw.
func (s *Selector) Propose() *configspace.Config {
	return s.ProposeBatch(1, nil)[0]
}

// ProposeBatch generates one shared candidate pool, runs the DTM over it
// once, and fills n slots by repeated ranking with a diversity penalty:
// after each pick the dissimilarity term treats the chosen candidates as
// explored, so later slots steer away from earlier picks instead of
// proposing the runner-up next door. Candidates for which skip returns
// true (the caller's pending set) and candidates equal to an earlier pick
// are avoided on a best-effort basis; when nothing else remains a
// duplicate is accepted after bounded attempts rather than deadlocking.
// With n = 1 and nothing to skip this is Propose exactly, RNG stream
// included.
func (s *Selector) ProposeBatch(n int, skip func(*configspace.Config) bool) []*configspace.Config {
	pool := s.generatePool()
	out := make([]*configspace.Config, 0, n)
	// Hash each candidate once and evaluate the caller's skip predicate
	// once per batch: the pending set is fixed for the duration of the
	// call (the wrapper updates it from the returned batch), so only the
	// chosen set changes between slots. A single slot with nothing to skip
	// can block no candidate, so it hashes nothing.
	var hashes []uint64
	var skipped []bool
	chosen := map[uint64]bool{}
	blocked := func(int) bool { return false }
	if skip != nil || n > 1 {
		hashes = make([]uint64, len(pool))
		skipped = make([]bool, len(pool))
		for i, c := range pool {
			hashes[i] = c.Hash()
			skipped[i] = skip != nil && skip(c)
		}
		blocked = func(i int) bool {
			return skipped[i] || chosen[hashes[i]]
		}
	}
	// fallback draws a pool index at random, re-rolling while the slot is
	// blocked for at most batchRetryAttempts tries (mirroring
	// search's pendingSet.draw: accept a duplicate rather than spin).
	fallback := func() int {
		idx := s.rng.Intn(len(pool))
		for attempt := 1; attempt < batchRetryAttempts && blocked(idx); attempt++ {
			idx = s.rng.Intn(len(pool))
		}
		return idx
	}
	var ps *poolScores
	if s.model.Trained() > 0 {
		ps = s.scorePool(pool)
	}
	for slot := 0; slot < n; slot++ {
		idx := -1
		if ps != nil {
			idx = s.pick(pool, ps, blocked)
		}
		if idx < 0 {
			idx = fallback()
		}
		if slot < n-1 {
			if ps != nil {
				ps.penalize(idx)
			}
			chosen[hashes[idx]] = true
		}
		out = append(out, pool[idx])
	}
	// The picks leave the pool, so the next draw cannot overwrite a
	// configuration the caller holds.
	for i, c := range pool {
		if slices.Contains(out, c) {
			pool[i] = nil
		}
	}
	return out
}

// batchRetryAttempts bounds how often ProposeBatch re-rolls a blocked
// fallback slot before accepting a duplicate — the same
// accept-after-bounded-attempts policy as the search package's
// pendingSet.draw, which every other batch proposer shares (its
// proposeAttempts constant).
const batchRetryAttempts = 16
