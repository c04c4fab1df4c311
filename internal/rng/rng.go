// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout Wayfinder.
//
// Reproducibility is a first-class requirement of the benchmarking platform
// (§3.1 of the paper): every search session, simulator instance, and
// synthetic workload is seeded explicitly so that experiments can be re-run
// bit-for-bit. The generator is xoshiro256**, seeded via splitmix64, which
// gives high-quality 64-bit streams with cheap splitting: deriving an
// independent child stream for a subsystem costs four multiplications.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; derive per-goroutine generators with Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from seed via splitmix64 so that nearby
// seeds still produce decorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// WorkerSeed derives the seed for a parallel worker's private stream from
// the session seed. Worker 0 returns the session seed unchanged, so a
// one-worker pool reproduces the sequential stream bit-for-bit; higher
// workers apply a splitmix64 finalizer to seed^workerID so adjacent worker
// IDs still yield decorrelated streams.
func WorkerSeed(seed uint64, worker int) uint64 {
	if worker <= 0 {
		return seed
	}
	z := seed ^ (uint64(worker) * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent child generator. The parent advances, so
// successive Split calls yield distinct children.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// SplitLabeled derives a child generator whose stream depends on both the
// parent state and a label, useful for attaching stable sub-streams to named
// subsystems regardless of initialization order.
func (r *RNG) SplitLabeled(label string) *RNG {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return New(r.Uint64() ^ h)
}

// State returns the generator's internal xoshiro256** state, for
// checkpointing. Restoring it with SetState reproduces the stream exactly
// from the captured position.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState overwrites the generator's internal state with one previously
// captured by State. The all-zero state is invalid for xoshiro and is
// remapped the same way New remaps it.
func (r *RNG) SetState(s [4]uint64) {
	r.s = s
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 random bits (xoshiro256**).
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = bits.RotateLeft64(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Bool returns true with probability 0.5.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// Chance returns true with probability p (clamped to [0,1]).
func (r *RNG) Chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Normal returns a normal deviate with the given mean and standard deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// LogNormal returns exp(Normal(mu, sigma)).
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// ExpFloat64 returns an exponential deviate with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles a slice of ints in place (Fisher-Yates).
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly random index weighted by the given
// non-negative weights. If all weights are zero it falls back to uniform.
func (r *RNG) Choice(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	return r.ChoiceTotal(weights, total)
}

// ChoiceTotal is Choice with the weights' total supplied: total must be
// the sum of the positive weights in index order, as Choice computes it,
// so a caller drawing repeatedly from fixed weights sums them once and
// gets Choice's draws bit for bit.
func (r *RNG) ChoiceTotal(weights []float64, total float64) int {
	if total <= 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
