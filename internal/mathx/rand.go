package mathx

import "math/rand"

// NewRand returns a deterministic PRNG seeded with seed.
// Every stochastic component of the repository (dataset generation, SGD
// shuffles, DQN exploration, the simulator) takes an explicit *rand.Rand so
// experiments are reproducible end to end.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Perm fills a permutation of [0, n) using rng.
func Perm(rng *rand.Rand, n int) []int {
	return rng.Perm(n)
}

// Shuffle permutes idx in place using rng.
func Shuffle(rng *rand.Rand, idx []int) {
	rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
}

// Uniform returns a sample from [lo, hi).
func Uniform(rng *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*rng.Float64()
}

// Choice returns a uniformly random index in [0, n), or -1 when n <= 0.
func Choice(rng *rand.Rand, n int) int {
	if n <= 0 {
		return -1
	}
	return rng.Intn(n)
}

// WeightedChoice samples an index with probability proportional to weights.
// Non-positive total weight falls back to a uniform choice.
func WeightedChoice(rng *rand.Rand, weights []float64) int {
	if len(weights) == 0 {
		return -1
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return Choice(rng, len(weights))
	}
	target := rng.Float64() * total
	var cum float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		cum += w
		if cum >= target {
			return i
		}
	}
	return len(weights) - 1
}
