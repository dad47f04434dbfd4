package interference

import (
	"math"
	"math/rand"
)

// Fit calibrates a slowdown-factor Model against a contention oracle by
// the paper's data-driven procedure: sample work vectors for every channel
// combination, record the oracle's wall-clock time, and choose the factors
// minimizing squared relative error. Because Algorithm 1's prediction for
// a pairwise combination is monotone in each factor, per-combination
// coordinate descent over a geometric factor grid converges quickly.
//
// samplesPerCombo controls the benchmark budget per combination (the
// paper samples "different shapes and combinations of concurrent
// kernels"). The rng makes the calibration deterministic.
func Fit(oracle *Fluid, samplesPerCombo int, rng *rand.Rand) *Model {
	m := NewModel()
	// Fit pairs first, then triples, then the quadruple, since Algorithm 1
	// applies higher-order factors before lower-order ones.
	combos := AllCombinations()
	for i := len(combos) - 1; i >= 0; i-- {
		mask := combos[i]
		fitCombo(m, mask, oracle, samplesPerCombo, rng)
	}
	return m
}

// fitCombo tunes the factors of a single combination.
func fitCombo(m *Model, mask Mask, oracle *Fluid, samples int, rng *rand.Rand) {
	chans := channelsOf(mask)
	// Benchmark set: random work vectors active exactly on mask.
	xs := make([]Times, samples)
	truth := make([]float64, samples)
	for i := range xs {
		var x Times
		for _, ch := range chans {
			// Work spans two orders of magnitude to expose both balanced
			// and skewed overlaps.
			x[ch] = math.Pow(10, rng.Float64()*2-1)
		}
		xs[i] = x
		truth[i] = oracle.Run(x)
	}
	loss := func() float64 {
		l := 0.0
		for i, x := range xs {
			p := m.Predict(x)
			r := (p - truth[i]) / truth[i]
			l += r * r
		}
		return l
	}
	grid := factorGrid()
	// Coordinate descent: sweep each participant's factor over the grid,
	// keeping the best; two passes suffice for this smooth objective.
	for pass := 0; pass < 3; pass++ {
		for _, ch := range chans {
			bestF, bestL := m.Factor(mask, ch), math.Inf(1)
			for _, f := range grid {
				m.setFactor(mask, ch, f)
				if l := loss(); l < bestL {
					bestL, bestF = l, f
				}
			}
			m.setFactor(mask, ch, bestF)
		}
	}
}

func factorGrid() []float64 {
	var g []float64
	for f := 1.0; f <= 3.0; f *= 1.05 {
		g = append(g, f)
	}
	return g
}

func channelsOf(mask Mask) []Channel {
	var out []Channel
	for ch := Channel(0); ch < NumChannels; ch++ {
		if mask.Has(ch) {
			out = append(out, ch)
		}
	}
	return out
}

// MeanRelError evaluates a fitted model against the oracle on fresh
// samples, returning the mean absolute relative error over all
// combinations. Used by calibration tests and the accuracy experiment.
func MeanRelError(m *Model, oracle *Fluid, samplesPerCombo int, rng *rand.Rand) float64 {
	total, n := 0.0, 0
	for _, mask := range AllCombinations() {
		chans := channelsOf(mask)
		for i := 0; i < samplesPerCombo; i++ {
			var x Times
			for _, ch := range chans {
				x[ch] = math.Pow(10, rng.Float64()*2-1)
			}
			truth := oracle.Run(x)
			pred := m.Predict(x)
			total += math.Abs(pred-truth) / truth
			n++
		}
	}
	return total / float64(n)
}
