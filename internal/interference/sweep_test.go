package interference

import (
	"math"
	"math/rand"
	"testing"
)

// predictSweep is Algorithm 1 as Predict computed it before it peeled the
// live set directly: every region walks all of sweepMasks, resolving each
// combination whose channels all still have work. It is the executable
// spec TestPredictMatchesSweep and FuzzPredict hold Predict to, bit for
// bit.
func (md *Model) predictSweep(x Times) float64 {
	total := 0.0
	for _, mask := range sweepMasks {
		chans := maskChannels[mask]
		// Active check: all channels of mask must still have work.
		active := true
		for _, ch := range chans {
			if x[ch] <= 0 {
				active = false
				break
			}
		}
		if !active {
			continue
		}
		// scaled = x * factors (participants only).
		overlap := math.Inf(1)
		var scaled Times
		for _, ch := range chans {
			scaled[ch] = x[ch] * md.factors[mask][ch]
			if scaled[ch] < overlap {
				overlap = scaled[ch]
			}
		}
		// Advance by the smallest scaled time; convert the consumed
		// wall-clock back to isolated work per participant.
		for _, ch := range chans {
			x[ch] = (scaled[ch] - overlap) / md.factors[mask][ch]
			if x[ch] < 1e-15 {
				x[ch] = 0
			}
		}
		total += overlap
	}
	// Whatever is left runs alone.
	for ch := Channel(0); ch < NumChannels; ch++ {
		total += x[ch]
	}
	return total
}

// liveMix is the live-mask mix of Predict's calls on one pass of the root
// package's BenchmarkTuneColdGrid (mistperf's search-cold grid, 32 371
// calls): compute always has work, and 1 / 2 / 3 / 4 channels are live in
// 2.9 / 20.8 / 54.8 / 21.5 % of calls.
var liveMix = [...]struct {
	mask  Mask
	calls int
}{
	{0b0001, 924}, {0b0011, 448}, {0b0101, 4439}, {0b1001, 1844},
	{0b0111, 2739}, {0b1011, 896}, {0b1101, 14106}, {0b1111, 6975},
}

// mixedTimes draws n regions with liveMix's masks, each live channel's
// time log-uniform over three decades (a search's region times run from
// about 1e-3 to 1e-1).
func mixedTimes(rng *rand.Rand, n int) []Times {
	calls := 0
	for _, m := range liveMix {
		calls += m.calls
	}
	xs := make([]Times, n)
	for i := range xs {
		r := rng.Intn(calls)
		mask := liveMix[len(liveMix)-1].mask
		for _, m := range liveMix {
			if r < m.calls {
				mask = m.mask
				break
			}
			r -= m.calls
		}
		for ch := Channel(0); ch < NumChannels; ch++ {
			if mask.Has(ch) {
				xs[i][ch] = math.Pow(10, rng.Float64()*3-3)
			}
		}
	}
	return xs
}

// platformModels are the models core fits (calibrationSamples = 12,
// calibrationSeed = 42), plus the factor-free model, under which equal
// times are equal scaled times.
func platformModels() map[string]*Model {
	return map[string]*Model{
		"pcie":   Fit(PCIeFluid(), 12, rand.New(rand.NewSource(42))),
		"nvlink": Fit(NVLinkFluid(), 12, rand.New(rand.NewSource(42))),
		"unit":   NewModel(),
	}
}

// sameResult compares bit patterns; a NaN matches any NaN, since which
// payload survives an operation with two NaN operands is the compiler's
// choice of operand order, not Algorithm 1's.
func sameResult(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// edgeTimes draws regions over every mask from a palette of awkward
// values: ties, zeros and negatives, NaN and +Inf, times whose scaled
// product overflows, subnormals, and pairs built so that the first peel
// leaves a residue on either side of the 1e-15 clamp.
func edgeTimes(rng *rand.Rand, md *Model, n int) []Times {
	palette := []float64{
		0, math.Copysign(0, -1), -1e-3, -1, math.Inf(-1),
		math.NaN(), math.Inf(1), 1e308, math.MaxFloat64,
		5e-324, 1e-300, 1e-16, 1e-15, 2e-15,
		1e-3, 0.01, 0.5, 1, 1,
	}
	residues := []float64{1e-17, 3e-16, 9e-16, 9.99e-16, 1e-15, 1.01e-15, 1.1e-15, 3e-15}
	xs := make([]Times, n)
	for i := range xs {
		x := &xs[i]
		for ch := range x {
			if rng.Intn(2) == 0 {
				x[ch] = palette[rng.Intn(len(palette))]
			} else {
				x[ch] = math.Pow(10, rng.Float64()*3-3)
			}
		}
		switch rng.Intn(4) {
		case 0: // a tie between two channels
			a, b := rng.Intn(int(NumChannels)), rng.Intn(int(NumChannels))
			x[b] = x[a]
		case 1: // every channel equal
			v := x[rng.Intn(int(NumChannels))]
			*x = Times{v, v, v, v}
		case 2: // a pair whose longer channel keeps a residue near 1e-15
			a := Channel(rng.Intn(int(NumChannels)))
			b := (a + 1 + Channel(rng.Intn(int(NumChannels)-1))) % NumChannels
			m := Mask(1<<a | 1<<b)
			v := math.Pow(10, rng.Float64()*3-3)
			*x = Times{}
			x[b] = v
			x[a] = (v*md.factors[m][b] + residues[rng.Intn(len(residues))]*md.factors[m][a]) / md.factors[m][a]
		}
	}
	return xs
}

// firstPeelResidues classifies the work a region's first peel leaves on
// its live channels, computed as Predict computes it: clamped reports a
// residue in (0, 1e-15), kept one in [1e-15, 1e-14).
func firstPeelResidues(md *Model, x Times) (clamped, kept bool) {
	var live Mask
	for ch := range x {
		if !(x[ch] <= 0) {
			live |= 1 << ch
		}
	}
	if live&(live-1) == 0 {
		return false, false
	}
	overlap := math.Inf(1)
	for _, ch := range maskChannels[live] {
		overlap = math.Min(overlap, x[ch]*md.factors[live][ch])
	}
	for _, ch := range maskChannels[live] {
		r := (x[ch]*md.factors[live][ch] - overlap) / md.factors[live][ch]
		clamped = clamped || (r > 0 && r < 1e-15)
		kept = kept || (r >= 1e-15 && r < 1e-14)
	}
	return clamped, kept
}

// TestPredictMatchesSweep holds the live-set peel to the mask sweep on a
// seeded stream: the measured live-count mix first, then the edge cases,
// on every platform model. The stream must reach every case it exists
// for, so the test also counts them.
func TestPredictMatchesSweep(t *testing.T) {
	for name, md := range platformModels() {
		rng := rand.New(rand.NewSource(45))
		stream := append(mixedTimes(rng, 20000), edgeTimes(rng, md, 20000)...)
		var nan, inf, clamped, kept, byLive [NumChannels + 1]int
		for _, x := range stream {
			got, want := md.Predict(x), md.predictSweep(x)
			if !sameResult(got, want) {
				t.Fatalf("%s: Predict(%v) = %v (%#x), sweep %v (%#x)", name, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			n := 0
			for _, v := range x {
				if !(v <= 0) {
					n++
				}
			}
			byLive[n]++
			c, k := firstPeelResidues(md, x)
			if c {
				clamped[n]++
			}
			if k {
				kept[n]++
			}
			switch {
			case math.IsNaN(want):
				nan[n]++
			case math.IsInf(want, 1):
				inf[n]++
			}
		}
		for n := 2; n <= int(NumChannels); n++ {
			if byLive[n] < 1000 || nan[n] == 0 || inf[n] == 0 {
				t.Errorf("%s, %d live: %d regions, %d NaN and %d +Inf results; the stream misses a case", name, n, byLive[n], nan[n], inf[n])
			}
		}
		if clamped[2] == 0 || kept[2] == 0 {
			t.Errorf("%s: first-peel residues below 1e-15 in %d pairs, just above in %d; want both", name, clamped[2], kept[2])
		}
	}
}

// FuzzPredict holds Predict to the mask sweep on arbitrary regions under
// both fitted platform models.
func FuzzPredict(f *testing.F) {
	f.Add(1.2, 0.8, 0.4, 0.3)
	f.Add(0.1, 0.1, 0.1, 0.1)
	f.Add(1.0, 0.0, -1.0, math.NaN())
	f.Add(math.Inf(1), 1e308, 1e-16, 5e-324)
	models := platformModels()
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		x := Times{a, b, c, d}
		for name, md := range models {
			if got, want := md.Predict(x), md.predictSweep(x); !sameResult(got, want) {
				t.Fatalf("%s: Predict(%v) = %v (%#x), sweep %v (%#x)", name, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}
