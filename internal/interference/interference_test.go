package interference

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMaskBasics(t *testing.T) {
	m := Mask(1<<Compute | 1<<G2C)
	if !m.Has(Compute) || !m.Has(G2C) || m.Has(G2G) || m.Has(C2G) {
		t.Fatalf("mask %04b membership wrong", m)
	}
	if m.Count() != 2 {
		t.Errorf("count = %d, want 2", m.Count())
	}
}

func TestAllCombinationsOrdered(t *testing.T) {
	combos := AllCombinations()
	// C(4,4)+C(4,3)+C(4,2) = 1+4+6 = 11.
	if len(combos) != 11 {
		t.Fatalf("got %d combinations, want 11", len(combos))
	}
	// Largest first (Algorithm 1 order).
	for i := 1; i < len(combos); i++ {
		if combos[i].Count() > combos[i-1].Count() {
			t.Fatal("combinations not ordered largest-first")
		}
	}
}

func TestPredictNoInterference(t *testing.T) {
	// With all factors = 1 the overlapped time of concurrent channels is
	// the max of the participants (perfect overlap).
	m := NewModel()
	got := m.Predict(Times{3, 2, 1, 0})
	if math.Abs(got-3) > 1e-12 {
		t.Errorf("perfect overlap: got %v, want 3", got)
	}
}

func TestPredictSingleChannel(t *testing.T) {
	m := NewModel()
	for ch := Channel(0); ch < NumChannels; ch++ {
		var x Times
		x[ch] = 1.5
		if got := m.Predict(x); math.Abs(got-1.5) > 1e-12 {
			t.Errorf("%v alone: got %v, want 1.5", ch, got)
		}
	}
}

func TestPredictPairSlowdown(t *testing.T) {
	// Two equal channels with factor 2 each: both scale to 2, overlap
	// peels 2 seconds and drains both; total 2 (not 1 = perfect overlap,
	// not 2+2 = serialized).
	m := NewModel()
	mask := Mask(1<<G2G | 1<<G2C)
	m.setFactor(mask, G2G, 2)
	m.setFactor(mask, G2C, 2)
	got := m.Predict(Times{0, 1, 0, 1})
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("pair with 2x factors: got %v, want 2", got)
	}
}

func TestPredictSkewedPair(t *testing.T) {
	// compute=4, g2g=1, factors compute 1.1 / g2g 1.5 under {C,G2G}:
	// scaled = (4.4, 1.5); overlap 1.5 drains g2g, compute has
	// (4.4-1.5)/1.1 = 2.636... left, runs alone. Total = 1.5 + 2.636...
	m := NewModel()
	mask := Mask(1<<Compute | 1<<G2G)
	m.setFactor(mask, Compute, 1.1)
	m.setFactor(mask, G2G, 1.5)
	got := m.Predict(Times{4, 1, 0, 0})
	want := 1.5 + (4.4-1.5)/1.1
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("skewed pair: got %v, want %v", got, want)
	}
}

func TestSetFactorPanicsOutsideMask(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewModel().setFactor(Mask(1<<Compute|1<<G2G), G2C, 2)
}

func TestSetFactorClampsBelowOne(t *testing.T) {
	m := NewModel()
	mask := Mask(1<<Compute | 1<<G2G)
	m.setFactor(mask, Compute, 0.5)
	if f := m.Factor(mask, Compute); f != 1 {
		t.Errorf("factor clamped to %v, want 1", f)
	}
}

// Property: predicted time is at least the max isolated time and at most
// the serialized sum times the largest factor.
func TestPropertyPredictBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Fit(PCIeFluid(), 12, rng)
	f := func(a, b, c, d uint16) bool {
		x := Times{
			float64(a%1000) / 100,
			float64(b%1000) / 100,
			float64(c%1000) / 100,
			float64(d%1000) / 100,
		}
		pred := m.Predict(x)
		maxT, sum := 0.0, 0.0
		for _, v := range x {
			sum += v
			if v > maxT {
				maxT = v
			}
		}
		return pred >= maxT-1e-9 && pred <= 3*sum+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: prediction is (near-)monotone in each channel's work. Exact
// monotonicity does not hold for Algorithm 1 with heterogeneous factors —
// extra work on one channel can shift wall-clock time between combination
// phases with different factor sets — so a small relative tolerance is
// allowed (the same is true of the paper's model).
func TestPropertyPredictMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Fit(NVLinkFluid(), 12, rng)
	f := func(a, b, c, d uint8, chi uint8, extra uint8) bool {
		x := Times{float64(a%50) / 10, float64(b%50) / 10, float64(c%50) / 10, float64(d%50) / 10}
		ch := Channel(chi % uint8(NumChannels))
		y := x
		y[ch] += float64(extra%30)/10 + 0.1
		px, py := m.Predict(x), m.Predict(y)
		return py >= px*0.97-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFluidIndependentChannels(t *testing.T) {
	// Zero coupling: channels overlap perfectly.
	f := &Fluid{}
	got := f.Run(Times{2, 3, 1, 0.5})
	if math.Abs(got-3) > 1e-9 {
		t.Errorf("uncoupled fluid: got %v, want 3", got)
	}
}

func TestFluidFullContention(t *testing.T) {
	// Full mutual coupling 1.0 between two channels: each runs at 1/2
	// rate while both active, so two 1-second jobs take 2+... piecewise:
	// both at rate 0.5 until both finish at t=2.
	f := &Fluid{}
	f.Coupling[C2G][G2C] = 1
	f.Coupling[G2C][C2G] = 1
	got := f.Run(Times{0, 0, 1, 1})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("full contention: got %v, want 2", got)
	}
}

func TestFluidPCIeVsNVLink(t *testing.T) {
	// NCCL + H2D overlap should hurt far more on PCIe than on NVLink.
	x := Times{0, 1, 1, 0}
	pcie := PCIeFluid().Run(x)
	nvlink := NVLinkFluid().Run(x)
	if pcie <= nvlink {
		t.Errorf("PCIe overlap %v should be slower than NVLink %v", pcie, nvlink)
	}
}

func TestFitAccuracy(t *testing.T) {
	// The fitted Algorithm-1 model must track the fluid oracle within a
	// usable tolerance on held-out samples (the paper reports ~2% runtime
	// prediction error end-to-end; the interference component alone
	// should stay under 10% mean relative error).
	for name, oracle := range map[string]*Fluid{"pcie": PCIeFluid(), "nvlink": NVLinkFluid()} {
		rng := rand.New(rand.NewSource(7))
		m := Fit(oracle, 24, rng)
		err := MeanRelError(m, oracle, 40, rand.New(rand.NewSource(99)))
		if err > 0.10 {
			t.Errorf("%s: mean relative error %.3f > 0.10", name, err)
		}
	}
}

func TestFitDeterministic(t *testing.T) {
	m1 := Fit(PCIeFluid(), 10, rand.New(rand.NewSource(5)))
	m2 := Fit(PCIeFluid(), 10, rand.New(rand.NewSource(5)))
	for _, mask := range AllCombinations() {
		for ch := Channel(0); ch < NumChannels; ch++ {
			if !mask.Has(ch) {
				continue
			}
			if m1.Factor(mask, ch) != m2.Factor(mask, ch) {
				t.Fatalf("fit not deterministic at mask %04b ch %v", mask, ch)
			}
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := Fit(PCIeFluid(), 10, rng)
	x := Times{1.2, 0.8, 0.4, 0.3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

func BenchmarkFluidRun(b *testing.B) {
	f := PCIeFluid()
	x := Times{1.2, 0.8, 0.4, 0.3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Run(x)
	}
}
