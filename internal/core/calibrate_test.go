package core

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hardware"
	"repro/internal/interference"
)

// The process-lifetime models are the fits CalibratedAnalyzer used to run
// per call: Fit(fluid, 12, seed 42), equal in all 16 x 4 factors.
func TestSharedModelsEqualFreshFit(t *testing.T) {
	for _, c := range []struct {
		name  string
		got   *interference.Model
		fluid *interference.Fluid
	}{
		{"pcie", pcieModel(), interference.PCIeFluid()},
		{"nvlink", nvlinkModel(), interference.NVLinkFluid()},
	} {
		want := interference.Fit(c.fluid, 12, rand.New(rand.NewSource(42)))
		for m := interference.Mask(0); m < 1<<interference.NumChannels; m++ {
			for ch := interference.Channel(0); ch < interference.NumChannels; ch++ {
				if g, w := c.got.Factor(m, ch), want.Factor(m, ch); g != w {
					t.Errorf("%s: factor[%04b][%v] = %v, a fresh fit has %v", c.name, m, ch, g, w)
				}
			}
		}
	}
}

// Analyzers of one platform share one model by pointer, whatever the
// workload or space; analyzers of different platforms do not.
func TestCalibratedAnalyzersShareThePlatformModel(t *testing.T) {
	calibrated := func(model string, cl *hardware.Cluster, space Space) *interference.Model {
		an, err := CalibratedAnalyzer(testWorkload(model, 8), cl, space)
		if err != nil {
			t.Fatal(err)
		}
		return an.Intf
	}
	pcie := calibrated("gpt3-2.7b", hardware.L4Cluster(1, 8), MistSpace())
	if other := calibrated("gpt3-1.3b", hardware.L4Cluster(1, 2), DeepSpeedSpace()); other != pcie {
		t.Error("two PCIe analyzers hold different interference models")
	}
	nvlink := calibrated("gpt3-2.7b", hardware.A100Cluster(1, 4), MistSpace())
	if other := calibrated("gpt3-2.7b", hardware.A100Cluster(1, 8), MistSpace()); other != nvlink {
		t.Error("two NVLink analyzers hold different interference models")
	}
	if pcie == nvlink {
		t.Error("PCIe and NVLink analyzers share one interference model")
	}
}

// TestConcurrentFirstCalibration: 32 goroutines race to the first
// CalibratedAnalyzer of both platforms (the once-values are re-armed, so
// every -count repeat is a first use); each platform fits once and
// everyone gets that model. `make race` repeats it.
func TestConcurrentFirstCalibration(t *testing.T) {
	pcieModel, nvlinkModel = calibratedOnce(interference.PCIeFluid), calibratedOnce(interference.NVLinkFluid)
	clusters := []*hardware.Cluster{hardware.L4Cluster(1, 8), hardware.A100Cluster(1, 8)}
	got := make([]*interference.Model, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			an, err := CalibratedAnalyzer(testWorkload("gpt3-2.7b", 8), clusters[i%2], MistSpace())
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = an.Intf
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, m := range got {
		if m != got[i%2] {
			t.Fatalf("goroutine %d got a different model than goroutine %d of the same platform", i, i%2)
		}
	}
	if got[0] == got[1] {
		t.Fatal("PCIe and NVLink share one model")
	}
}
