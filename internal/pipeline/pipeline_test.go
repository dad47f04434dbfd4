package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIterationTimeSingleStage(t *testing.T) {
	// One stage, no pipeline: G*t + d.
	stages := []StagePerf{{Stable: 2, Delta: 0.5}}
	got := IterationTime(stages, 4)
	want := 3.0*2 + 2 + 0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIterationTimeUniformStages(t *testing.T) {
	// 4 uniform stages, t=1, d=0, G=8: (G-1)*1 + 4*1 = 11.
	stages := make([]StagePerf, 4)
	for i := range stages {
		stages[i] = StagePerf{Stable: 1}
	}
	got := IterationTime(stages, 8)
	if math.Abs(got-11) > 1e-12 {
		t.Errorf("got %v, want 11", got)
	}
}

func TestIterationTimeBottleneck(t *testing.T) {
	// The slowest stage dominates the (G-1) term.
	stages := []StagePerf{{Stable: 1}, {Stable: 3}, {Stable: 1}}
	got := IterationTime(stages, 10)
	want := 9.0*3 + 5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestIterationTimeDeltaHiding(t *testing.T) {
	// A delta on a deep stage hides behind the ramp of earlier stages:
	// stages t=1 each, stage 3 has d=1.5; prefix before stage 3 is 2, so
	// the exposed extra is max(0, 1.5-2) = 0.
	stages := []StagePerf{{Stable: 1}, {Stable: 1}, {Stable: 1, Delta: 1.5}}
	base := []StagePerf{{Stable: 1}, {Stable: 1}, {Stable: 1}}
	if IterationTime(stages, 4) != IterationTime(base, 4) {
		t.Error("delta hidden in pipeline ramp should not change iteration time")
	}
	// On the first stage it is fully exposed.
	exposed := []StagePerf{{Stable: 1, Delta: 1.5}, {Stable: 1}, {Stable: 1}}
	if IterationTime(exposed, 4) != IterationTime(base, 4)+1.5 {
		t.Error("stage-0 delta should be fully exposed")
	}
}

func TestAveragedVsImbalanceAware(t *testing.T) {
	// Shortcoming #3: a large delta on a stage that is not the bottleneck
	// is diluted to d/G by the averaged objective without moving its max
	// term, so it prefers the spiky plan (7·1.0 + 0.875 + 1.0 = 8.875 <
	// 7·1.1 + 2.2 = 9.9); Eq. 1 exposes the whole delta and ranks the
	// plans the other way round (7·1.0 + 1.5 + 3 = 11.5 > 9.9).
	honest := []StagePerf{{Stable: 1.1, Delta: 0}, {Stable: 1.1, Delta: 0}}
	spiky := []StagePerf{{Stable: 0.5, Delta: 3}, {Stable: 1.0, Delta: 0}}
	g := 8
	if s, h := IterationTimeAveraged(spiky, g), IterationTimeAveraged(honest, g); s >= h {
		t.Errorf("averaged objective should prefer the spiky plan: spiky %v, honest %v", s, h)
	}
	if s, h := IterationTime(spiky, g), IterationTime(honest, g); s <= h {
		t.Errorf("Eq.1 should penalize the spiky plan the averaged objective prefers: spiky %v, honest %v", s, h)
	}
}

func TestZeroCases(t *testing.T) {
	if IterationTime(nil, 4) != 0 || IterationTime([]StagePerf{{Stable: 1}}, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestPlaybackSingleStage(t *testing.T) {
	st := []MicrobatchCost{{Fwd: 1, Bwd: 2, FirstExtra: 0.5, LastExtra: 0.25}}
	got, err := Playback1F1B(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*(1.0+2.0) + 0.5 + 0.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPlaybackUniformPipeline(t *testing.T) {
	// Classic 1F1B makespan for uniform stages: (G + S - 1) * (f + b)
	// when f == b (no extras).
	s, g := 4, 8
	st := make([]MicrobatchCost, s)
	for i := range st {
		st[i] = MicrobatchCost{Fwd: 1, Bwd: 1}
	}
	got, err := Playback1F1B(st, g)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(g+s-1) * 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestPlaybackMatchesEq1OnUniform(t *testing.T) {
	// For uniform stages with fwd=bwd and no extras, Eq. 1 with t=f+b
	// equals the playback: (G-1)(f+b) + S(f+b).
	s, g := 4, 16
	mc := make([]MicrobatchCost, s)
	perf := make([]StagePerf, s)
	for i := range mc {
		mc[i] = MicrobatchCost{Fwd: 1.5, Bwd: 1.5}
		perf[i] = StagePerf{Stable: 3}
	}
	play, err := Playback1F1B(mc, g)
	if err != nil {
		t.Fatal(err)
	}
	eq1 := IterationTime(perf, g)
	if math.Abs(play-eq1) > 1e-9 {
		t.Errorf("playback %v vs Eq.1 %v", play, eq1)
	}
}

func TestPlaybackErrors(t *testing.T) {
	if _, err := Playback1F1B(nil, 4); err == nil {
		t.Error("empty stage list accepted")
	}
	if _, err := Playback1F1B([]MicrobatchCost{{Fwd: 1, Bwd: 1}}, 0); err == nil {
		t.Error("g=0 accepted")
	}
}

func TestBubbleFraction(t *testing.T) {
	// Deeper pipelines with few microbatches have larger bubbles.
	mk := func(s int) []MicrobatchCost {
		st := make([]MicrobatchCost, s)
		for i := range st {
			st[i] = MicrobatchCost{Fwd: 1, Bwd: 1}
		}
		return st
	}
	bubble := func(st []MicrobatchCost) float64 {
		r, err := Play(st, OneFOneB(len(st), 4))
		if err != nil {
			t.Fatal(err)
		}
		return r.Bubble()
	}
	b2, b8 := bubble(mk(2)), bubble(mk(8))
	if b8 <= b2 {
		t.Errorf("bubble(S=8)=%v should exceed bubble(S=2)=%v", b8, b2)
	}
	if b2 < 0 || b8 > 1 {
		t.Errorf("bubble fractions out of range: %v, %v", b2, b8)
	}
	if b1 := bubble(mk(1)); b1 != 0 {
		t.Errorf("a single stage is never idle, bubble %v", b1)
	}
}

// Property: Eq. 1 is at least its deltas-dropped part (G-1)·max t + Σ t,
// the bound the tuner's compute floor relies on.
func TestPropertyObjectiveOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := rng.Intn(6) + 1
		g := rng.Intn(12) + 1
		perf := make([]StagePerf, s)
		for i := range perf {
			perf[i] = StagePerf{Stable: rng.Float64()*2 + 0.1, Delta: rng.Float64()}
		}
		maxT, sumT := 0.0, 0.0
		for _, p := range perf {
			maxT, sumT = max(maxT, p.Stable), sumT+p.Stable
		}
		return IterationTime(perf, g) >= float64(g-1)*maxT+sumT-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: playback makespan is at least each stage's own busy time and
// at least the Eq.1 lower structure for uniform stages.
func TestPropertyPlaybackLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := rng.Intn(5) + 1
		g := rng.Intn(10) + 1
		mc := make([]MicrobatchCost, s)
		for i := range mc {
			mc[i] = MicrobatchCost{
				Fwd: rng.Float64() + 0.05, Bwd: rng.Float64() + 0.05,
				FirstExtra: rng.Float64() * 0.5, LastExtra: rng.Float64() * 0.5,
			}
		}
		makespan, err := Playback1F1B(mc, g)
		if err != nil {
			return false
		}
		for _, st := range mc {
			busy := float64(g)*(st.Fwd+st.Bwd) + st.FirstExtra + st.LastExtra
			if makespan < busy-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Eq.1 approximates playback from below-or-near for balanced
// pipelines (it is the paper's analytical surrogate of the same 1F1B
// structure).
func TestPropertyEq1TracksPlayback(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := rng.Intn(4) + 1
		g := rng.Intn(8) + s // enough microbatches to reach steady state
		mc := make([]MicrobatchCost, s)
		perf := make([]StagePerf, s)
		base := rng.Float64() + 0.5
		for i := range mc {
			f64 := base * (0.9 + rng.Float64()*0.2)
			b64 := f64 * 2
			mc[i] = MicrobatchCost{Fwd: f64, Bwd: b64}
			perf[i] = StagePerf{Stable: f64 + b64}
		}
		makespan, err := Playback1F1B(mc, g)
		if err != nil {
			return false
		}
		eq1 := IterationTime(perf, g)
		// Within 35% of each other for mildly imbalanced pipelines.
		return eq1 <= makespan*1.35+1e-9 && makespan <= eq1*1.35+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPlayback32x64(b *testing.B) {
	s, g := 32, 64
	mc := make([]MicrobatchCost, s)
	for i := range mc {
		mc[i] = MicrobatchCost{Fwd: 1, Bwd: 2, FirstExtra: 0.3, LastExtra: 0.2}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Playback1F1B(mc, g); err != nil {
			b.Fatal(err)
		}
	}
}
