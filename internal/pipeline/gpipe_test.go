package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGPipeSingleStage(t *testing.T) {
	st := []MicrobatchCost{{Fwd: 1, Bwd: 2, FirstExtra: 0.5, LastExtra: 0.25}}
	got, err := playGPipe(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*(1.0+2.0) + 0.5 + 0.25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestGPipeUniformMakespan(t *testing.T) {
	// Uniform stages, f=b=1: GPipe makespan = (G+S-1)*f + (G+S-1)*b.
	s, g := 4, 8
	st := make([]MicrobatchCost, s)
	for i := range st {
		st[i] = MicrobatchCost{Fwd: 1, Bwd: 1}
	}
	got, err := playGPipe(st, g)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(g+s-1) * 2
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestGPipeErrors(t *testing.T) {
	if _, err := playGPipe(nil, 4); err == nil {
		t.Error("empty stages accepted")
	}
	if _, err := playGPipe([]MicrobatchCost{{Fwd: 1, Bwd: 1}}, 0); err == nil {
		t.Error("g=0 accepted")
	}
}

// Property: GPipe and 1F1B have identical makespans on uniform pipelines
// with fwd=bwd (the schedules differ only in ordering, not critical
// path), and both lower-bound by per-stage busy time.
func TestPropertyGPipeVs1F1B(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := rng.Intn(5) + 1
		g := rng.Intn(10) + 1
		st := make([]MicrobatchCost, s)
		v := rng.Float64() + 0.1
		for i := range st {
			st[i] = MicrobatchCost{Fwd: v, Bwd: v}
		}
		mg, err1 := playGPipe(st, g)
		m1, err2 := Playback1F1B(st, g)
		if err1 != nil || err2 != nil {
			return false
		}
		busy := float64(g) * 2 * v
		return math.Abs(mg-m1) < 1e-9 && mg >= busy-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// playGPipe plays the GPipe order and returns its makespan.
func playGPipe(stages []MicrobatchCost, g int) (float64, error) {
	r, err := Play(stages, GPipe(len(stages), g))
	return r.Makespan, err
}

func TestGPipeInFlight(t *testing.T) {
	s, g := 4, 16
	for i, seq := range GPipe(s, g) {
		if got := InFlight(seq); got != g {
			t.Errorf("GPipe stage %d holds %d stashes, want all %d", i, got, g)
		}
	}
	for i, seq := range OneFOneB(s, g) {
		if got, want := InFlight(seq), min(s-i, g); got != want {
			t.Errorf("1F1B stage %d holds %d stashes, want %d", i, got, want)
		}
	}
}

func TestEventsCoverAllOps(t *testing.T) {
	s, g := 3, 5
	st := make([]MicrobatchCost, s)
	for i := range st {
		st[i] = MicrobatchCost{Fwd: 1, Bwd: 2}
	}
	r, err := Play(st, OneFOneB(s, g))
	if err != nil {
		t.Fatal(err)
	}
	events := r.Events()
	if len(events) != s*2*g {
		t.Fatalf("got %d events, want %d", len(events), s*2*g)
	}
	seen := map[[3]int]bool{}
	for _, ev := range events {
		if ev.End <= ev.Start || ev.End > r.Makespan+1e-9 {
			t.Errorf("bad event bounds: %+v (makespan %v)", ev, r.Makespan)
		}
		key := [3]int{ev.Stage, ev.Microbatch, b2i(ev.Fwd)}
		if seen[key] {
			t.Errorf("duplicate event %+v", ev)
		}
		seen[key] = true
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
