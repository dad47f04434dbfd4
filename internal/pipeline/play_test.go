package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// refPlayback1F1B is a 1F1B playback without op orders: warmup, steady
// state and drain spelled out per stage, with a time cursor per stage.
// It is an oracle for TestPropertyPlayMatchesLoops.
func refPlayback1F1B(stages []MicrobatchCost, g int) float64 {
	s := len(stages)
	type op struct {
		fwd bool
		mb  int
	}
	order := make([][]op, s)
	for i := 0; i < s; i++ {
		warmup := min(s-i-1, g)
		for m := 0; m < warmup; m++ {
			order[i] = append(order[i], op{fwd: true, mb: m})
		}
		for m := warmup; m < g; m++ {
			order[i] = append(order[i], op{fwd: true, mb: m}, op{fwd: false, mb: m - warmup})
		}
		for m := g - warmup; m < g; m++ {
			order[i] = append(order[i], op{fwd: false, mb: m})
		}
	}
	fwdEnd, bwdEnd := make([][]float64, s), make([][]float64, s)
	for i := range fwdEnd {
		fwdEnd[i], bwdEnd[i] = make([]float64, g), make([]float64, g)
		for m := 0; m < g; m++ {
			fwdEnd[i][m], bwdEnd[i][m] = -1, -1
		}
	}
	pos, cursor := make([]int, s), make([]float64, s)
	for done := 0; done < s*2*g; {
		for i := 0; i < s; i++ {
			for pos[i] < len(order[i]) {
				o := order[i][pos[i]]
				var depEnd float64
				if o.fwd && i > 0 {
					depEnd = fwdEnd[i-1][o.mb]
				} else if !o.fwd && i < s-1 {
					depEnd = bwdEnd[i+1][o.mb]
				}
				if depEnd < 0 {
					break
				}
				start := math.Max(cursor[i], depEnd)
				dur := stages[i].Fwd
				if o.fwd {
					if o.mb == 0 {
						dur += stages[i].FirstExtra
					}
				} else {
					dur = stages[i].Bwd
					if o.mb == g-1 {
						dur += stages[i].LastExtra
					}
				}
				cursor[i] = start + dur
				if o.fwd {
					fwdEnd[i][o.mb] = cursor[i]
				} else {
					bwdEnd[i][o.mb] = cursor[i]
				}
				pos[i]++
				done++
			}
		}
	}
	makespan := 0.0
	for _, c := range cursor {
		if c > makespan {
			makespan = c
		}
	}
	return makespan
}

// refPlaybackGPipe is a GPipe playback without op orders: a forward
// wave, then a backward wave.
func refPlaybackGPipe(stages []MicrobatchCost, g int) float64 {
	s := len(stages)
	fwdEnd, bwdEnd := make([][]float64, s), make([][]float64, s)
	for i := range fwdEnd {
		fwdEnd[i], bwdEnd[i] = make([]float64, g), make([]float64, g)
	}
	cursor := make([]float64, s)
	for m := 0; m < g; m++ {
		for i := 0; i < s; i++ {
			dep := 0.0
			if i > 0 {
				dep = fwdEnd[i-1][m]
			}
			dur := stages[i].Fwd
			if m == 0 {
				dur += stages[i].FirstExtra
			}
			cursor[i] = math.Max(cursor[i], dep) + dur
			fwdEnd[i][m] = cursor[i]
		}
	}
	for m := 0; m < g; m++ {
		for i := s - 1; i >= 0; i-- {
			dep := 0.0
			if i < s-1 {
				dep = bwdEnd[i+1][m]
			}
			dur := stages[i].Bwd
			if m == g-1 {
				dur += stages[i].LastExtra
			}
			cursor[i] = math.Max(cursor[i], dep) + dur
			bwdEnd[i][m] = cursor[i]
		}
	}
	makespan := 0.0
	for _, c := range cursor {
		if c > makespan {
			makespan = c
		}
	}
	return makespan
}

// Property: the player is bit-identical to the spelled-out loops on both
// orders, for imbalanced stages with extras: each op does the loops'
// float operations in the loops' order.
func TestPropertyPlayMatchesLoops(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, g := rng.Intn(8)+1, rng.Intn(16)+1
		mc := make([]MicrobatchCost, s)
		for i := range mc {
			mc[i] = MicrobatchCost{
				Fwd: rng.Float64() + 0.01, Bwd: 2*rng.Float64() + 0.01,
				FirstExtra: rng.Float64() * 0.7, LastExtra: rng.Float64() * 0.3,
			}
		}
		r1, err1 := Play(mc, OneFOneB(s, g))
		rg, err2 := Play(mc, GPipe(s, g))
		return err1 == nil && err2 == nil &&
			math.Float64bits(r1.Makespan) == math.Float64bits(refPlayback1F1B(mc, g)) &&
			math.Float64bits(rg.Makespan) == math.Float64bits(refPlaybackGPipe(mc, g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Every order's timeline holds each stage's 2G ops exactly once, in the
// stage's op order, and keeps the cross-stage dependencies.
func TestOrdersArePermutations(t *testing.T) {
	st := []MicrobatchCost{{Fwd: 1, Bwd: 2}, {Fwd: 1.5, Bwd: 1}, {Fwd: 0.5, Bwd: 3}}
	for name, mk := range map[string]func(s, g int) [][]Op{"1f1b": OneFOneB, "gpipe": GPipe} {
		for g := 1; g <= 6; g++ {
			r, err := Play(st, mk(len(st), g))
			if err != nil {
				t.Fatalf("%s g=%d: %v", name, g, err)
			}
			ends := map[[3]int]float64{}
			prevEnd := make([]float64, len(st))
			for _, ev := range r.Events() {
				key := [3]int{ev.Stage, ev.Microbatch, b2i(ev.Fwd)}
				if _, dup := ends[key]; dup {
					t.Errorf("%s g=%d: %+v played twice", name, g, ev)
				}
				ends[key] = ev.End
				if ev.Start < prevEnd[ev.Stage] {
					t.Errorf("%s g=%d: %+v starts before the stage's previous op ends (%v)", name, g, ev, prevEnd[ev.Stage])
				}
				prevEnd[ev.Stage] = ev.End
			}
			if len(ends) != 2*g*len(st) {
				t.Errorf("%s g=%d: %d ops played, want %d", name, g, len(ends), 2*g*len(st))
			}
			for _, ev := range r.Events() {
				dep := [3]int{ev.Stage - 1, ev.Microbatch, 1}
				if !ev.Fwd {
					dep = [3]int{ev.Stage + 1, ev.Microbatch, 0}
				}
				if depEnd, ok := ends[dep]; ok && ev.Start < depEnd {
					t.Errorf("%s g=%d: %+v starts before its dependency ends (%v)", name, g, ev, depEnd)
				}
			}
		}
	}
}

func TestPlayRejectsBadOrders(t *testing.T) {
	st := []MicrobatchCost{{Fwd: 1, Bwd: 1}, {Fwd: 1, Bwd: 1}}
	f := func(m int) Op { return Op{Fwd: true, Microbatch: m} }
	b := func(m int) Op { return Op{Microbatch: m} }
	for name, order := range map[string][][]Op{
		"stage count": {{f(0), b(0)}},
		"op count":    {{f(0), b(0)}, {f(0)}},
		"repeat":      {{f(0), f(0), b(0), b(1)}, {f(0), b(0), f(1), b(1)}},
		"range":       {{f(0), b(0)}, {f(1), b(1)}},
		"deadlock":    {{b(0), f(0)}, {f(0), b(0)}},
	} {
		if _, err := Play(st, order); err == nil {
			t.Errorf("%s: bad order accepted", name)
		}
	}
}
