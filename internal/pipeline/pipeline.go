// Package pipeline models pipeline-parallel execution: the paper's
// imbalance-aware iteration-time objective (Eq. 1), the averaged and
// stable-only approximations used by prior systems (for the Figure 13/15
// ablations), and an exact dependency-driven playback of the 1F1B
// schedule used to validate the objectives and by the execution engine.
//
// IterationTime and IterationTimeAveraged are also what the tuner
// minimises: core's inter-stage objective and Tuner.PredictPlan call them
// rather than restate them, so the formula validated here against the
// playback is the one a search optimises and reports.
package pipeline

import (
	"fmt"
	"math"
)

// StagePerf summarizes one pipeline stage for the analytical objectives:
// Stable is the stable-microbatch time t_i, Delta the extra time d_i of
// the first/last microbatches (Eq. 5/6).
type StagePerf struct {
	Stable float64
	Delta  float64
}

// IterationTime evaluates the paper's Eq. (1):
//
//	(G-1)·max_i t_i  +  Σ_i t_i  +  max_i (d_i − Σ_{j<i} t_j)
//
// The first term is the pipeline bottleneck over G microbatches, the
// second the fill/drain ramp, and the third the exposed part of the
// first/last-microbatch extras after hiding them in pipeline bubbles
// (communication independent of previous stages hides in the ramp of
// deeper stages).
func IterationTime(stages []StagePerf, g int) float64 {
	if len(stages) == 0 || g <= 0 {
		return 0
	}
	maxT, sumT := 0.0, 0.0
	for _, s := range stages {
		sumT += s.Stable
		if s.Stable > maxT {
			maxT = s.Stable
		}
	}
	maxDelta := math.Inf(-1)
	prefix := 0.0
	for _, s := range stages {
		if v := s.Delta - prefix; v > maxDelta {
			maxDelta = v
		}
		prefix += s.Stable
	}
	if maxDelta < 0 {
		maxDelta = 0
	}
	return float64(g-1)*maxT + sumT + maxDelta
}

// IterationTimeAveraged is the classic objective of prior auto-planners
// (Alpa, Aceso): every microbatch is assumed to cost the average
// (t + d/G), so the first/last extras are smeared across the iteration.
// Used in the ablation of imbalance awareness.
func IterationTimeAveraged(stages []StagePerf, g int) float64 {
	if len(stages) == 0 || g <= 0 {
		return 0
	}
	maxT, sumT := 0.0, 0.0
	for _, s := range stages {
		avg := s.Stable + s.Delta/float64(g)
		sumT += avg
		if avg > maxT {
			maxT = avg
		}
	}
	return float64(g-1)*maxT + sumT
}

// MicrobatchCost gives the per-stage, per-microbatch split used by the
// exact playback: forward and backward halves of the stable time, plus
// extras attached to the first forward and last backward.
type MicrobatchCost struct {
	Fwd, Bwd              float64 // stable per-microbatch halves
	FirstExtra, LastExtra float64
}

// Event is one executed operation in a pipeline playback, for timeline
// export and inspection.
type Event struct {
	Stage      int
	Microbatch int
	Fwd        bool
	Start, End float64
}

// Playback1F1B simulates the 1F1B schedule exactly: stage i performs
// min(S-i-1, G) warmup forwards, alternates forward/backward in steady
// state, and drains with backwards (so stage i holds at most min(S-i, G)
// in-flight activation stashes). Dependencies: fwd(i,m) needs fwd(i-1,m);
// bwd(i,m) needs bwd(i+1,m); ops on one stage execute in order. Returns
// the makespan of one training iteration.
func Playback1F1B(stages []MicrobatchCost, g int) (float64, error) {
	makespan, _, err := Playback1F1BEvents(stages, g, false)
	return makespan, err
}

// Playback1F1BEvents is Playback1F1B that additionally returns the
// executed op timeline when record is set.
func Playback1F1BEvents(stages []MicrobatchCost, g int, record bool) (float64, []Event, error) {
	s := len(stages)
	if s == 0 || g <= 0 {
		return 0, nil, fmt.Errorf("pipeline: empty playback (stages=%d, g=%d)", s, g)
	}
	var events []Event
	type op struct {
		fwd bool
		mb  int
	}
	order := make([][]op, s)
	for i := 0; i < s; i++ {
		warmup := s - i - 1
		if warmup > g {
			warmup = g
		}
		var seq []op
		for m := 0; m < warmup; m++ {
			seq = append(seq, op{fwd: true, mb: m})
		}
		for m := warmup; m < g; m++ {
			seq = append(seq, op{fwd: true, mb: m})
			seq = append(seq, op{fwd: false, mb: m - warmup})
		}
		for m := g - warmup; m < g; m++ {
			seq = append(seq, op{fwd: false, mb: m})
		}
		order[i] = seq
	}

	fwdEnd := make([][]float64, s)
	bwdEnd := make([][]float64, s)
	for i := range fwdEnd {
		fwdEnd[i] = make([]float64, g)
		bwdEnd[i] = make([]float64, g)
		for m := range fwdEnd[i] {
			fwdEnd[i][m] = -1
			bwdEnd[i][m] = -1
		}
	}
	pos := make([]int, s) // next op index per stage
	cursor := makeF64(s)  // stage time cursors
	done := 0
	total := s * 2 * g
	for done < total {
		progressed := false
		for i := 0; i < s; i++ {
			for pos[i] < len(order[i]) {
				o := order[i][pos[i]]
				var depEnd float64
				if o.fwd {
					if i > 0 {
						depEnd = fwdEnd[i-1][o.mb]
					}
				} else {
					if i < s-1 {
						depEnd = bwdEnd[i+1][o.mb]
					}
				}
				if depEnd < 0 {
					break // dependency not yet scheduled
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
				end := start + dur
				cursor[i] = end
				if o.fwd {
					fwdEnd[i][o.mb] = end
				} else {
					bwdEnd[i][o.mb] = end
				}
				if record {
					events = append(events, Event{Stage: i, Microbatch: o.mb, Fwd: o.fwd, Start: start, End: end})
				}
				pos[i]++
				done++
				progressed = true
			}
		}
		if !progressed {
			return 0, nil, fmt.Errorf("pipeline: schedule deadlock (S=%d, G=%d)", s, g)
		}
	}
	makespan := 0.0
	for i := 0; i < s; i++ {
		if cursor[i] > makespan {
			makespan = cursor[i]
		}
	}
	return makespan, events, nil
}

func makeF64(n int) []float64 { return make([]float64, n) }

// BubbleFraction reports the idle fraction of the pipeline for a given
// playback: 1 - busy/(S*makespan).
func BubbleFraction(stages []MicrobatchCost, g int) (float64, error) {
	makespan, err := Playback1F1B(stages, g)
	if err != nil {
		return 0, err
	}
	busy := 0.0
	for _, st := range stages {
		busy += float64(g)*(st.Fwd+st.Bwd) + st.FirstExtra + st.LastExtra
	}
	frac := 1 - busy/(float64(len(stages))*makespan)
	if frac < 0 {
		frac = 0 // single-stage pipelines are fully busy; clamp float noise
	}
	return frac, nil
}
