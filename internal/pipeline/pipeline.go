// Package pipeline models pipeline-parallel execution: the paper's
// imbalance-aware iteration-time objective (Eq. 1), the averaged
// approximation used by prior systems (for the Figure 13/15 ablations),
// and an exact dependency-driven player of pipeline schedules, used to
// validate the objectives and by the execution engine.
//
// A schedule is data: OneFOneB and GPipe return each stage's op order,
// and Play runs any order once. The makespan, each op's span, the bubble
// fraction, a stage's in-flight stash depth and the event timeline are
// all read off that one Run.
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
// player: forward and backward halves of the stable time, plus extras
// attached to the first forward and last backward.
type MicrobatchCost struct {
	Fwd, Bwd              float64 // stable per-microbatch halves
	FirstExtra, LastExtra float64
}

// Op is one operation of a stage's schedule: the forward or the backward
// pass of one microbatch.
type Op struct {
	Fwd        bool
	Microbatch int
}

// OneFOneB returns the 1F1B op order of s stages over g microbatches:
// stage i runs min(s-i-1, g) warmup forwards, alternates forward and
// backward in steady state, and drains with backwards, so it holds at
// most min(s-i, g) activation stashes at once.
func OneFOneB(s, g int) [][]Op {
	order := newOrder(s, g)
	for i, seq := range order {
		warmup := min(s-i-1, g)
		seq = seq[:0]
		for m := 0; m < warmup; m++ {
			seq = append(seq, Op{Fwd: true, Microbatch: m})
		}
		for m := warmup; m < g; m++ {
			seq = append(seq, Op{Fwd: true, Microbatch: m}, Op{Microbatch: m - warmup})
		}
		for m := g - warmup; m < g; m++ {
			seq = append(seq, Op{Microbatch: m})
		}
	}
	return order
}

// GPipe returns the GPipe op order of s stages over g microbatches: every
// stage runs all g forwards, then all g backwards. The makespan is close
// to 1F1B's, but every stage holds all g stashes at the turn, which is
// why Mist (like Megatron-LM) schedules 1F1B; the scheduler ablation
// plays both.
func GPipe(s, g int) [][]Op {
	order := newOrder(s, g)
	for _, seq := range order {
		for m := range g {
			seq[m] = Op{Fwd: true, Microbatch: m}
			seq[g+m] = Op{Microbatch: m}
		}
	}
	return order
}

// newOrder allocates s stage orders of 2g ops each over one array.
func newOrder(s, g int) [][]Op {
	s, n := max(s, 0), 2*max(g, 0)
	ops := make([]Op, s*n)
	order := make([][]Op, s)
	for i := range order {
		order[i] = ops[i*n : (i+1)*n : (i+1)*n]
	}
	return order
}

// InFlight returns the most forwards a stage's op order has outstanding
// at once (run, their backward not yet): the activation stashes it holds.
func InFlight(ops []Op) int {
	n, peak := 0, 0
	for _, o := range ops {
		if o.Fwd {
			n++
			peak = max(peak, n)
		} else {
			n--
		}
	}
	return peak
}

// Run is one played training iteration: the order it played, the costs
// it played them at, and each op's start and end.
type Run struct {
	Makespan float64
	Order    [][]Op

	costs      []MicrobatchCost
	start, end []float64 // by slot
}

// slot indexes stage i's op o in a Run's start and end times.
func slot(i, g int, o Op) int {
	k := 2 * (i*g + o.Microbatch)
	if !o.Fwd {
		k++
	}
	return k
}

// Play runs a schedule exactly, dependency by dependency: fwd(i,m) needs
// fwd(i-1,m); bwd(i,m) needs bwd(i+1,m); a stage runs its ops in order,
// each as soon as its dependency and the stage's previous op are done.
// The first forward carries FirstExtra and the last backward LastExtra.
// order[i] must hold each of stage i's 2G ops exactly once.
func Play(stages []MicrobatchCost, order [][]Op) (Run, error) {
	s, g := len(stages), 0
	if len(order) > 0 {
		g = len(order[0]) / 2
	}
	if s == 0 || g == 0 {
		return Run{}, fmt.Errorf("pipeline: empty playback (stages=%d, g=%d)", s, g)
	}
	if len(order) != s {
		return Run{}, fmt.Errorf("pipeline: %d stage orders for %d stages", len(order), s)
	}
	n := 2 * g
	for i, seq := range order {
		if len(seq) != n {
			return Run{}, fmt.Errorf("pipeline: stage %d has %d ops, want %d", i, len(seq), n)
		}
	}
	times := make([]float64, 2*s*n)
	start, end := times[:s*n], times[s*n:]
	for k := range end {
		end[k] = -1 // not yet played
	}
	next := make([]int, s) // next op index per stage
	for done := 0; done < s*n; {
		progressed := false
		for i, seq := range order {
			for next[i] < n {
				o := seq[next[i]]
				if o.Microbatch < 0 || o.Microbatch >= g {
					return Run{}, fmt.Errorf("pipeline: stage %d op %+v outside %d microbatches", i, o, g)
				}
				dep, depEnd := i-1, 0.0 // a forward waits on the stage before
				if !o.Fwd {
					dep = i + 1 // a backward on the stage after
				}
				if dep >= 0 && dep < s {
					depEnd = end[slot(dep, g, o)]
				}
				if depEnd < 0 {
					break // dependency not yet played
				}
				k := slot(i, g, o)
				if end[k] >= 0 {
					return Run{}, fmt.Errorf("pipeline: stage %d plays %+v twice", i, o)
				}
				var cursor float64
				if next[i] > 0 {
					cursor = end[slot(i, g, seq[next[i]-1])]
				}
				dur := stages[i].Fwd
				if o.Fwd {
					if o.Microbatch == 0 {
						dur += stages[i].FirstExtra
					}
				} else {
					dur = stages[i].Bwd
					if o.Microbatch == g-1 {
						dur += stages[i].LastExtra
					}
				}
				start[k] = math.Max(cursor, depEnd)
				end[k] = start[k] + dur
				next[i]++
				done++
				progressed = true
			}
		}
		if !progressed {
			return Run{}, fmt.Errorf("pipeline: schedule deadlock (S=%d, G=%d)", s, g)
		}
	}
	makespan := 0.0
	for i, seq := range order {
		if e := end[slot(i, g, seq[n-1])]; e > makespan {
			makespan = e
		}
	}
	return Run{Makespan: makespan, Order: order, costs: stages, start: start, end: end}, nil
}

// Playback1F1B plays the 1F1B schedule and returns its makespan.
func Playback1F1B(stages []MicrobatchCost, g int) (float64, error) {
	r, err := Play(stages, OneFOneB(len(stages), g))
	return r.Makespan, err
}

// Bubble returns the idle fraction of the run: 1 - busy/(S*makespan).
func (r Run) Bubble() float64 {
	g := float64(len(r.Order[0]) / 2)
	busy := 0.0
	for _, st := range r.costs {
		busy += g*(st.Fwd+st.Bwd) + st.FirstExtra + st.LastExtra
	}
	frac := 1 - busy/(float64(len(r.costs))*r.Makespan)
	if frac < 0 {
		frac = 0 // single-stage pipelines are fully busy; clamp float noise
	}
	return frac
}

// Event is one executed operation of a run, for timeline export and
// inspection.
type Event struct {
	Stage      int
	Microbatch int
	Fwd        bool
	Start, End float64
}

// Events returns the run's timeline: each op's start and end, stage by
// stage in op order.
func (r Run) Events() []Event {
	out := make([]Event, 0, len(r.end))
	for i, seq := range r.Order {
		for _, o := range seq {
			k := slot(i, len(seq)/2, o)
			out = append(out, Event{Stage: i, Microbatch: o.Microbatch, Fwd: o.Fwd, Start: r.start[k], End: r.end[k]})
		}
	}
	return out
}
