// Package baselines drives the comparison systems of the paper's
// evaluation (§6.1) through the shared tuner machinery and execution
// engine. Each baseline is a restriction of the search space
// (core.*Space); its runtime follows from the space, because the engine
// executes plans in the mode of the analyzer it is built on, which
// core.CalibratedAnalyzer sets from Space.OverlapAware:
//
//   - Megatron-LM: grid-searched 3D parallelism with full recomputation
//     and the distributed optimizer (ZeRO-1); overlapped gradient
//     all-reduce only.
//   - DeepSpeed: ZeRO-0/1/2/3 tuning with full recomputation.
//   - Aceso: parallelism + flexible per-stage checkpointing, no sharded
//     DP, no offloading; both its planner and its runtime are
//     overlap-unaware, so its plans are executed serialized.
//   - Alpa-style: parallelism-only with full recomputation and a
//     memory-unaware intra-op pass (may propose OOM plans; §6.1 notes it
//     finds no feasible solution on L4).
//   - Uniform heuristic (Yuan et al.): Mist's space with identical
//     knobs forced across stages.
//   - Mist: the full system.
package baselines

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/trainsim"
)

// Mist and Megatron are the two spaces of the headline comparison, under
// the names benchmarks/mistperf's quality probe uses.
var (
	Mist     = core.MistSpace
	Megatron = core.MegatronSpace
)

// Outcome is one (space, workload, cluster) evaluation.
type Outcome struct {
	System     string // Space.Name
	Tune       *core.Result
	Meas       trainsim.Measurement
	Throughput float64 // samples/sec as measured by the engine; 0 on OOM
	OOM        bool
}

// Run tunes the workload with the space and measures the chosen plan on
// the execution engine, in the space's execution mode. A plan that
// cannot be found (OOM across the whole space) yields
// Outcome{OOM: true} rather than an error.
func Run(w plan.Workload, cl *hardware.Cluster, space core.Space) (*Outcome, error) {
	tn, err := core.New(w, cl, space)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", space.Name, err)
	}
	res, err := tn.Tune()
	if errors.Is(err, core.ErrNoFeasiblePlan) {
		return &Outcome{System: space.Name, OOM: true}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", space.Name, err)
	}
	m, err := trainsim.New(w, cl, tn.An).Measure(res.Plan)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: measure: %w", space.Name, err)
	}
	out := &Outcome{System: space.Name, Tune: res, Meas: m, Throughput: m.Throughput}
	if m.OOM(cl.MemoryBudget()) {
		out.OOM = true
		out.Throughput = 0
	}
	return out, nil
}

// Compare runs several spaces on the same workload and returns the
// outcomes keyed by Space.Name.
func Compare(w plan.Workload, cl *hardware.Cluster, spaces []core.Space) (map[string]*Outcome, error) {
	out := make(map[string]*Outcome, len(spaces))
	for _, space := range spaces {
		o, err := Run(w, cl, space)
		if err != nil {
			return nil, err
		}
		out[space.Name] = o
	}
	return out, nil
}

// Speedup returns a/b measured throughput; 0 when either OOMed.
func Speedup(a, b *Outcome) float64 {
	if a == nil || b == nil || a.OOM || b.OOM || b.Throughput == 0 {
		return 0
	}
	return a.Throughput / b.Throughput
}
