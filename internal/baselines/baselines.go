// Package baselines drives the comparison systems of the paper's
// evaluation (§6.1) through the shared tuner machinery and execution
// engine. Each baseline is a restriction of the search space plus,
// where the real system's runtime differs, an execution-mode flag:
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

// System names a search space. A space that is not overlap-aware also
// runs its plans serialized (Aceso's runtime).
type System struct {
	Name  string
	Space core.Space
}

// Mist is the full system.
func Mist() System { return System{Name: "mist", Space: core.MistSpace()} }

// Megatron is the manually grid-searched baseline.
func Megatron() System { return System{Name: "megatron-lm", Space: core.MegatronSpace()} }

// DeepSpeed is the ZeRO-tuning baseline.
func DeepSpeed() System { return System{Name: "deepspeed", Space: core.DeepSpeedSpace()} }

// Aceso is the automatic checkpoint-tuning baseline; overlap-unaware in
// both planning and execution.
func Aceso() System {
	return System{Name: "aceso", Space: core.AcesoSpace()}
}

// Uniform is the uniform-stage heuristic of §3.3.
func Uniform() System { return System{Name: "uniform", Space: core.UniformHeuristicSpace()} }

// Outcome is one (system, workload, cluster) evaluation.
type Outcome struct {
	System     string
	Tune       *core.Result
	Meas       trainsim.Measurement
	Throughput float64 // samples/sec as measured by the engine; 0 on OOM
	OOM        bool
}

// Run tunes the workload with the system's space and measures the chosen
// plan on the execution engine. A plan that cannot be found (OOM across
// the whole space) yields Outcome{OOM: true} rather than an error.
func Run(w plan.Workload, cl *hardware.Cluster, sys System) (*Outcome, error) {
	tn, err := core.New(w, cl, sys.Space)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", sys.Name, err)
	}
	res, err := tn.Tune()
	if errors.Is(err, core.ErrNoFeasiblePlan) {
		return &Outcome{System: sys.Name, OOM: true}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: %w", sys.Name, err)
	}
	eng := trainsim.New(w, cl, tn.An)
	eng.Serialize = !sys.Space.OverlapAware
	m, err := eng.Measure(res.Plan)
	if err != nil {
		return nil, fmt.Errorf("baselines: %s: measure: %w", sys.Name, err)
	}
	out := &Outcome{System: sys.Name, Tune: res, Meas: m, Throughput: m.Throughput}
	if m.OOM(cl.MemoryBudget()) {
		out.OOM = true
		out.Throughput = 0
	}
	return out, nil
}

// Compare runs several systems on the same workload and returns the
// outcomes keyed by system name.
func Compare(w plan.Workload, cl *hardware.Cluster, systems []System) (map[string]*Outcome, error) {
	out := make(map[string]*Outcome, len(systems))
	for _, sys := range systems {
		o, err := Run(w, cl, sys)
		if err != nil {
			return nil, err
		}
		out[sys.Name] = o
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
