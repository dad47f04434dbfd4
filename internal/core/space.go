// Package core implements Mist's imbalance-aware hierarchical auto-tuner
// (paper §5.3): intra-stage tuning brute-forces parallelism and memory-
// optimization combinations with batched symbolic evaluation and samples
// the (t, d) Pareto frontier via the dual-objective α sweep (Eq. 4);
// inter-stage tuning selects the layer partition, the device split and
// the per-stage Pareto points by solving Eq. 2 (an exact DP; the MILP as
// the paper writes it is kept behind Tuner.UseMILP). There is one of
// each: one (S, G) sweep whose per-stage device counts are a list of one
// unless the space assigns devices heterogeneously, one DP whose device
// dimension then has size one, and one pricing path: every search prices
// through the Tuner's evaluation cache (evalcache.Cache). A Tuner is
// configuration only and a search is a value: the incumbent travels to
// each (S, G) pair by value and each pair returns its counts, so searches
// may share a tuner. Search-space knobs allow the same machinery to
// emulate the baselines and the Figure 13 ablation ladder.
package core

import (
	"fmt"
	"strings"
)

// Space selects which optimizations the tuner may use. The zero value is
// the most restricted (3D-parallelism-only) space; MistSpace enables
// everything.
type Space struct {
	Name string

	// TuneCkpt allows per-stage flexible activation checkpointing; when
	// false every layer is recomputed (full CKPT, the Megatron/Alpa
	// default that avoids OOM).
	TuneCkpt bool

	// ZeROLevels lists the allowed ZeRO levels (always include 0).
	ZeROLevels []int

	// Offloading toggles (Table 1 columns P, G, O, A): each enabled ratio
	// is swept over {0, ½, 1} (schedule.Analyzer.KnobGrid).
	TuneWO, TuneGO, TuneOO, TuneAO bool

	// ImbalanceAware selects the Eq. 1 objective; false uses the averaged
	// objective of prior planners (Shortcoming #3 ablation).
	ImbalanceAware bool

	// OverlapAware models computation-communication overlap; false
	// serializes all channels (Shortcoming #1, Aceso-style).
	OverlapAware bool

	// UniformStages forces identical knobs on every pipeline stage (the
	// Yuan et al. heuristic of §3.3).
	UniformStages bool

	// ParetoSamples is the number of (t, d) points sampled per frontier
	// (the f index of Eq. 3). Zero means a default of 5.
	ParetoSamples int

	// CkptFractions is the grid of ckpt/layers fractions swept when
	// TuneCkpt is on. Empty means {0, 1/4, 1/2, 3/4, 1}.
	CkptFractions []float64

	// HeterogeneousDevices lets stages receive different device counts
	// (the paper's per-stage (n_i, m_i) assignment, Table 2). Off, every
	// stage gets TotalGPUs/S devices; on, the inter-stage solver also
	// partitions the devices, at a tuning-time cost.
	HeterogeneousDevices bool
}

var (
	fullCkpt     = []float64{1} // full recomputation
	defaultFracs = []float64{0, 0.25, 0.5, 0.75, 1}
)

func (s Space) ckptFractions() []float64 {
	if !s.TuneCkpt {
		return fullCkpt
	}
	if len(s.CkptFractions) == 0 {
		return defaultFracs
	}
	return s.CkptFractions
}

func (s Space) paretoSamples() int {
	if s.ParetoSamples <= 0 {
		return 5
	}
	return s.ParetoSamples
}

func (s Space) zeroLevels() []int {
	if len(s.ZeROLevels) == 0 {
		return []int{0}
	}
	return s.ZeROLevels
}

// MistSpace is the full search space of the paper's system.
func MistSpace() Space {
	return Space{
		Name:     "mist",
		TuneCkpt: true, ZeROLevels: []int{0, 1, 2, 3},
		TuneWO: true, TuneGO: true, TuneOO: true, TuneAO: true,
		ImbalanceAware: true, OverlapAware: true,
	}
}

// ThreeDSpace is DP+TP+PP with full recomputation (the Megatron-LM search
// space of Figure 13's baseline rung).
func ThreeDSpace() Space {
	return Space{Name: "3d", ZeROLevels: []int{0}, ImbalanceAware: true, OverlapAware: true}
}

// MegatronSpace emulates the grid-searched manual baseline: 3D parallelism
// with full recomputation and ZeRO-1-style distributed optimizer.
func MegatronSpace() Space {
	return Space{Name: "megatron", ZeROLevels: []int{0, 1}, ImbalanceAware: true, OverlapAware: true}
}

// DeepSpeedSpace emulates DeepSpeed: ZeRO-0/1/2/3 tuning with full
// recomputation, no offload tuning.
func DeepSpeedSpace() Space {
	return Space{Name: "deepspeed", ZeROLevels: []int{0, 1, 2, 3}, ImbalanceAware: true, OverlapAware: true}
}

// AcesoSpace emulates Aceso: flexible per-stage checkpointing but no
// sharded data parallelism, no offloading, and no overlap awareness
// (its planner serializes communication; §6.2 notes it misses sharded DP
// and overlap opportunities).
func AcesoSpace() Space {
	return Space{
		Name: "aceso", TuneCkpt: true, ZeROLevels: []int{0},
		ImbalanceAware: false, OverlapAware: false,
	}
}

// UniformHeuristicSpace is the full space with the uniform-stage
// restriction of Yuan et al. (§3.3).
func UniformHeuristicSpace() Space {
	s := MistSpace()
	s.Name = "uniform"
	s.UniformStages = true
	return s
}

// spaces is the one table of search-space names: each constructor above
// under the name it puts in Space.Name.
var spaces = []struct {
	name  string
	build func() Space
}{
	{"mist", MistSpace},
	{"megatron", MegatronSpace},
	{"deepspeed", DeepSpeedSpace},
	{"aceso", AcesoSpace},
	{"3d", ThreeDSpace},
	{"uniform", UniformHeuristicSpace},
}

// SpaceByName returns the named search space (any case).
func SpaceByName(name string) (Space, error) {
	for _, s := range spaces {
		if strings.EqualFold(s.name, name) {
			return s.build(), nil
		}
	}
	return Space{}, fmt.Errorf("unknown search space %q", name)
}

// BreakdownLadder returns the incremental spaces of Figure 13, in order:
// 3D parallelism -> +ZeRO-2/3 -> +flexible CKPT -> +offloading ->
// +imbalance-aware pipelining.
func BreakdownLadder() []Space {
	threeD := ThreeDSpace()
	threeD.ImbalanceAware = false

	zero := threeD
	zero.Name = "3d+zero"
	zero.ZeROLevels = []int{0, 1, 2, 3}

	ckpt := zero
	ckpt.Name = "3d+zero+ckpt"
	ckpt.TuneCkpt = true

	off := ckpt
	off.Name = "3d+zero+ckpt+offload"
	off.TuneWO, off.TuneGO, off.TuneOO, off.TuneAO = true, true, true, true

	full := off
	full.Name = "mist"
	full.ImbalanceAware = true

	return []Space{threeD, zero, ckpt, off, full}
}
