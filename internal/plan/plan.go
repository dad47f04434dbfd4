// Package plan defines the training-plan representation shared by the
// tuner, the baselines and the execution engine: a workload (model,
// sequence length, FlashAttention, global batch size), and a full plan —
// gradient accumulation steps plus per-stage shapes and knobs (the
// paper's Table 2 variables).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/schedule"
)

// Workload fixes the training job being planned (one cell of Table 4).
type Workload struct {
	Model       model.Config
	Seq         int
	Flash       bool
	GlobalBatch int
}

// Validate checks workload invariants.
func (w Workload) Validate() error {
	if err := w.Model.Validate(); err != nil {
		return err
	}
	if w.Seq <= 0 || w.GlobalBatch <= 0 {
		return fmt.Errorf("plan: invalid workload seq=%d batch=%d", w.Seq, w.GlobalBatch)
	}
	return nil
}

// Stage is one pipeline stage of a plan.
type Stage struct {
	Shape schedule.StageShape
	Knobs schedule.Knobs
}

// Plan is a complete training configuration.
type Plan struct {
	GradAccum int
	Stages    []Stage
}

// NumStages returns the pipeline depth.
func (p *Plan) NumStages() int { return len(p.Stages) }

// Validate checks plan-wide invariants against the workload: layer counts
// sum to the model depth, samples per microbatch slot are consistent
// across stages, stage metadata (index, count, grad accum, pre/post) is
// coherent, and the global batch factorizes as b*dp*G on every stage.
func (p *Plan) Validate(w Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if p.GradAccum <= 0 {
		return fmt.Errorf("plan: grad accum %d", p.GradAccum)
	}
	if len(p.Stages) == 0 {
		return fmt.Errorf("plan: no stages")
	}
	layers := 0
	for i, s := range p.Stages {
		if err := s.Knobs.Validate(); err != nil {
			return fmt.Errorf("stage %d: %w", i, err)
		}
		if s.Knobs.Layers <= 0 {
			return fmt.Errorf("stage %d: zero layers", i)
		}
		layers += s.Knobs.Layers
		sh := s.Shape
		if sh.NumStages != len(p.Stages) || sh.StageIdx != i || sh.GradAccum != p.GradAccum {
			return fmt.Errorf("stage %d: inconsistent shape metadata %+v", i, sh)
		}
		if sh.HasPre != (i == 0) || sh.HasPost != (i == len(p.Stages)-1) {
			return fmt.Errorf("stage %d: pre/post flags wrong", i)
		}
		if sh.B*sh.DP*p.GradAccum != w.GlobalBatch {
			return fmt.Errorf("stage %d: b(%d)*dp(%d)*G(%d) != global batch %d",
				i, sh.B, sh.DP, p.GradAccum, w.GlobalBatch)
		}
	}
	if layers != w.Model.Layers {
		return fmt.Errorf("plan: stage layers sum to %d, model has %d", layers, w.Model.Layers)
	}
	return nil
}

// String renders a compact human-readable plan summary.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "G=%d S=%d", p.GradAccum, len(p.Stages))
	for i, s := range p.Stages {
		fmt.Fprintf(&sb, "\n  stage %d: L=%d b=%d dp=%d tp=%d zero=%d ckpt=%d",
			i, s.Knobs.Layers, s.Shape.B, s.Shape.DP, s.Shape.TP, s.Shape.ZeRO, s.Knobs.Ckpt)
		if s.Knobs.WO > 0 || s.Knobs.GO > 0 || s.Knobs.OO > 0 || s.Knobs.AO > 0 {
			fmt.Fprintf(&sb, " wo=%.2f go=%.2f oo=%.2f ao=%.2f",
				s.Knobs.WO, s.Knobs.GO, s.Knobs.OO, s.Knobs.AO)
		}
	}
	return sb.String()
}
