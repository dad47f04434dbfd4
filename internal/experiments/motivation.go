package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
)

func init() {
	register("fig2", fig2)
	register("fig3", fig3)
	register("fig5", fig5)
}

// fig2 reproduces the motivational example of Figure 2: GPT-3 2.7B on
// 4 NVIDIA L4 GPUs, seq 4096, global batch 8. Each row tunes parallelism
// together with one family of memory optimizations; the paper reports
// speedups over the full-recomputation strategy of 1.22x (CKPT), 1.25x
// (ZeRO), 1.16x (offloading) and 1.30x (all tuned).
func fig2(scale Scale) (*Table, error) {
	w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 4096, Flash: true, GlobalBatch: 8}
	if scale == Small {
		w.Seq = 2048
	}
	cl := hardware.L4Cluster(1, 4)

	offload := core.ThreeDSpace()
	offload.Name = "tuned-offloading"
	offload.TuneWO, offload.TuneGO, offload.TuneOO, offload.TuneAO = true, true, true, true

	ckpt := core.ThreeDSpace()
	ckpt.Name = "tuned-ckpt"
	ckpt.TuneCkpt = true

	noOpt := core.ThreeDSpace()
	noOpt.Name = "no-ckpt"
	noOpt.TuneCkpt = true
	noOpt.CkptFractions = []float64{0}

	zero := core.DeepSpeedSpace()
	zero.Name = "tuned-zero"

	strategies := []core.Space{
		noOpt,              // (a) no memory optimization
		core.ThreeDSpace(), // (b) full CKPT
		ckpt,               // (c) CKPT tuned
		zero,               // (d) ZeRO tuned
		offload,            // (e) offloading tuned
		core.MistSpace(),   // (f) all tuned
	}
	t := &Table{
		Title:  "Figure 2: motivational example, GPT-3 2.7B on 4x L4 (speedup vs full CKPT)",
		Header: []string{"strategy", "throughput(samples/s)", "speedup", "plan"},
	}
	var baseline float64
	for _, space := range strategies {
		out, err := baselines.Run(w, cl, space)
		if err != nil {
			return nil, err
		}
		if out.OOM {
			t.Add(space.Name, "OOM", "-", "-")
			continue
		}
		if space.Name == core.ThreeDSpace().Name {
			baseline = out.Throughput
		}
		sp := "-"
		if baseline > 0 {
			sp = fmt.Sprintf("%.2fx", out.Throughput/baseline)
		}
		t.Add(space.Name, out.Throughput, sp, compactPlan(out.Tune.Plan))
	}
	t.Notes = append(t.Notes,
		"paper: no-opt OOMs; CKPT 1.22x, ZeRO 1.25x, offloading 1.16x, all-tuned 1.30x over full CKPT")
	return t, nil
}

// fig3 reproduces Figure 3: GPT-3 7B on 8 L4 GPUs, global batch 512.
// Tuning only activation checkpointing picks a deep pipeline with severe
// bubbles; comprehensive co-optimization trades offloaded memory for a
// shallower pipeline (paper: 1.22x over parallelism-only, 1.11x over
// parallelism+CKPT).
func fig3(scale Scale) (*Table, error) {
	w := plan.Workload{Model: model.MustByName("gpt3-7b"), Seq: 2048, Flash: true, GlobalBatch: 512}
	cl := hardware.L4Cluster(1, 8)
	if scale == Small {
		w.GlobalBatch = 64
	}
	strategies := []core.Space{core.ThreeDSpace(), threeDCkptSpace(), core.MistSpace()}

	t := &Table{
		Title:  "Figure 3: comprehensive co-optimization, GPT-3 7B on 8x L4",
		Header: []string{"space", "throughput", "speedup", "S", "bubble", "plan"},
	}
	var base float64
	for _, space := range strategies {
		out, err := baselines.Run(w, cl, space)
		if err != nil {
			return nil, err
		}
		if out.OOM {
			t.Add(space.Name, "OOM", "-", "-", "-", "-")
			continue
		}
		if base == 0 {
			base = out.Throughput
		}
		t.Add(space.Name, out.Throughput, fmt.Sprintf("%.2fx", out.Throughput/base),
			out.Tune.Plan.NumStages(), fmt.Sprintf("%.1f%%", 100*out.Meas.Bubble),
			compactPlan(out.Tune.Plan))
	}
	t.Notes = append(t.Notes,
		"paper: co-optimization reduces PP depth and bubbles; 1.22x over 3D, 1.11x over 3D+CKPT")
	return t, nil
}

// threeDCkptSpace is 3D parallelism with flexible checkpointing tuned
// and nothing else: the "3D+CKPT" series of Figures 3 and 14 and a
// §6.6 accuracy space.
func threeDCkptSpace() core.Space {
	s := core.ThreeDSpace()
	s.Name = "3d+ckpt"
	s.TuneCkpt = true
	return s
}

// compactPlan renders a one-line plan summary.
func compactPlan(p *plan.Plan) string {
	if p == nil {
		return "-"
	}
	s := p.Stages[0]
	uniform := true
	for _, st := range p.Stages[1:] {
		if st.Knobs != s.Knobs || st.Shape.TP != s.Shape.TP || st.Shape.DP != s.Shape.DP {
			uniform = false
			break
		}
	}
	desc := fmt.Sprintf("G=%d S=%d dp=%d tp=%d b=%d zero=%d ckpt=%d/%d",
		p.GradAccum, len(p.Stages), s.Shape.DP, s.Shape.TP, s.Shape.B, s.Shape.ZeRO,
		s.Knobs.Ckpt, s.Knobs.Layers)
	if s.Knobs.WO+s.Knobs.GO+s.Knobs.OO+s.Knobs.AO > 0 {
		desc += fmt.Sprintf(" off[w%.2g g%.2g o%.2g a%.2g]", s.Knobs.WO, s.Knobs.GO, s.Knobs.OO, s.Knobs.AO)
	}
	if !uniform {
		desc += " (per-stage heterogenous)"
	}
	return desc
}
