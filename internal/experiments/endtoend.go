package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/trainsim"
)

func init() {
	register("fig11", fig11)
	register("fig12", fig12)
	register("fig13", fig13)
	register("fig14", fig14)
	register("fig15", fig15)
}

// sizePoint is one column of Figures 11/12: model size, GPU count and
// global batch scale together (paper §6.1 methodology).
type sizePoint struct {
	size  string
	gpus  int
	batch int
}

func paperSizes() []sizePoint {
	return []sizePoint{
		{"1.3b", 2, 32}, {"2.7b", 4, 64}, {"7b", 8, 128}, {"13b", 16, 256}, {"22b", 32, 512},
	}
}

func smallSizes() []sizePoint {
	return []sizePoint{{"1.3b", 2, 32}, {"2.7b", 4, 64}}
}

// endToEnd runs one Figure 11/12-style sweep.
func endToEnd(title string, families []string, platforms []string, flash bool,
	systems []baselines.System, sizes []sizePoint) (*Table, error) {
	t := &Table{Title: title, Header: []string{"platform", "model", "gpus", "batch"}}
	for _, sys := range systems {
		t.Header = append(t.Header, sys.Name)
	}
	t.Header = append(t.Header, "mist-speedup")
	for _, platform := range platforms {
		for _, fam := range families {
			for _, pt := range sizes {
				cl, seq, err := hardware.ClusterByName(platform, pt.gpus)
				if err != nil {
					return nil, err
				}
				name := fam + "-" + pt.size
				cfg, err := model.ByName(name)
				if err != nil {
					return nil, err
				}
				w := plan.Workload{Model: cfg, Seq: seq, Flash: flash, GlobalBatch: pt.batch}
				row := []interface{}{platform, name, pt.gpus, pt.batch}
				var mist, bestBase float64
				for _, sys := range systems {
					out, err := baselines.Run(w, cl, sys)
					if err != nil {
						return nil, err
					}
					if out.OOM {
						row = append(row, "OOM")
						continue
					}
					row = append(row, out.Throughput)
					if sys.Name == baselines.Mist().Name {
						mist = out.Throughput
					} else if out.Throughput > bestBase {
						bestBase = out.Throughput
					}
				}
				if mist > 0 && bestBase > 0 {
					row = append(row, fmt.Sprintf("%.2fx", mist/bestBase))
				} else {
					row = append(row, "-")
				}
				t.Add(row...)
			}
		}
	}
	return t, nil
}

// fig11 reproduces the Figure 11 end-to-end comparison (FlashAttention
// enabled): Mist vs Megatron-LM and DeepSpeed over GPT-3/LLaMA/Falcon at
// the paper's size/GPU/batch grid. The paper reports Mist at 1.32x avg
// over Megatron on L4 and 1.34x on A100, with larger wins for LLaMA.
func fig11(scale Scale) (*Table, error) {
	families := []string{"gpt3", "llama", "falcon"}
	platforms := []string{"l4", "a100"}
	sizes := paperSizes()
	if scale == Small {
		families = []string{"gpt3", "llama"}
		platforms = []string{"l4"}
		sizes = smallSizes()
	}
	systems := []baselines.System{baselines.Megatron(), baselines.DeepSpeed(), baselines.Mist()}
	t, err := endToEnd("Figure 11: end-to-end throughput with FlashAttention (samples/s)",
		families, platforms, true, systems, sizes)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: Mist 1.32x avg (up to 1.59x) over Megatron-LM on L4; 1.34x avg (up to 1.72x) on A100; DeepSpeed mostly below Megatron")
	return t, nil
}

// fig12 reproduces Figure 12 (no FlashAttention, GPT-3 only) including
// the Aceso baseline, whose overlap-unaware planner and runtime leave it
// below Megatron-LM in many cases (paper: Mist 1.27x avg over Aceso, up
// to 2.04x).
func fig12(scale Scale) (*Table, error) {
	platforms := []string{"l4", "a100"}
	sizes := paperSizes()
	if scale == Small {
		platforms = []string{"l4"}
		sizes = smallSizes()
	}
	systems := []baselines.System{
		baselines.Megatron(), baselines.DeepSpeed(), baselines.Aceso(), baselines.Mist(),
	}
	t, err := endToEnd("Figure 12: end-to-end throughput without FlashAttention (GPT-3, samples/s)",
		[]string{"gpt3"}, platforms, false, systems, sizes)
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"paper: Mist 1.14x avg over Megatron-LM and 1.27x avg (up to 2.04x) over Aceso; Aceso often below Megatron due to missing overlap and sharded DP")
	return t, nil
}

// fig13 reproduces the speedup breakdown (Figure 13): the search space is
// enlarged rung by rung and the measured throughput of the chosen plan is
// normalized to the 3D-parallelism rung. Paper (GPT on 8/16/32 L4):
// 1.00 -> 1.03 (+ZeRO) -> 1.12 (+CKPT) -> 1.19 (+offload) -> 1.28
// (+imbalance-aware pipelining).
func fig13(scale Scale) (*Table, error) {
	type cell struct {
		name  string
		gpus  int
		batch int
	}
	cells := []cell{{"gpt3-7b", 8, 128}, {"gpt3-13b", 16, 256}, {"gpt3-22b", 32, 512}}
	if scale == Small {
		cells = []cell{{"gpt3-2.7b", 4, 32}}
	}
	ladder := core.BreakdownLadder()
	t := &Table{
		Title:  "Figure 13: speedup breakdown over incremental search spaces (relative throughput)",
		Header: []string{"space"},
	}
	for _, c := range cells {
		t.Header = append(t.Header, fmt.Sprintf("%s@%d", c.name, c.gpus))
	}
	t.Header = append(t.Header, "avg")

	results := make([][]float64, len(ladder))
	for ci, c := range cells {
		cl, seq, err := hardware.ClusterByName("l4", c.gpus)
		if err != nil {
			return nil, err
		}
		w := plan.Workload{Model: model.MustByName(c.name), Seq: seq, Flash: true, GlobalBatch: c.batch}
		var base float64
		for li, space := range ladder {
			out, err := baselines.Run(w, cl, baselines.System{Name: space.Name, Space: space})
			if err != nil {
				return nil, err
			}
			if results[li] == nil {
				results[li] = make([]float64, len(cells))
			}
			if out.OOM {
				continue
			}
			if li == 0 {
				base = out.Throughput
			}
			if base > 0 {
				results[li][ci] = out.Throughput / base
			}
		}
	}
	for li, space := range ladder {
		row := []interface{}{space.Name}
		sum, n := 0.0, 0
		for _, v := range results[li] {
			if v > 0 {
				row = append(row, fmt.Sprintf("%.2fx", v))
				sum += v
				n++
			} else {
				row = append(row, "OOM")
			}
		}
		if n > 0 {
			row = append(row, fmt.Sprintf("%.2fx", sum/float64(n)))
		} else {
			row = append(row, "-")
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"paper averages: 1.00 / 1.03 / 1.12 / 1.19 / 1.28 (each rung adds options, so the trend must be non-decreasing)")
	return t, nil
}

// fig14 reproduces the layer-count sensitivity study (Figure 14): GPT-3
// with 32-80 layers on 32 L4 GPUs, with and without FlashAttention,
// comparing 3D parallelism, 3D+CKPT tuning, and Mist. Paper: Mist up to
// 1.32x at 80 layers.
func fig14(scale Scale) (*Table, error) {
	layerGrid := []int{32, 48, 64, 80}
	gpus := 32
	batch := 256
	baseModel := "gpt3-22b"
	if scale == Small {
		layerGrid = []int{16, 32}
		gpus = 4
		batch = 32
		baseModel = "gpt3-2.7b"
	}
	ckptOnly := core.ThreeDSpace()
	ckptOnly.Name = "3d+ckpt"
	ckptOnly.TuneCkpt = true
	spaces := []core.Space{core.ThreeDSpace(), ckptOnly, core.MistSpace()}

	t := &Table{
		Title:  "Figure 14: sensitivity to model depth (throughput, relative to 3D)",
		Header: []string{"flash", "#layers", "3d(samples/s)", "3d+ckpt", "mist"},
	}
	for _, flash := range []bool{false, true} {
		for _, layers := range layerGrid {
			cl, seq, err := hardware.ClusterByName("l4", gpus)
			if err != nil {
				return nil, err
			}
			cfg := model.MustByName(baseModel).WithLayers(layers)
			w := plan.Workload{Model: cfg, Seq: seq, Flash: flash, GlobalBatch: batch}
			row := []interface{}{flash, layers}
			var base float64
			for _, space := range spaces {
				out, err := baselines.Run(w, cl, baselines.System{Name: space.Name, Space: space})
				if err != nil {
					return nil, err
				}
				if out.OOM {
					row = append(row, "OOM")
					continue
				}
				if base == 0 {
					base = out.Throughput
					row = append(row, out.Throughput)
				} else {
					row = append(row, fmt.Sprintf("%.2fx", out.Throughput/base))
				}
			}
			t.Add(row...)
		}
	}
	t.Notes = append(t.Notes,
		"paper: Mist 1.17-1.32x over 3D; CKPT-only tuning fades as depth grows while the full space keeps the gain")
	return t, nil
}

// fig15 reproduces the global-batch sensitivity study (Figure 15):
// GPT-3 22B on 32 L4 GPUs over batches 256-2048, comparing 3D
// parallelism, Mist without imbalance-aware pipelining, and full Mist.
// Paper: Mist 1.28-1.35x over 3D, with imbalance awareness contributing
// ~1.13x on average.
func fig15(scale Scale) (*Table, error) {
	batches := []int{256, 512, 1024, 2048}
	gpus := 32
	name := "gpt3-22b"
	if scale == Small {
		batches = []int{32, 64}
		gpus = 4
		name = "gpt3-2.7b"
	}
	noImb := core.MistSpace()
	noImb.Name = "mist-no-imbalance"
	noImb.ImbalanceAware = false
	spaces := []core.Space{core.ThreeDSpace(), noImb, core.MistSpace()}

	t := &Table{
		Title:  "Figure 15: sensitivity to global batch size (relative throughput)",
		Header: []string{"batch", "3d(samples/s)", "mist-no-imbalance", "mist"},
	}
	cl, seq, err := hardware.ClusterByName("l4", gpus)
	if err != nil {
		return nil, err
	}
	for _, b := range batches {
		w := plan.Workload{Model: model.MustByName(name), Seq: seq, Flash: true, GlobalBatch: b}
		row := []interface{}{b}
		var base float64
		for _, space := range spaces {
			out, err := baselines.Run(w, cl, baselines.System{Name: space.Name, Space: space})
			if err != nil {
				return nil, err
			}
			if out.OOM {
				row = append(row, "OOM")
				continue
			}
			if base == 0 {
				base = out.Throughput
				row = append(row, out.Throughput)
			} else {
				row = append(row, fmt.Sprintf("%.2fx", out.Throughput/base))
			}
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"paper: Mist 1.28-1.35x over 3D; dropping imbalance awareness costs ~1.13x on average")
	return t, nil
}

// measureBest is a helper used by tests: tune with a space, then measure.
func measureBest(w plan.Workload, cl *hardware.Cluster, space core.Space) (float64, error) {
	tn, err := core.New(w, cl, space)
	if err != nil {
		return 0, err
	}
	res, err := tn.Tune()
	if err != nil {
		return 0, err
	}
	m, err := trainsim.New(w, cl, tn.An).Measure(res.Plan)
	if err != nil {
		return 0, err
	}
	return m.Throughput, nil
}
