package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
)

func init() {
	register("table1", table1)
	register("table3", table3)
	register("table4", table4)
}

// table1 renders the capability matrix of Table 1 directly from the
// implemented search spaces, so the table cannot drift from the code.
func table1(Scale) (*Table, error) {
	spaces := []core.Space{
		core.MegatronSpace(), core.DeepSpeedSpace(), core.AcesoSpace(),
		core.UniformHeuristicSpace(), core.MistSpace(),
	}
	t := &Table{
		Title: "Table 1: capability comparison (derived from the implemented spaces)",
		Header: []string{"system", "DP/TP/PP", "offload P", "offload G", "offload O", "offload A",
			"ZeRO-2/3", "flexible CKPT", "overlap-aware", "imbalance-aware", "per-stage"},
	}
	yn := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, sp := range spaces {
		zero23 := false
		for _, z := range sp.ZeROLevels {
			if z >= 2 {
				zero23 = true
			}
		}
		t.Add(sp.Name, "yes", yn(sp.TuneWO), yn(sp.TuneGO), yn(sp.TuneOO), yn(sp.TuneAO),
			yn(zero23), yn(sp.TuneCkpt), yn(sp.OverlapAware), yn(sp.ImbalanceAware),
			yn(!sp.UniformStages))
	}
	t.Notes = append(t.Notes,
		"paper Table 1: only Mist supports all offload kinds, ZeRO-2/3, and tunes everything per stage")
	return t, nil
}

// table3 prints the modelled hardware platforms (Table 3).
func table3(Scale) (*Table, error) {
	t := &Table{
		Title: "Table 3: hardware platforms (as modelled)",
		Header: []string{"platform", "GPU", "memory", "fp16 TFLOPS", "HBM GB/s",
			"intra-node", "inter-node", "host link"},
	}
	for _, p := range []struct {
		name string
		cl   *hardware.Cluster
	}{
		{"GCP G2 (PCIe)", hardware.L4Cluster(4, 8)},
		{"AWS p4d (NVLink)", hardware.A100Cluster(4, 8)},
	} {
		g := p.cl.GPU
		t.Add(p.name, g.Name,
			fmt.Sprintf("%d GB", g.MemoryBytes>>30),
			fmt.Sprintf("%.0f", g.PeakFP16FLOPS/1e12),
			fmt.Sprintf("%.0f", g.MemBandwidth/1e9),
			linkDesc(p.cl.IntraNode), linkDesc(p.cl.InterNode), linkDesc(p.cl.HostLink))
	}
	return t, nil
}

func linkDesc(l hardware.Link) string {
	return fmt.Sprintf("%s@%.1fGB/s", l.Name, l.Bandwidth/1e9)
}

// table4 prints the workload grid (Table 4) with derived parameter
// counts, confirming the catalog matches the paper's size labels.
func table4(Scale) (*Table, error) {
	t := &Table{
		Title:  "Table 4: workloads (catalog-derived)",
		Header: []string{"model", "family", "layers", "hidden", "heads", "ffn", "vocab", "params"},
	}
	for _, name := range model.Names() {
		if strings.HasSuffix(name, "-40b") {
			continue // used only by the §6.3 discussion
		}
		c := model.MustByName(name)
		t.Add(name, c.Family.String(), c.Layers, c.Hidden, c.Heads, c.FFNHidden, c.Vocab,
			fmt.Sprintf("%.1fB", float64(c.TotalParams())/1e9))
	}
	t.Notes = append(t.Notes,
		"paper: GPT/LLaMA/Falcon at {1.3, 2.6, 6.7, 13, 22}B; global batch 32-512; seq 2048 (L4) / 4096 (A100)")
	return t, nil
}
