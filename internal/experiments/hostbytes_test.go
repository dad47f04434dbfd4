package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/trainsim"
)

// TestFig11HostBytesPerNode reproduces the host-bytes table of the
// tuned Fig. 11 L4 plans (seq 2048, FlashAttention on): the host RAM a
// node's GPUs offload into, as trainsim.Measurement reports it per node
// (HostStates, HostStash), which no verdict of this repository bounds
// yet. The table is the mean over nodes in 10⁹ bytes, rounded. The
// plans' (S, G, ZeRO, offload) signatures and the fullest node's bytes
// are pinned beside it
// (the 22B plan's four nodes differ: stage 0 holds the most stashes), so
// a plan change shows as such. When the analyzer learns host memory
// (ROADMAP 1 (b)) the plans move, and this table is regenerated with
// them.
func TestFig11HostBytesPerNode(t *testing.T) {
	for _, c := range []struct {
		model         string
		gpus, batch   int
		signature     string
		states, stash float64    // GB per node, mean over nodes
		busiest       [2]float64 // GB states, stash of the fullest node
	}{
		{"gpt3-1.3b", 2, 32, "S=1 G=2 | ZeRO-3 dp2 tp1 0/1/1/0.5", 20, 26, [2]float64{20, 26}},
		{"gpt3-2.7b", 4, 64, "S=1 G=4 | ZeRO-2 dp4 tp1 0/1/1/0.5", 39, 43, [2]float64{39, 43}},
		{"gpt3-7b", 8, 128, "S=1 G=1 | ZeRO-0 dp8 tp1 1/1/1/1", 880, 1100, [2]float64{880, 1100}},
		{"gpt3-13b", 16, 256, "S=1 G=1 | ZeRO-0 dp16 tp1 1/1/1/1", 1679, 107, [2]float64{1679, 107}},
		{"gpt3-22b", 32, 512, "S=4 G=16 | ZeRO-2 dp8 tp1 0/1/0.5/1 | ZeRO-2 dp8 tp1 0/1/0/1 | ZeRO-2 dp8 tp1 0/1/0/1 | ZeRO-2 dp8 tp1 0/1/0.5/1", 28, 387, [2]float64{46, 618}},
		{"llama-7b", 8, 128, "S=1 G=1 | ZeRO-0 dp8 tp1 0.5/1/1/1", 809, 1104, [2]float64{809, 1104}},
		{"falcon-7b", 8, 128, "S=1 G=1 | ZeRO-0 dp8 tp1 1/1/1/1", 893, 962, [2]float64{893, 962}},
	} {
		cl, seq, err := hardware.ClusterByName("l4", c.gpus)
		if err != nil {
			t.Fatal(err)
		}
		w := plan.Workload{Model: model.MustByName(c.model), Seq: seq, Flash: true, GlobalBatch: c.batch}
		tu, err := core.New(w, cl, core.MistSpace())
		if err != nil {
			t.Fatal(err)
		}
		res, err := tu.Tune()
		if err != nil {
			t.Fatal(err)
		}
		m, err := trainsim.New(w, cl, tu.An).Measure(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		states, stash := m.HostStates, m.HostStash
		if len(states) != cl.Nodes {
			t.Fatalf("%s: host bytes for %d nodes, want %d", c.model, len(states), cl.Nodes)
		}
		var sumStates, sumStash float64
		var busiest [2]float64
		for n := range states {
			sumStates += states[n]
			sumStash += stash[n]
			if states[n]+stash[n] > 1e9*(busiest[0]+busiest[1]) {
				busiest = [2]float64{states[n] / 1e9, stash[n] / 1e9}
			}
		}
		gotStates := math.Round(sumStates / float64(cl.Nodes) / 1e9)
		gotStash := math.Round(sumStash / float64(cl.Nodes) / 1e9)
		sig := fmt.Sprintf("S=%d G=%d", res.Plan.NumStages(), res.Plan.GradAccum)
		for _, st := range res.Plan.Stages {
			k := st.Knobs
			sig += fmt.Sprintf(" | ZeRO-%d dp%d tp%d %g/%g/%g/%g", st.Shape.ZeRO, st.Shape.DP, st.Shape.TP, k.WO, k.GO, k.OO, k.AO)
		}
		busiest = [2]float64{math.Round(busiest[0]), math.Round(busiest[1])}
		if sig != c.signature {
			t.Errorf("%s: tuned plan %q, want %q", c.model, sig, c.signature)
		}
		if gotStates != c.states || gotStash != c.stash {
			t.Errorf("%s: %v / %v GB per node, want %v / %v", c.model, gotStates, gotStash, c.states, c.stash)
		}
		if busiest != c.busiest {
			t.Errorf("%s: fullest node holds %v GB, want %v", c.model, busiest, c.busiest)
		}
	}
}
