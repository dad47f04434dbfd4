package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/schedule"
)

// TestFig11HostBytesPerNode reproduces the host-bytes table of the
// tuned Fig. 11 L4 plans (seq 2048, FlashAttention on): the host RAM a
// node's GPUs offload into, which no model of this repository bounds
// yet. For each device:
//
//   - states = ModelStates at zero offload − ModelStates at the plan's
//     ratios;
//   - stash = (ActPerMB at zero offload − ActPerMB at the plan's ratios)
//     × the stage's in-flight depth in its 1F1B order.
//
// Both come from Analyzer.Channels and are summed over the devices a
// node holds, stages packed onto devices contiguously; the table is the
// mean over nodes in 10⁹ bytes, rounded. The plans' (S, G, ZeRO,
// offload) signatures and the fullest node's bytes are pinned beside it
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
		states, stash, sig := hostBytes(t, tu.An, cl, res.Plan)
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

// hostBytes returns, per node of cl, the host RAM plan p's GPUs offload
// into — model states and activation stash, in bytes, as
// TestFig11HostBytesPerNode defines them — and the plan's (S, G, ZeRO,
// offload) signature.
func hostBytes(t *testing.T, an *schedule.Analyzer, cl *hardware.Cluster, p *plan.Plan) (states, stash []float64, sig string) {
	t.Helper()
	states = make([]float64, cl.Nodes)
	stash = make([]float64, cl.Nodes)
	order := pipeline.OneFOneB(len(p.Stages), p.GradAccum)
	dev := 0
	sig = fmt.Sprintf("S=%d G=%d", len(p.Stages), p.GradAccum)
	for i, st := range p.Stages {
		at, err := an.Channels(st.Shape, st.Knobs)
		if err != nil {
			t.Fatal(err)
		}
		none := st.Knobs
		none.WO, none.GO, none.OO, none.AO = 0, 0, 0, 0
		zero, err := an.Channels(st.Shape, none)
		if err != nil {
			t.Fatal(err)
		}
		inFlight := float64(pipeline.InFlight(order[i]))
		for range st.Shape.DP * st.Shape.TP {
			node := dev / cl.GPUsPerNode
			states[node] += zero.ModelStates - at.ModelStates
			stash[node] += (zero.ActPerMB - at.ActPerMB) * inFlight
			dev++
		}
		k := st.Knobs
		sig += fmt.Sprintf(" | ZeRO-%d dp%d tp%d %g/%g/%g/%g", st.Shape.ZeRO, st.Shape.DP, st.Shape.TP, k.WO, k.GO, k.OO, k.AO)
	}
	return states, stash, sig
}
