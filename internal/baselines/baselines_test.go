package baselines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trainsim"
)

func testWorkload(name string, batch int) plan.Workload {
	return plan.Workload{Model: model.MustByName(name), Seq: 2048, Flash: true, GlobalBatch: batch}
}

func TestRunMegatron(t *testing.T) {
	cl := hardware.L4Cluster(1, 2)
	o, err := Run(testWorkload("gpt3-1.3b", 8), cl, Megatron())
	if err != nil {
		t.Fatal(err)
	}
	if o.OOM || o.Throughput <= 0 {
		t.Fatalf("megatron outcome %+v", o)
	}
}

func TestMistBeatsBaselinesMeasured(t *testing.T) {
	// The headline claim (C1/C2) in miniature: measured throughput of
	// Mist's plan is at least that of every baseline's plan on a
	// memory-pressured L4 workload.
	cl := hardware.L4Cluster(1, 4)
	w := testWorkload("gpt3-2.7b", 16)
	spaces := []core.Space{core.MistSpace(), core.MegatronSpace(), core.DeepSpeedSpace(), core.AcesoSpace()}
	out, err := Compare(w, cl, spaces)
	if err != nil {
		t.Fatal(err)
	}
	mist := out["mist"]
	if mist.OOM {
		t.Fatal("mist OOMed")
	}
	for _, name := range []string{"megatron", "deepspeed", "aceso"} {
		o := out[name]
		if o.OOM {
			continue // baseline found no feasible plan: Mist wins by default
		}
		if sp := Speedup(mist, o); sp < 0.999 {
			t.Errorf("mist vs %s speedup %.3f < 1.0 (mist %.3f, %s %.3f)",
				name, sp, mist.Throughput, name, o.Throughput)
		}
	}
}

func TestAcesoSerializedExecution(t *testing.T) {
	// Aceso's runtime is overlap-unaware: the engine built on its
	// space's analyzer must run a plan with communication to hide (DP=2,
	// so a gradient all-reduce beside the backward) strictly slower than
	// the engine built on Mist's.
	cl := hardware.L4Cluster(1, 2)
	w := testWorkload("gpt3-1.3b", 8)
	layers := w.Model.Layers
	p := &plan.Plan{GradAccum: 2, Stages: []plan.Stage{{
		Shape: schedule.StageShape{B: 2, DP: 2, TP: 1, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 2},
		Knobs: schedule.Knobs{Layers: layers, Ckpt: layers},
	}}}
	measure := func(space core.Space) trainsim.Measurement {
		an, err := core.CalibratedAnalyzer(w, cl, space)
		if err != nil {
			t.Fatal(err)
		}
		m, err := trainsim.New(w, cl, an).Measure(p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serialized, overlapped := measure(core.AcesoSpace()), measure(core.MistSpace())
	if !(overlapped.IterTime < serialized.IterTime) {
		t.Errorf("overlapped iteration %.4fs should be shorter than serialized %.4fs",
			overlapped.IterTime, serialized.IterTime)
	}
}

func TestSpeedupEdgeCases(t *testing.T) {
	a := &Outcome{Throughput: 2}
	b := &Outcome{Throughput: 1}
	if Speedup(a, b) != 2 {
		t.Error("speedup wrong")
	}
	if Speedup(a, &Outcome{OOM: true}) != 0 || Speedup(nil, b) != 0 {
		t.Error("OOM/nil speedup should be 0")
	}
}
