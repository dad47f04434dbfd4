package baselines

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
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
	systems := []System{Mist(), Megatron(), DeepSpeed(), Aceso()}
	out, err := Compare(w, cl, systems)
	if err != nil {
		t.Fatal(err)
	}
	mist := out["mist"]
	if mist.OOM {
		t.Fatal("mist OOMed")
	}
	for _, name := range []string{"megatron-lm", "deepspeed", "aceso"} {
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
	// Aceso's measured throughput suffers from its overlap-unaware
	// runtime: executing the *same* plan without serialization must be
	// at least as fast.
	cl := hardware.L4Cluster(1, 2)
	w := testWorkload("gpt3-1.3b", 8)
	o1, err := Run(w, cl, Aceso())
	if err != nil {
		t.Fatal(err)
	}
	if o1.OOM {
		t.Skip("aceso plan OOMed")
	}
	an, err := core.CalibratedAnalyzer(w, cl, core.AcesoSpace())
	if err != nil {
		t.Fatal(err)
	}
	eng := trainsim.New(w, cl, an)
	eng.Serialize = false
	m2, err := eng.Measure(o1.Tune.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if m2.OOM(cl.MemoryBudget()) {
		t.Skip("aceso plan OOMed")
	}
	if m2.Throughput < o1.Throughput-1e-9 {
		t.Errorf("overlapped execution %.3f should be >= serialized %.3f", m2.Throughput, o1.Throughput)
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
