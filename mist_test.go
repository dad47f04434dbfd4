package mist

import (
	"encoding/json"
	"math"
	"testing"
)

func TestFacadeTuneAndSimulate(t *testing.T) {
	w := Workload{Model: Model("gpt3-1.3b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	cl := L4Cluster(2)
	res, err := Tune(w, cl)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Simulate(w, cl, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.Throughput <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	if m.OOM(cl.MemoryBudget()) {
		t.Error("tuned plan OOMs")
	}
	pred, err := Predict(w, cl, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(pred-m.IterTime) / m.IterTime; rel > 0.25 {
		t.Errorf("prediction error %.0f%%", 100*rel)
	}
}

func TestFacadeModelCatalog(t *testing.T) {
	if len(Models()) < 10 {
		t.Errorf("catalog too small: %v", Models())
	}
	if _, err := ModelByName("nonexistent"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestFacadeClusters(t *testing.T) {
	l4 := L4Cluster(8)
	a100 := A100Cluster(16)
	if l4.TotalGPUs() != 8 || a100.TotalGPUs() != 16 {
		t.Error("cluster sizes wrong")
	}
	if l4.HasNVLink() || !a100.HasNVLink() {
		t.Error("NVLink detection wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid GPU count should panic")
		}
	}()
	L4Cluster(12)
}

func TestPlanJSONRoundTrip(t *testing.T) {
	w := Workload{Model: Model("gpt3-1.3b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	cl := L4Cluster(2)
	res, err := TuneWithSpace(w, cl, DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(w); err != nil {
		t.Fatalf("round-tripped plan invalid: %v", err)
	}
	m1, err := Simulate(w, cl, res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Simulate(w, cl, &back)
	if err != nil {
		t.Fatal(err)
	}
	if m1.IterTime != m2.IterTime {
		t.Error("round-tripped plan simulates differently")
	}
}

func TestCompareFacade(t *testing.T) {
	w := Workload{Model: Model("gpt3-1.3b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	cl := L4Cluster(2)
	out, err := Compare(w, cl, []Space{MistSpace(), MegatronSpace()})
	if err != nil {
		t.Fatal(err)
	}
	if out["mist"] == nil || out["megatron"] == nil {
		t.Fatalf("missing outcomes: %v", out)
	}
	if !out["mist"].OOM && !out["megatron"].OOM &&
		out["mist"].Throughput < out["megatron"].Throughput-1e-9 {
		t.Error("mist below megatron on its superset space")
	}
}
