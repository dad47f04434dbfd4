package plan

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/schedule"
)

func validWorkload() Workload {
	return Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 16}
}

// validPlan builds a consistent 2-stage plan for the workload.
func validPlan() *Plan {
	g := 4
	mk := func(idx int) Stage {
		return Stage{
			Shape: schedule.StageShape{
				B: 2, DP: 2, TP: 1, ZeRO: 0,
				HasPre: idx == 0, HasPost: idx == 1,
				NumStages: 2, StageIdx: idx, GradAccum: g,
			},
			Knobs: schedule.Knobs{Layers: 16, Ckpt: 8},
		}
	}
	return &Plan{GradAccum: g, Stages: []Stage{mk(0), mk(1)}}
}

func TestWorkloadValidate(t *testing.T) {
	w := validWorkload()
	if err := w.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bad := w
	bad.Seq = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero seq accepted")
	}
	bad = w
	bad.GlobalBatch = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative batch accepted")
	}
	bad = w
	bad.Model.Layers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero-layer model accepted")
	}
}

func TestPlanValidateOK(t *testing.T) {
	if err := validPlan().Validate(validWorkload()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestPlanValidateCatchesCorruption(t *testing.T) {
	w := validWorkload()
	cases := []struct {
		name    string
		corrupt func(p *Plan)
	}{
		{"zero grad accum", func(p *Plan) { p.GradAccum = 0 }},
		{"no stages", func(p *Plan) { p.Stages = nil }},
		{"layer sum mismatch", func(p *Plan) { p.Stages[0].Knobs.Layers = 15 }},
		{"zero stage layers", func(p *Plan) { p.Stages[0].Knobs.Layers = 0 }},
		{"ckpt above layers", func(p *Plan) { p.Stages[0].Knobs.Ckpt = 99 }},
		{"wrong stage idx", func(p *Plan) { p.Stages[1].Shape.StageIdx = 0 }},
		{"wrong num stages", func(p *Plan) { p.Stages[0].Shape.NumStages = 3 }},
		{"wrong grad accum", func(p *Plan) { p.Stages[0].Shape.GradAccum = 2 }},
		{"pre flag on middle", func(p *Plan) { p.Stages[1].Shape.HasPre = true }},
		{"post flag missing", func(p *Plan) { p.Stages[1].Shape.HasPost = false }},
		{"batch factorization", func(p *Plan) { p.Stages[0].Shape.B = 3 }},
		{"offload ratio range", func(p *Plan) { p.Stages[0].Knobs.AO = 1.5 }},
	}
	for _, c := range cases {
		p := validPlan()
		c.corrupt(p)
		if err := p.Validate(w); err == nil {
			t.Errorf("%s: corruption not detected", c.name)
		}
	}
}

func TestPlanAccessors(t *testing.T) {
	p := validPlan()
	if p.NumStages() != 2 {
		t.Errorf("NumStages = %d", p.NumStages())
	}
	devices := 0
	for _, s := range p.Stages {
		devices += s.Shape.Devices()
	}
	if devices != 4 {
		t.Errorf("stages hold %d devices, want 4", devices)
	}
}

func TestPlanString(t *testing.T) {
	p := validPlan()
	p.Stages[1].Knobs.AO = 0.5
	s := p.String()
	for _, want := range []string{"G=4", "S=2", "stage 0", "stage 1", "ao=0.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("plan string missing %q:\n%s", want, s)
		}
	}
	// Stage 0 has no offloading; its line must not carry ratios.
	lines := strings.Split(s, "\n")
	if strings.Contains(lines[1], "ao=") {
		t.Errorf("stage 0 should not print offload ratios: %s", lines[1])
	}
}

func TestPlanJSONStable(t *testing.T) {
	p := validPlan()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(validWorkload()); err != nil {
		t.Fatalf("round-tripped plan invalid: %v", err)
	}
	if back.String() != p.String() {
		t.Error("round-trip changed the plan")
	}
}
