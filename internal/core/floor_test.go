package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// goldenCell is one workload of golden_test.go's catalog (the package
// above this one owns the plans; the cells are repeated here by value).
type goldenCell struct {
	name        string
	model       string
	flash       bool
	batch, gpus int
	a100        bool
}

var goldenCells = []goldenCell{
	{"gpt3-2.7b-l4x8", "gpt3-2.7b", true, 8, 8, false},
	{"gpt3-1.3b-l4x2", "gpt3-1.3b", true, 8, 2, false},
	{"gpt3-2.7b-a100x4", "gpt3-2.7b", true, 8, 4, true},
	{"gpt3-2.7b-l4x4", "gpt3-2.7b", true, 8, 4, false},
	{"gpt3-1.3b-noflash-l4x4", "gpt3-1.3b", false, 16, 4, false},
	{"gpt3-1.3b-l4x4", "gpt3-1.3b", true, 8, 4, false},
}

func (c goldenCell) workload(t *testing.T) (plan.Workload, *hardware.Cluster) {
	w := testWorkload(c.model, c.batch)
	w.Flash = c.flash
	if c.a100 {
		return w, hardware.A100Cluster(1, c.gpus)
	}
	return w, l4(t, c.gpus)
}

// sgSpans runs tn's search under a recording trace and returns its "sg"
// spans, one per (S, G) pair.
func sgSpans(t *testing.T, tn *Tuner) (*Result, []trace.SpanData) {
	t.Helper()
	rec := trace.NewRecorder(trace.Options{SampleEvery: 1})
	ctx, root := rec.StartTrace(context.Background(), "test", "")
	res, err := tn.TuneContext(ctx)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	var spans []trace.SpanData
	for _, td := range rec.Traces(trace.Filter{}) {
		for _, sp := range td.Spans {
			if sp.Name == "sg" {
				spans = append(spans, sp)
			}
		}
	}
	if len(spans) != res.SGPairs {
		t.Fatalf("%d sg spans for %d pairs", len(spans), res.SGPairs)
	}
	return res, spans
}

// TestFloorSkipMatchesUnprunedReference is the differential fence of the
// pre-pricing bound: over the golden cells, under every space and solver
// the tuner has, the search that skips (S, G) pairs by their compute floor
// returns the plan and the prediction — reflect.DeepEqual and == — of the
// search with no cross-pair incumbent (disableIncumbent), in which the
// floor never fires. BreakdownLadder's first four rungs and AcesoSpace are
// the averaged objective. The MILP and the enumeration run on the cells of
// at most four GPUs: the reference's unpruned deep pipelines take the MILP
// minutes on eight, and the floor acts before any solver sees a pair.
func TestFloorSkipMatchesUnprunedReference(t *testing.T) {
	hetero := MistSpace()
	hetero.Name, hetero.HeterogeneousDevices = "hetero", true
	type config struct {
		space               Space
		useMILP, exhaustive bool
	}
	configs := []config{
		{space: MistSpace()}, {space: UniformHeuristicSpace()}, {space: hetero},
		{space: DeepSpeedSpace()}, {space: AcesoSpace()},
		{space: MistSpace(), useMILP: true}, {space: MistSpace(), exhaustive: true},
	}
	for _, rung := range BreakdownLadder()[:4] { // the fifth is MistSpace
		configs = append(configs, config{space: rung})
	}
	skipped := 0
	for _, cell := range goldenCells {
		w, cl := cell.workload(t)
		for _, cfg := range configs {
			if (cfg.useMILP || cfg.exhaustive) && cell.gpus > 4 {
				continue
			}
			name := cell.name + "/" + cfg.space.Name
			tn, err := New(w, cl, cfg.space)
			if err != nil {
				t.Fatal(err)
			}
			tn.UseMILP, tn.Exhaustive = cfg.useMILP, cfg.exhaustive
			ref := &Tuner{W: w, Cluster: cl, An: tn.An, Space: cfg.space,
				UseMILP: cfg.useMILP, Exhaustive: cfg.exhaustive, disableIncumbent: true}
			got, err := tn.Tune()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := ref.Tune()
			if err != nil {
				t.Fatalf("%s reference: %v", name, err)
			}
			if !reflect.DeepEqual(got.Plan, want.Plan) || got.Predicted != want.Predicted {
				t.Errorf("%s (milp=%v exhaustive=%v): floor-skipping search returned\n%v (%v)\nreference\n%v (%v)",
					name, cfg.useMILP, cfg.exhaustive, got.Plan, got.Predicted, want.Plan, want.Predicted)
			}
			if want.FloorSkippedPairs != 0 || want.WarmAbortedPairs != 0 {
				t.Errorf("%s: reference skipped %d pairs and aborted %d, want 0: it is no reference",
					name, want.FloorSkippedPairs, want.WarmAbortedPairs)
			}
			if got.Candidates > want.Candidates {
				t.Errorf("%s: priced %d candidates, the unpruned reference %d", name, got.Candidates, want.Candidates)
			}
			skipped += got.FloorSkippedPairs
		}
	}
	if skipped == 0 {
		t.Error("the floor skipped no pair on any cell; the test compared nothing")
	}
}

// TestFloorSweepsTheSeedsOwnPair: a warm seed may use a parallelism its
// pair does not enumerate — here tensor parallelism 8 on both stages of a
// two-stage plan on eight NVLinked A100s, where the space gives a stage
// four devices — and so price below the pair's compute floor. The pair
// must be swept all the same (the solver recombines around the injected
// seed stages), and the result must equal the reference's.
func TestFloorSweepsTheSeedsOwnPair(t *testing.T) {
	const s, g = 2, 4
	w := testWorkload("gpt3-2.7b", 8)
	cl := hardware.A100Cluster(1, 8)
	seed := &plan.Plan{GradAccum: g}
	for i := 0; i < s; i++ {
		seed.Stages = append(seed.Stages, plan.Stage{
			Shape: schedule.StageShape{B: w.GlobalBatch / g, DP: 1, TP: 8,
				HasPre: i == 0, HasPost: i == s-1, NumStages: s, StageIdx: i, GradAccum: g},
			Knobs: schedule.Knobs{Layers: w.Model.Layers / s},
		})
	}
	tn, err := New(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	tn.Warm = seed
	got, spans := sgSpans(t, tn)
	if !got.WarmStarted {
		t.Fatal("seed rejected; the test exercised nothing")
	}
	if floor := tn.computeFloor(s, g, []int{cl.TotalGPUs() / s}); floor*(1-1e-9) <= got.WarmSeedObjective {
		t.Fatalf("seed objective %v is not below its pair's floor %v; the test exercised nothing", got.WarmSeedObjective, floor)
	}
	for _, sp := range spans {
		if sp.Attrs["s"] == s && sp.Attrs["g"] == g && (sp.Attrs["prunedBy"] != nil || sp.Attrs["evals"] == 0) {
			t.Errorf("the seed's own pair was not swept: %v", sp.Attrs)
		}
	}
	if got.FloorSkippedPairs == 0 {
		t.Error("no other pair skipped under the seed's incumbent")
	}

	ref := &Tuner{W: w, Cluster: cl, An: tn.An, Space: MistSpace(), Warm: seed, disableIncumbent: true}
	want, err := ref.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Plan, want.Plan) || got.Predicted != want.Predicted {
		t.Errorf("warm search returned\n%v (%v)\nreference\n%v (%v)", got.Plan, got.Predicted, want.Plan, want.Predicted)
	}
}
