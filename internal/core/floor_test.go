package core

import (
	"context"
	"reflect"
	"sync"
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
// pre-pricing bound: over the golden cells, under every space and every
// inter-stage solver (the DP, the MILP and the test oracle), the search
// that skips (S, G) pairs by their compute floor returns the plan and the
// prediction — reflect.DeepEqual and == — of the search with no
// cross-pair incumbent (disableIncumbent), in which the floor never fires.
// BreakdownLadder's first four rungs and AcesoSpace are the averaged
// objective. The MILP and the enumeration run on the cells of at most four
// GPUs: the reference's unpruned deep pipelines take the MILP minutes on
// eight, and the floor acts before any solver sees a pair.
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
			tn.UseMILP = cfg.useMILP
			ref := &Tuner{W: w, Cluster: cl, An: tn.An, Space: cfg.space,
				UseMILP: cfg.useMILP, disableIncumbent: true}
			if cfg.exhaustive {
				tn.interOracle, ref.interOracle = exhaustive, exhaustive
			}
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

// Every pair the incumbent abandons says so on its sg span — skipped whole
// by its compute floor, or stopped mid-sweep by the pair bound, with the
// bound, the stage it stopped at and the incumbent it lost to — and is not
// reported as infeasible, which is what an OOM pair reads as.
func TestAbandonedPairSaysWhy(t *testing.T) {
	tn, err := New(testWorkload("gpt3-1.3b", 16), l4(t, 4), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	res, spans := sgSpans(t, tn)
	byFloor, midSweep := 0, 0
	for _, sp := range spans {
		switch sp.Attrs["prunedBy"] {
		case "floor":
			byFloor++
		case "incumbent":
			midSweep++
			if sp.Attrs["evals"] == 0 || sp.Attrs["bound"].(float64) <= sp.Attrs["incumbent"].(float64) || sp.Attrs["stage"] == nil {
				t.Errorf("pair abandoned mid-sweep %v: want evals > 0, bound > incumbent and a stage", sp.Attrs)
			}
		default:
			continue
		}
		if sp.Attrs["infeasible"] != nil {
			t.Errorf("pruned pair %v also reads infeasible", sp.Attrs)
		}
	}
	if midSweep == 0 || byFloor != res.FloorSkippedPairs || byFloor+midSweep != res.WarmAbortedPairs {
		t.Errorf("sg spans say %d floor skips and %d mid-sweep aborts; the result %d and %d aborted in all, want a mid-sweep abort and equal counts",
			byFloor, midSweep, res.FloorSkippedPairs, res.WarmAbortedPairs)
	}
}

// tpbRecorder wraps the tuner's rows and records the (TP, b) of every
// shape priced through them successfully.
type tpbRecorder struct {
	pricer
	mu  sync.Mutex
	tpb map[[2]int]bool
}

func (r *tpbRecorder) note(s schedule.StageShape) {
	r.mu.Lock()
	r.tpb[[2]int{s.TP, s.B}] = true
	r.mu.Unlock()
}

func (r *tpbRecorder) Evaluate(s schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	res, err := r.pricer.Evaluate(s, k)
	if err == nil {
		r.note(s)
	}
	return res, err
}

func (r *tpbRecorder) EvaluateSets(s schedule.StageShape, sets []*schedule.Batch, out []schedule.Row, sc *schedule.EvalScratch) (int, int, error) {
	hits, misses, err := r.pricer.EvaluateSets(s, sets, out, sc)
	if err == nil {
		r.note(s)
	}
	return hits, misses, err
}

// TestColdSearchBuildsSectionsOnlyForPricedShapes: a cold search builds
// section costs for exactly the distinct (TP, b) of the shapes it prices.
// Pricing a shape builds its (TP, b)'s costs, so a count equal to the
// priced (TP, b) is that set. The compute floor enumerates every (TP, b)
// of every pair, the pairs it skips included, and builds none of them;
// across the cells the floor enumerates more (TP, b) than the searches
// price, or the test would compare nothing.
func TestColdSearchBuildsSectionsOnlyForPricedShapes(t *testing.T) {
	type cell struct {
		name  string
		w     plan.Workload
		cl    *hardware.Cluster
		space Space
	}
	var cells []cell
	for _, c := range goldenCells {
		w, cl := c.workload(t)
		cells = append(cells, cell{c.name, w, cl, MistSpace()})
	}
	hetero := MistSpace()
	hetero.HeterogeneousDevices = true
	cells = append(cells,
		cell{"gpt3-7b-l4x2 (S=2 priced)", testWorkload("gpt3-7b", 2), l4(t, 2), MistSpace()},
		cell{"gpt3-1.3b-l4x4 hetero", testWorkload("gpt3-1.3b", 16), l4(t, 4), hetero},
		cell{"gpt3-1.3b-l4x4 uniform", testWorkload("gpt3-1.3b", 16), l4(t, 4), UniformHeuristicSpace()},
	)
	enumerated, priced := 0, 0
	for _, c := range cells {
		tn, err := New(c.w, c.cl, c.space)
		if err != nil {
			t.Fatal(err)
		}
		rec := &tpbRecorder{pricer: tn.rows(), tpb: map[[2]int]bool{}}
		tn.ev = rec
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
		if got, want := tn.An.SectionBuilds(), len(rec.tpb); got != want || want == 0 {
			t.Errorf("%s: the search built section costs for %d (TP, b), it priced %d", c.name, got, want)
		}
		floor := map[[2]int]bool{}
		var pts [maxParallelisms]parallelism
		for _, s := range tn.stageCounts() {
			devOpts := []int{c.cl.TotalGPUs() / s}
			if c.space.HeterogeneousDevices && s > 1 {
				devOpts = tn.deviceOptions(s)
			}
			for _, g := range tn.gradAccums() {
				for _, dev := range devOpts {
					for _, pt := range tn.parallelisms(pts[:0], dev, g) {
						floor[[2]int{pt.tp, pt.b}] = true
					}
				}
			}
		}
		for key := range rec.tpb {
			if !floor[key] {
				t.Errorf("%s: priced (TP, b) %v, which no pair enumerates", c.name, key)
			}
		}
		enumerated += len(floor)
		priced += len(rec.tpb)
	}
	if enumerated <= priced {
		t.Errorf("the pairs enumerate %d (TP, b) and the searches price %d: no floor-only (TP, b) was left unbuilt", enumerated, priced)
	}
	t.Logf("pairs enumerate %d (TP, b), searches price %d", enumerated, priced)
}
