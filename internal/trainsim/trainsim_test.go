package trainsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/schedule"
)

func testSetup(t testing.TB, modelName string, gpus int) (plan.Workload, *hardware.Cluster, *Engine) {
	t.Helper()
	nodes, perNode, err := hardware.MeshForGPUs(gpus)
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.L4Cluster(nodes, perNode)
	w := plan.Workload{Model: model.MustByName(modelName), Seq: 2048, Flash: true, GlobalBatch: 32}
	db := opdb.New(cl.GPU)
	intf := interference.Fit(interference.PCIeFluid(), 10, rand.New(rand.NewSource(1)))
	an := schedule.NewAnalyzer(w.Model, w.Seq, w.Flash, cl, db, intf)
	return w, cl, New(w, cl, an)
}

// buildPlan assembles a uniform plan: S stages, G accumulation steps.
func buildPlan(w plan.Workload, s, g, dp, tp, zero, ckptPer int, knobs schedule.Knobs) *plan.Plan {
	p := &plan.Plan{GradAccum: g}
	layersPer := w.Model.Layers / s
	b := w.GlobalBatch / (dp * g)
	for i := 0; i < s; i++ {
		k := knobs
		k.Layers = layersPer
		k.Ckpt = ckptPer
		p.Stages = append(p.Stages, plan.Stage{
			Shape: schedule.StageShape{
				B: b, DP: dp, TP: tp, ZeRO: zero,
				HasPre: i == 0, HasPost: i == s-1,
				NumStages: s, StageIdx: i, GradAccum: g,
			},
			Knobs: k,
		})
	}
	return p
}

func TestMeasureBasic(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 4)
	p := buildPlan(w, 2, 4, 2, 1, 0, 16, schedule.Knobs{})
	m, err := eng.Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.IterTime <= 0 || m.Throughput <= 0 {
		t.Fatalf("bad measurement %+v", m)
	}
	if got := m.Throughput * m.IterTime; math.Abs(got-float64(w.GlobalBatch)) > 1e-6 {
		t.Errorf("throughput*iterTime = %v, want global batch %d", got, w.GlobalBatch)
	}
	if len(m.PeakMem) != 2 {
		t.Fatalf("want 2 per-stage peaks, got %d", len(m.PeakMem))
	}
	if m.Bubble < 0 || m.Bubble >= 1 {
		t.Errorf("bubble %v out of range", m.Bubble)
	}
}

func TestMeasureRejectsInvalidPlan(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 4)
	p := buildPlan(w, 2, 4, 2, 1, 0, 16, schedule.Knobs{})
	p.Stages[0].Knobs.Layers-- // layer sum mismatch
	if _, err := eng.Measure(p); err == nil {
		t.Fatal("invalid plan accepted")
	}
}

func TestOOMDetection(t *testing.T) {
	w, cl, eng := testSetup(t, "gpt3-7b", 2)
	// 7B on 2 L4s with no memory optimization must blow the 24GB budget
	// (the paper's Figure 2(a) observation).
	p := buildPlan(w, 1, 4, 2, 1, 0, 0, schedule.Knobs{})
	m, err := eng.Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	if !m.OOM(cl.MemoryBudget()) {
		t.Errorf("7B without memory optimization should OOM on 24GB GPUs (peak %v)", m.PeakMem)
	}
	// Full checkpointing plus ZeRO-2 and offloading should fit... or at
	// least use dramatically less memory.
	p2 := buildPlan(w, 1, 16, 2, 1, 2, 16, schedule.Knobs{OO: 1, AO: 0.5})
	m2, err := eng.Measure(p2)
	if err != nil {
		t.Fatal(err)
	}
	if m2.PeakMem[0] >= m.PeakMem[0]/2 {
		t.Errorf("aggressive memory optimization should at least halve peak: %v vs %v", m2.PeakMem[0], m.PeakMem[0])
	}
}

func TestDeeperPipelineMoreBubble(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 8)
	shallow := buildPlan(w, 2, 4, 4, 1, 0, 16, schedule.Knobs{})
	deep := buildPlan(w, 8, 4, 1, 1, 0, 4, schedule.Knobs{})
	ms, err := eng.Measure(shallow)
	if err != nil {
		t.Fatal(err)
	}
	md, err := eng.Measure(deep)
	if err != nil {
		t.Fatal(err)
	}
	if md.Bubble <= ms.Bubble {
		t.Errorf("deep pipeline bubble %v should exceed shallow %v", md.Bubble, ms.Bubble)
	}
}

func TestCheckpointingSlowsIteration(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 4)
	none := buildPlan(w, 2, 4, 2, 1, 0, 0, schedule.Knobs{})
	full := buildPlan(w, 2, 4, 2, 1, 0, 16, schedule.Knobs{})
	mn, err := eng.Measure(none)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := eng.Measure(full)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Throughput >= mn.Throughput {
		t.Errorf("full ckpt throughput %v should be below no-ckpt %v", mf.Throughput, mn.Throughput)
	}
	if mf.PeakMem[0] >= mn.PeakMem[0] {
		t.Errorf("full ckpt peak %v should be below no-ckpt %v", mf.PeakMem[0], mn.PeakMem[0])
	}
}

func TestFirstStageHoldsMoreMemory(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 8)
	p := buildPlan(w, 4, 8, 2, 1, 0, 0, schedule.Knobs{})
	m, err := eng.Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0 keeps S in-flight stashes, the last stage 1 — but the last
	// stage carries the LM head; compare stage 0 to stage 1 (both plain).
	if m.PeakMem[0] <= m.PeakMem[1] {
		t.Errorf("stage0 peak %v should exceed stage1 peak %v", m.PeakMem[0], m.PeakMem[1])
	}
}

func TestMoreGPUsMoreThroughput(t *testing.T) {
	w4, _, eng4 := testSetup(t, "gpt3-2.7b", 4)
	w8, _, eng8 := testSetup(t, "gpt3-2.7b", 8)
	p4 := buildPlan(w4, 2, 4, 2, 1, 0, 16, schedule.Knobs{})
	p8 := buildPlan(w8, 2, 4, 4, 1, 0, 16, schedule.Knobs{})
	m4, err := eng4.Measure(p4)
	if err != nil {
		t.Fatal(err)
	}
	m8, err := eng8.Measure(p8)
	if err != nil {
		t.Fatal(err)
	}
	if m8.Throughput <= m4.Throughput {
		t.Errorf("8-GPU throughput %v should exceed 4-GPU %v", m8.Throughput, m4.Throughput)
	}
}

// TestPredictionAccuracy compares the analyzer's Eq.1 prediction against
// the engine's playback on a spread of plans — the §6.6 experiment in
// miniature. The paper reports ~1.8% runtime and ~2.1% memory error; we
// accept <12% runtime and <15% memory here (different contention models
// on both sides of the comparison).
func TestPredictionAccuracy(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 8)
	an := eng.an
	plans := []*plan.Plan{
		buildPlan(w, 2, 4, 4, 1, 0, 16, schedule.Knobs{}),
		buildPlan(w, 4, 8, 1, 2, 0, 8, schedule.Knobs{AO: 0.5}),
		buildPlan(w, 1, 4, 4, 2, 2, 32, schedule.Knobs{OO: 0.5}),
		buildPlan(w, 2, 2, 2, 2, 1, 0, schedule.Knobs{WO: 0.25}),
	}
	for pi, p := range plans {
		m, err := eng.Measure(p)
		if err != nil {
			t.Fatal(err)
		}
		var perfs []pipeline.StagePerf
		for _, st := range p.Stages {
			r, err := an.Evaluate(st.Shape, st.Knobs)
			if err != nil {
				t.Fatal(err)
			}
			perfs = append(perfs, pipeline.StagePerf{Stable: r.Stable, Delta: r.Delta})
		}
		pred := pipeline.IterationTime(perfs, p.GradAccum)
		relT := math.Abs(pred-m.IterTime) / m.IterTime
		if relT > 0.12 {
			t.Errorf("plan %d: runtime prediction error %.1f%% (pred %v, measured %v)", pi, 100*relT, pred, m.IterTime)
		}
		for si, st := range p.Stages {
			r, err := an.Evaluate(st.Shape, st.Knobs)
			if err != nil {
				t.Fatal(err)
			}
			relM := math.Abs(r.PeakMem-m.PeakMem[si]) / m.PeakMem[si]
			if relM > 0.15 {
				t.Errorf("plan %d stage %d: memory prediction error %.1f%%", pi, si, 100*relM)
			}
		}
	}
}

// The host figures are each device's offloaded bytes summed per node:
// states = ModelStates at zero offload − at the plan's ratios, stash =
// the same difference of ActPerMB × the stage's 1F1B in-flight depth,
// stages packed onto devices contiguously. Here four stages of two
// devices straddle nodes of three GPUs, so each node sums a different
// mix of stages, and the last stage, which offloads nothing, fills the
// last node alone.
func TestHostBytesPerNode(t *testing.T) {
	cl := hardware.L4Cluster(3, 3)
	w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 32}
	db := opdb.New(cl.GPU)
	intf := interference.Fit(interference.PCIeFluid(), 10, rand.New(rand.NewSource(1)))
	an := schedule.NewAnalyzer(w.Model, w.Seq, w.Flash, cl, db, intf)
	p := buildPlan(w, 4, 8, 2, 1, 2, 2, schedule.Knobs{WO: 0.25, OO: 1, AO: 0.5})
	p.Stages[3].Knobs.WO, p.Stages[3].Knobs.OO, p.Stages[3].Knobs.AO = 0, 0, 0
	m, err := New(w, cl, an).Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	wantStates, wantStash := make([]float64, 3), make([]float64, 3)
	order := pipeline.OneFOneB(len(p.Stages), p.GradAccum)
	dev := 0
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
		for range st.Shape.DP * st.Shape.TP {
			wantStates[dev/3] += zero.ModelStates - at.ModelStates
			wantStash[dev/3] += (zero.ActPerMB - at.ActPerMB) * float64(pipeline.InFlight(order[i]))
			dev++
		}
	}
	if len(m.HostStates) != 3 || len(m.HostStash) != 3 {
		t.Fatalf("host figures for %d / %d nodes, want 3", len(m.HostStates), len(m.HostStash))
	}
	for n := range wantStates {
		if m.HostStates[n] != wantStates[n] || m.HostStash[n] != wantStash[n] {
			t.Errorf("node %d: host states / stash %v / %v, want %v / %v", n, m.HostStates[n], m.HostStash[n], wantStates[n], wantStash[n])
		}
	}
	if wantStates[0] <= 0 || wantStash[0] <= 0 || wantStates[2] != 0 || wantStash[2] != 0 {
		t.Errorf("want offloaded bytes on node 0 and none on node 2 (stage 3 offloads nothing): %v / %v", wantStates, wantStash)
	}
	if len(m.PeakMem) != 4 {
		t.Errorf("%d stage peaks, want 4", len(m.PeakMem))
	}
}

// TestMeasureAllocCeiling pins what one measurement allocates on tuned
// plans: one array of stage peaks and node host figures, the stage
// costs, the analyzer's channels (its registers and outputs, which also
// price the zero-offload frame), and one playback of the 1F1B order,
// which allocates its order, its op times and its cursors, and nothing
// per op. The search benchmarks measure every plan they tune, so a new
// allocation here is one per measured plan.
func TestMeasureAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		model, platform string
		gpus, batch     int
		s, g            int
		allocs          float64
	}{
		{"gpt3-1.3b", "l4", 4, 32, 1, 1, 8},
		{"gpt3-2.7b", "l4", 8, 8, 1, 1, 8},
		{"llama-2.7b", "a100", 8, 16, 1, 1, 8},
		{"gpt3-22b", "l4", 32, 512, 4, 16, 14},
	} {
		cl, seq, err := hardware.ClusterByName(c.platform, c.gpus)
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
		if s, g := res.Plan.NumStages(), res.Plan.GradAccum; s != c.s || g != c.g {
			t.Fatalf("%s: tuned (S, G) = (%d, %d), want (%d, %d)", c.model, s, g, c.s, c.g)
		}
		eng := New(w, cl, tu.An)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := eng.Measure(res.Plan); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v allocs per measurement", c.model, allocs)
		if allocs != c.allocs {
			t.Errorf("%s: %v allocs per measurement, want %v", c.model, allocs, c.allocs)
		}
	}
}

// Trace reads its timeline off the measurement's own playback: the same
// measurement as Measure, one event per op, the last ending at the
// iteration time.
func TestTraceIsMeasureWithTimeline(t *testing.T) {
	w, _, eng := testSetup(t, "gpt3-2.7b", 8)
	p := buildPlan(w, 4, 8, 2, 1, 0, 8, schedule.Knobs{AO: 0.5})
	m, err := eng.Measure(p)
	if err != nil {
		t.Fatal(err)
	}
	mt, events, err := eng.Trace(p)
	if err != nil {
		t.Fatal(err)
	}
	if mt.IterTime != m.IterTime || mt.Bubble != m.Bubble || mt.PeakMem[0] != m.PeakMem[0] {
		t.Errorf("Trace measured %+v, Measure %+v", mt, m)
	}
	if len(events) != 2*4*8 {
		t.Fatalf("%d events, want %d", len(events), 2*4*8)
	}
	last := 0.0
	for _, ev := range events {
		last = max(last, ev.End)
	}
	if last != m.IterTime {
		t.Errorf("timeline ends at %v, iteration time %v", last, m.IterTime)
	}
}
