package core

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
)

func l4(t *testing.T, gpus int) *hardware.Cluster {
	t.Helper()
	nodes, perNode, err := hardware.MeshForGPUs(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return hardware.L4Cluster(nodes, perNode)
}

func tuneWarm(t *testing.T, w plan.Workload, gpus int, space Space, warm *plan.Plan) *Result {
	t.Helper()
	tn, err := New(w, l4(t, gpus), space)
	if err != nil {
		t.Fatal(err)
	}
	tn.Warm = warm
	res, err := tn.Tune()
	if err != nil {
		t.Fatalf("warm tune: %v", err)
	}
	return res
}

// TestWarmStartNeverRegresses is the acceptance property: across a
// catalog of workloads, a search warm-started from a neighbor plan
// (tuned for a different batch or GPU count) returns a plan whose
// predicted throughput is at least the cold search's. Warm starting is a
// prune, never a quality trade.
func TestWarmStartNeverRegresses(t *testing.T) {
	space := DeepSpeedSpace() // compact grid keeps the catalog affordable
	cases := []struct {
		model                       string
		gpus, batch                 int
		neighborGPUs, neighborBatch int
	}{
		{"gpt3-1.3b", 2, 8, 2, 16}, // neighbor at double batch
		{"gpt3-1.3b", 2, 16, 2, 8}, // neighbor at half batch
		{"gpt3-1.3b", 4, 8, 2, 8},  // neighbor at half the GPUs
		{"falcon-1.3b", 2, 8, 2, 16},
		{"gpt3-2.7b", 4, 8, 4, 16},
	}
	for _, tc := range cases {
		w := testWorkload(tc.model, tc.batch)
		cold := mustTune(t, w, tc.gpus, space)

		neighbor := mustTune(t, testWorkload(tc.model, tc.neighborBatch), tc.neighborGPUs, space)
		warm := tuneWarm(t, w, tc.gpus, space, neighbor.Plan)

		if !warm.WarmStarted {
			t.Errorf("%s x%d b%d: seed from x%d b%d not used", tc.model, tc.gpus, tc.batch, tc.neighborGPUs, tc.neighborBatch)
			continue
		}
		if warm.PredThroughput < cold.PredThroughput-1e-9 {
			t.Errorf("%s x%d b%d: warm throughput %.4f < cold %.4f (seed x%d b%d)",
				tc.model, tc.gpus, tc.batch, warm.PredThroughput, cold.PredThroughput,
				tc.neighborGPUs, tc.neighborBatch)
		}
		if err := warm.Plan.Validate(w); err != nil {
			t.Errorf("%s x%d b%d: warm plan invalid: %v", tc.model, tc.gpus, tc.batch, err)
		}
		if warm.WarmSeedObjective <= 0 {
			t.Errorf("%s x%d b%d: seed objective not reported", tc.model, tc.gpus, tc.batch)
		}
	}
}

// TestWarmStartSavesEvaluations pins the efficiency claim on a workload
// with a wide (S, G) grid: seeding from the workload's own cold plan
// must let the incumbent bound abort dominated pairs before their
// remaining stages are priced.
func TestWarmStartSavesEvaluations(t *testing.T) {
	space := DeepSpeedSpace()
	w := testWorkload("gpt3-1.3b", 16)
	// Reference search with cross-pair incumbent sharing off: against a
	// default cold search, which prunes by the bound its own first waves
	// find, a self-seeded warm search saves next to nothing.
	coldTn, err := New(w, l4(t, 4), space)
	if err != nil {
		t.Fatal(err)
	}
	coldTn.disableIncumbent = true
	cold, err := coldTn.Tune()
	if err != nil {
		t.Fatal(err)
	}

	warm := tuneWarm(t, w, 4, space, cold.Plan)
	if !warm.WarmStarted {
		t.Fatal("self-seed rejected")
	}
	if warm.Candidates >= cold.Candidates {
		t.Errorf("warm search evaluated %d candidates, cold %d — no pruning", warm.Candidates, cold.Candidates)
	}
	if warm.WarmAbortedPairs == 0 && warm.WarmPruned == 0 {
		t.Error("no pruning telemetry despite identical-workload seed")
	}
	if warm.PredThroughput < cold.PredThroughput-1e-9 {
		t.Errorf("self-seeded warm search regressed: %.4f < %.4f", warm.PredThroughput, cold.PredThroughput)
	}
}

// An unusable seed (wrong shape, not adaptable) silently falls back to a
// cold search rather than failing.
func TestWarmStartIgnoresUnusableSeed(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	bogus := &plan.Plan{GradAccum: 3} // 3 does not divide 8, no stages
	res := tuneWarm(t, w, 2, DeepSpeedSpace(), bogus)
	if res.WarmStarted {
		t.Error("bogus seed reported as a warm start")
	}
	if res.Plan == nil {
		t.Error("cold fallback produced no plan")
	}
}

func TestAdaptPlanRescalesBatchAndGPUs(t *testing.T) {
	space := DeepSpeedSpace()
	src := mustTune(t, testWorkload("gpt3-1.3b", 8), 2, space)

	// Same model, double the batch.
	w := testWorkload("gpt3-1.3b", 16)
	adapted := AdaptPlan(src.Plan, w, l4(t, 2))
	if adapted == nil {
		t.Fatal("batch adaptation failed")
	}
	if err := adapted.Validate(w); err != nil {
		t.Fatalf("adapted plan invalid: %v", err)
	}

	// Same family, different depth (24 -> 32 layers), more GPUs.
	w2 := testWorkload("gpt3-2.7b", 16)
	adapted2 := AdaptPlan(src.Plan, w2, l4(t, 4))
	if adapted2 == nil {
		t.Fatal("cross-size adaptation failed")
	}
	if err := adapted2.Validate(w2); err != nil {
		t.Fatalf("cross-size plan invalid: %v", err)
	}
	total := 0
	for _, st := range adapted2.Stages {
		total += st.Knobs.Layers
		if st.Knobs.Ckpt > st.Knobs.Layers {
			t.Errorf("stage ckpt %d exceeds layers %d", st.Knobs.Ckpt, st.Knobs.Layers)
		}
	}
	if total != w2.Model.Layers {
		t.Errorf("adapted layers sum to %d, model has %d", total, w2.Model.Layers)
	}
}

func TestAdaptPlanRejectsImpossibleTargets(t *testing.T) {
	space := DeepSpeedSpace()
	src := mustTune(t, testWorkload("gpt3-1.3b", 8), 2, space)
	if len(src.Plan.Stages) == 1 {
		// Force a 3-stage source to exercise the divisibility check.
		src = mustTune(t, testWorkload("gpt3-1.3b", 8), 4, space)
	}
	if AdaptPlan(nil, testWorkload("gpt3-1.3b", 8), l4(t, 2)) != nil {
		t.Error("nil source adapted")
	}
	// 3 stages cannot split a 2-GPU mesh evenly; the guard must refuse.
	three := &plan.Plan{GradAccum: 1}
	for i := 0; i < 3; i++ {
		st := plan.Stage{}
		st.Knobs.Layers = 8
		three.Stages = append(three.Stages, st)
	}
	if AdaptPlan(three, testWorkload("gpt3-1.3b", 8), l4(t, 2)) != nil {
		t.Error("3 stages adapted onto 2 GPUs")
	}
}

func TestApportionLayers(t *testing.T) {
	cases := []struct {
		src   []int
		total int
		want  []int // nil: expect failure
	}{
		{[]int{12, 12}, 32, []int{16, 16}},
		{[]int{8, 16}, 48, []int{16, 32}},
		{[]int{10, 14}, 12, []int{5, 7}},
		{[]int{1, 1, 1}, 2, nil}, // fewer layers than stages
		{[]int{30, 1, 1}, 6, []int{4, 1, 1}},
	}
	for _, tc := range cases {
		got := apportionLayers(tc.src, tc.total)
		if tc.want == nil {
			if got != nil {
				t.Errorf("apportion(%v, %d) = %v, want failure", tc.src, tc.total, got)
			}
			continue
		}
		if got == nil {
			t.Errorf("apportion(%v, %d) failed", tc.src, tc.total)
			continue
		}
		sum := 0
		for i, l := range got {
			sum += l
			if l < 1 {
				t.Errorf("apportion(%v, %d)[%d] = %d < 1", tc.src, tc.total, i, l)
			}
		}
		if sum != tc.total {
			t.Errorf("apportion(%v, %d) sums to %d", tc.src, tc.total, sum)
		}
	}
}

func TestNearestDivisor(t *testing.T) {
	cases := []struct{ n, target, want int }{
		{8, 2, 2},
		{8, 3, 4},  // log space: |log2(4/3)| < |log2(2/3)|
		{8, 5, 4},  // |log2(4/5)| < |log2(8/5)|
		{12, 5, 6}, // |log2(6/5)| < |log2(4/5)|
		{7, 3, 7},  // divisors {1, 7}: |log2(7/3)| < |log2(3)|
		{8, 16, 8},
	}
	for _, tc := range cases {
		if got := nearestDivisor(tc.n, tc.target); got != tc.want {
			t.Errorf("nearestDivisor(%d, %d) = %d, want %d", tc.n, tc.target, got, tc.want)
		}
	}
}

// TuneContext honors cancellation: a pre-canceled context aborts without
// a result, and the error is the context's.
func TestTuneContextCancellation(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	tn, err := New(w, l4(t, 2), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tn.TuneContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled tune returned %v", err)
	}
	// The tuner outlives the search but does not keep its context (with
	// it the request's span tree and deadline timer): between searches it
	// reports no context error, and a reuse is a clean search.
	if err := tn.ctxErr(); err != nil {
		t.Errorf("ctxErr() = %v after TuneContext returned, want nil", err)
	}
	fresh, err := New(w, l4(t, 2), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Tune()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tn.Tune()
	if err != nil {
		t.Fatalf("Tune on a tuner reused after a canceled search: %v", err)
	}
	if got.Predicted != want.Predicted || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Errorf("reused tuner found %v (%.6g s), a fresh one %v (%.6g s)", got.Plan, got.Predicted, want.Plan, want.Predicted)
	}
	if err := tn.ctxErr(); err != nil {
		t.Errorf("ctxErr() = %v after Tune returned, want nil", err)
	}

	// A context canceled mid-flight also aborts (quickly, not after the
	// full search).
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	tn2, err := New(testWorkload("gpt3-2.7b", 32), l4(t, 4), MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = tn2.TuneContext(ctx2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("mid-flight cancel returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("canceled search still took %v", elapsed)
	}
}

// The warm path composes with MoE models too (regression guard for the
// shape metadata handling in AdaptPlan).
func TestAdaptPlanIdentityWhenWorkloadMatches(t *testing.T) {
	space := DeepSpeedSpace()
	w := testWorkload("gpt3-1.3b", 8)
	src := mustTune(t, w, 2, space)
	adapted := AdaptPlan(src.Plan, w, l4(t, 2))
	if adapted == nil {
		t.Fatal("identity adaptation failed")
	}
	if adapted.GradAccum != src.Plan.GradAccum || len(adapted.Stages) != len(src.Plan.Stages) {
		t.Errorf("identity adaptation changed structure: %v vs %v", adapted, src.Plan)
	}
	_ = model.MustByName("gpt3-1.3b")
}
