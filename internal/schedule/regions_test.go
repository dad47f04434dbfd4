package schedule_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/schedule"
)

// TestRegionsPredictedOncePerProjection pins what sharing overlap regions
// across the tuples of a call saves, as exact counts. A window of the
// {0, ½, 1} grid has 81 tuples; its stable forward regions read (wo, ao),
// 9 distinct values, its backward ones (wo, go, ao), 27, and its
// first-microbatch forward regions the whole tuple. So a window predicts
// 9·2 + 27·2 + 81·2 = 234 regions, and 27·2 more where the gradient
// all-reduce rides the last backward (ZeRO 0/1 over DP > 1): 288, where a
// prediction per region per tuple would be 486 and 648.
//
// The bench cell (gpt3-2.7b, batch 8, 8 L4s) sweeps only (S=1, G=1), one
// window of the one layer count 32 per stage shape (counts_test.go): 13
// shapes, 6 of them with the all-reduce, 6·288 + 7·234 = 3 366 predictions
// where one per region per tuple would be 7 290.
func TestRegionsPredictedOncePerProjection(t *testing.T) {
	w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	cl := hardware.L4Cluster(1, 8)
	tn, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); err != nil {
		t.Fatal(err)
	}
	if got, want := tn.An.RegionsPredicted(), 3366; got != want {
		t.Errorf("bench cell search predicted %d overlap regions, want %d", got, want)
	}

	fresh, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	an := fresh.An
	window := []*schedule.Batch{an.KnobGrid(32, []int{0, 8, 16, 24, 32}, [4]bool{true, true, true, true})}
	rows := make([]schedule.Row, 1)
	var sc schedule.EvalScratch
	windows := 0
	for tp := 1; tp <= 8; tp *= 2 {
		dp := 8 / tp
		for zero := 0; zero <= 3; zero++ {
			if zero > 0 && dp == 1 {
				continue
			}
			shape := schedule.StageShape{B: 8 / dp, DP: dp, TP: tp, ZeRO: zero, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 1}
			before := an.RegionsPredicted()
			if _, _, err := an.Rows().EvaluateSets(shape, window, rows, &sc); err != nil {
				t.Fatal(err)
			}
			want := 234
			if dp > 1 && zero < 2 {
				want = 288
			}
			if got := an.RegionsPredicted() - before; got != want {
				t.Errorf("shape %+v: a window predicted %d overlap regions, want %d", shape, got, want)
			}
			windows++
		}
	}
	if windows != 13 {
		t.Fatalf("walked %d shapes, want the bench cell's 13", windows)
	}
	if got := an.RegionsPredicted(); got != tn.An.RegionsPredicted() {
		t.Errorf("the 13 windows predicted %d regions in all, the search %d", got, tn.An.RegionsPredicted())
	}
}
