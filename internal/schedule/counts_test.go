package schedule_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
)

// TestStageProgramsCompiledOncePerVariant: a full MistSpace search of the
// BENCH cell (gpt3-2.7b, batch 8, 8 L4s; bench_test.go's benchWorkload)
// walks over a hundred canonical stage shapes, and its analyzer compiles
// a handful of programs — one per structural variant — and traces the
// model once per tensor-parallel degree.
func TestStageProgramsCompiledOncePerVariant(t *testing.T) {
	w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	tn, err := core.New(w, hardware.L4Cluster(1, 8), core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); err != nil {
		t.Fatal(err)
	}
	traced, compiled := tn.An.BuildCounts()
	if compiled < 1 || compiled > 16 {
		t.Errorf("compiled %d stage programs, want 1..16 (one per variant)", compiled)
	}
	if tps := 4; traced < 1 || traced > tps { // TP in {1, 2, 4, 8}
		t.Errorf("traced the model %d times, want at most once per TP degree (%d)", traced, tps)
	}
	t.Logf("%d trace passes, %d programs compiled", traced, compiled)
}

// TestTuplePassesOncePerWindow is the count-based proof of the window
// pass: the same cold search runs one tuple pass (the tape from the
// offload tuple's stage plus the overlap composition) per offload tuple
// of each (stage shape, layer window) it misses — 129 windows of the 81
// tuples — not one per tuple of each of their 533 (shape, layer count)
// rows, which is 43 173.
func TestTuplePassesOncePerWindow(t *testing.T) {
	w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	tn, err := core.New(w, hardware.L4Cluster(1, 8), core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); err != nil {
		t.Fatal(err)
	}
	if got, want := tn.An.TuplePasses(), 129*81; got != want {
		t.Errorf("cold search ran %d tuple passes, want %d (129 windows x 81 tuples)", got, want)
	}
}
