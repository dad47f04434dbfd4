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
// prices 28 canonical stage shapes (TestTuplePassesOncePerWindow counts
// them), and its analyzer compiles a handful of programs — one per
// structural variant — and traces the model once per tensor-parallel
// degree.
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
// pass: a cold search runs one tuple pass (the tape from the offload
// tuple's stage plus the overlap composition) per offload tuple of each
// (stage shape, layer window) it misses, not one per tuple of each of
// their (shape, layer count) rows. Which windows a search prices is
// core's compute floor's doing: only the first wave of four (S, G) pairs
// is swept on these cells, every later pair's floor exceeds the incumbent
// the wave leaves.
//
// Batch 8 (the BENCH cell): the wave is the four S=1 pairs, whose eight
// devices split into 13 + 9 + 5 + 1 stage shapes at G = 1, 2, 4, 8 (TP
// with DP = 8/TP dividing 8/G, four ZeRO levels where DP > 1, one where
// DP = 1), each a window of the one layer count 32: 28 windows, 28 rows.
//
// Batch 4: G is 1, 2 or 4, so the wave is three S=1 pairs (9 + 5 + 1
// shapes, windows of one layer count) and (S=2, G=1), whose two stages of
// four devices have 9 shapes each under windows of five layer counts
// (14-18): 15 + 18 = 33 windows over 15 + 90 = 105 rows — 2 673 tuple
// passes where one per row would be 8 505.
func TestTuplePassesOncePerWindow(t *testing.T) {
	for _, cell := range []struct{ batch, windows, rows int }{
		{batch: 8, windows: 28, rows: 28},
		{batch: 4, windows: 33, rows: 105},
	} {
		w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: cell.batch}
		tn, err := core.New(w, hardware.L4Cluster(1, 8), core.MistSpace())
		if err != nil {
			t.Fatal(err)
		}
		r, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tn.An.TuplePasses(), cell.windows*81; got != want {
			t.Errorf("batch %d: cold search ran %d tuple passes, want %d (%d windows x 81 tuples)", cell.batch, got, want, cell.windows)
		}
		if got, want := r.EvalCacheMisses, uint64(cell.rows*405); got != want {
			t.Errorf("batch %d: cold search missed %d points, want %d (%d rows x 405 knobs)", cell.batch, got, want, cell.rows)
		}
	}
}
