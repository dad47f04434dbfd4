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
// prices 13 canonical stage shapes (TestTuplePassesOncePerWindow counts
// them) at four tensor-parallel degrees, and they share a handful of
// programs — one per structural variant, compiled once per process —
// over one trace of the model, fetched once from the process's table.
func TestStageProgramsCompiledOncePerVariant(t *testing.T) {
	w := plan.Workload{Model: model.MustByName("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}
	tn, err := core.New(w, hardware.L4Cluster(1, 8), core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); err != nil {
		t.Fatal(err)
	}
	traced, programs := tn.An.BuildCounts(), tn.An.VariantPrograms()
	if programs < 1 || programs > 16 {
		t.Errorf("stage programs share %d distinct programs, want 1..16 (one per variant)", programs)
	}
	if traced != 1 {
		t.Errorf("fetched the model's trace %d times, want once for every TP degree", traced)
	}
	t.Logf("%d trace fetches, %d distinct variant programs", traced, programs)
}

// TestTuplePassesOncePerWindow is the count-based proof of the window
// pass: a cold search runs one tuple pass (the tape from the offload
// tuple's stage plus the overlap composition) per offload tuple of each
// (stage shape, layer window) it misses, not one per tuple of each of
// their (shape, layer count) rows. Which windows a search prices is
// core's wave ramp's and compute floor's doing: (S=1, G=1) runs alone,
// and every later pair is swept only if its floor is under the incumbent
// the pairs before its wave left.
//
// gpt3-2.7b, batch 8, 8 L4s (the BENCH cell): only (S=1, G=1) is swept —
// its 1.477 s is under the floor of every other pair. Its eight devices
// split into 13 stage shapes (TP in {1, 2, 4, 8}, four ZeRO levels where
// DP = 8/TP > 1, one where DP = 1), each a window of the one layer count
// 32: 13 windows, 13 rows.
//
// gpt3-7b, batch 2, 2 L4s: the waves are (1, 1) | (1, 2) | (2, 1), (2, 2).
// The S=1 pairs have 5 shapes at G=1 (TP 1 x four ZeRO levels, TP 2) and 1
// at G=2 (DP must divide 2/G: TP 2 only), windows of the one layer count
// 32. (2, 1) is skipped by its floor; (2, 2) is swept: two stages of one
// device, one shape each, under windows of five layer counts (14-18).
// 5 + 1 + 2 = 8 windows over 5 + 1 + 10 = 16 rows — 648 tuple passes
// where one per row would be 1 296.
func TestTuplePassesOncePerWindow(t *testing.T) {
	for _, cell := range []struct {
		model                      string
		batch, gpus, windows, rows int
	}{
		{model: "gpt3-2.7b", batch: 8, gpus: 8, windows: 13, rows: 13},
		{model: "gpt3-7b", batch: 2, gpus: 2, windows: 8, rows: 16},
	} {
		w := plan.Workload{Model: model.MustByName(cell.model), Seq: 2048, Flash: true, GlobalBatch: cell.batch}
		tn, err := core.New(w, hardware.L4Cluster(1, cell.gpus), core.MistSpace())
		if err != nil {
			t.Fatal(err)
		}
		r, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tn.An.TuplePasses(), cell.windows*81; got != want {
			t.Errorf("%s batch %d: cold search ran %d tuple passes, want %d (%d windows x 81 tuples)", cell.model, cell.batch, got, want, cell.windows)
		}
		if got, want := r.EvalCacheMisses, uint64(cell.rows*405); got != want {
			t.Errorf("%s batch %d: cold search missed %d points, want %d (%d rows x 405 knobs)", cell.model, cell.batch, got, want, cell.rows)
		}
	}
}
