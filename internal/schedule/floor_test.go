package schedule

import "testing"

// TestPropertyComputeFloorBoundsStable holds the two facts core's
// pre-pricing (S, G) bound rests on (core.Tuner.computeFloor) over the
// reference grid — every model of referenceModels, the shapes of
// TestPropertyLiftedProgramMatchesPerShapeBuild (a 1-in-23 slice per model
// without -reference.full), the full MistSpace knob grid, both Serialize
// values: a priced stage's stable time is at least its layer count times
// LayerComputeFloor(tp, b), and its delta is never negative. The 1e-9
// margin is the one the tuner applies: interference.Predict drops channel
// residues below 1e-15 s, so an overlapped region may come out a few ulps
// under its own compute (this grid happens to hold at margin 0 too).
func TestPropertyComputeFloorBoundsStable(t *testing.T) {
	ks := mistKnobGrid(8)
	nth := 23
	if *referenceFull {
		nth = 1
	}
	for mi, cfg := range referenceModels() {
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			a := newTestAnalyzerFor(t, cfg, 8, true)
			batch := NewBatch(ks)
			var sc EvalScratch
			var got []Result
			checked := 0
			referenceShapes(cfg.Heads, nth, mi, func(shape StageShape) {
				floor := a.LayerComputeFloor(shape.TP, shape.B)
				if floor <= 0 {
					t.Fatalf("shape %+v: compute floor %v, want > 0", shape, floor)
				}
				for _, serialize := range []bool{false, true} {
					a.Serialize = serialize
					var err error
					if got, err = a.EvaluatePreparedInto(got, shape, batch, &sc); err != nil {
						t.Fatal(err)
					}
					for i, k := range ks {
						if r := got[i]; r.Stable < float64(k.Layers)*floor*(1-1e-9) || r.Delta < 0 {
							t.Fatalf("serialize=%v shape %+v knobs %+v: %+v under the floor %v x %d layers, or negative delta",
								serialize, shape, k, r, floor, k.Layers)
						}
						checked++
					}
				}
			})
			if checked == 0 {
				t.Fatal("no candidate checked")
			}
		})
	}
}
