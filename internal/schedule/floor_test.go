package schedule

import (
	"testing"

	"repro/internal/model"
)

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

// TestComputeFloorBuildsNoSections: the compute floor prices the layer's
// compute alone. On a fresh analyzer, LayerComputeFloor at every (TP, b)
// the tuner may enumerate builds no section costs, and once a shape of
// that (TP, b) is priced, the one build equals the floor with ==: the
// floor is exactly the cFwd + cBwd the stage program reads. A degree the
// model does not split reads the trivial floor 0 and builds nothing.
func TestComputeFloorBuildsNoSections(t *testing.T) {
	for _, cfg := range []model.Config{model.MustByName("gpt3-2.7b"), model.MustByName("falcon-1.3b"), model.MustMoEByName("gpt3-1.3b", 8, 2)} {
		a := newTestAnalyzerFor(t, cfg, 8, true)
		floors := map[tpB]float64{}
		for _, tp := range []int{1, 2, 4, 8} {
			for _, b := range []int{1, 2, 3, 8} {
				floors[tpB{tp, b}] = a.LayerComputeFloor(tp, b)
			}
		}
		if got := a.SectionBuilds(); got != 0 {
			t.Fatalf("%s: %d floors built %d section costs, want 0", cfg.Name, len(floors), got)
		}
		if cfg.Heads%3 != 0 {
			if f := a.LayerComputeFloor(3, 1); f != 0 || a.SectionBuilds() != 0 {
				t.Errorf("%s: floor at TP 3 is %v after %d section builds, want 0 and none", cfg.Name, f, a.SectionBuilds())
			}
		}
		built := 0
		for key, floor := range floors {
			shape := StageShape{B: key.b, DP: 1, TP: key.tp, NumStages: 1, GradAccum: 1, HasPre: true}
			if _, err := a.Evaluate(shape, Knobs{Layers: 2}); err != nil {
				t.Fatal(err)
			}
			built++
			if got := a.SectionBuilds(); got != built {
				t.Fatalf("%s: pricing %d (TP, b) built %d section costs", cfg.Name, built, got)
			}
			sp := a.program(shape)
			if floor <= 0 || floor != sp.cFwd+sp.cBwd {
				t.Errorf("%s TP=%d b=%d: floor %v, the priced shape's layer compute %v + %v", cfg.Name, key.tp, key.b, floor, sp.cFwd, sp.cBwd)
			}
		}
	}
}
