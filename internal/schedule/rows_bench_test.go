package schedule

import "testing"

// fullRowSet is one full MistSpace row: 5 checkpoint counts x 3^4 offload
// tuples = 405 knobs.
func fullRowSet() *Batch {
	grid := []float64{0, 0.5, 1}
	var ks []Knobs
	for ck := 0; ck <= 32; ck += 8 {
		for _, wo := range grid {
			for _, gov := range grid {
				for _, oo := range grid {
					for _, ao := range grid {
						ks = append(ks, Knobs{Layers: 32, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao})
					}
				}
			}
		}
	}
	return NewBatch(ks)
}

// BenchmarkRow prices one full MistSpace row through the cache the way
// the tuner does (EvaluateSets, the stored row handed out in place), per
// op: "miss" is the probe, the analyzer's batch over the set into the
// scratch, its staircase and the publish (a fresh cache every pass over
// the shapes), in two allocations, the steps and their positions; "hit"
// is the probe, in none.
func BenchmarkRow(b *testing.B) {
	an := rowsAnalyzer(b)
	set := fullRowSet()
	var shapes []StageShape
	for _, mb := range []int{1, 2, 4} {
		for zero := 0; zero <= 3; zero++ {
			for inFlight := 1; inFlight <= 4; inFlight++ {
				shapes = append(shapes, StageShape{
					B: mb, DP: 2, TP: 2, ZeRO: zero,
					NumStages: inFlight + 1, StageIdx: 0, GradAccum: inFlight,
				})
			}
		}
	}
	var sc EvalScratch
	sets, rows := []*Batch{set}, make([]Row, 1)
	warm := NewRows(an) // also compiles every shape's program outside the timing
	for _, s := range shapes {
		if _, _, err := warm.EvaluateSets(s, sets, rows, &sc); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		var c *Rows
		for i := 0; i < b.N; i++ {
			if i%len(shapes) == 0 {
				c = NewRows(an)
			}
			if _, _, err := c.EvaluateSets(shapes[i%len(shapes)], sets, rows, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := warm.EvaluateSets(shapes[i%len(shapes)], sets, rows, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
