package evalcache

import (
	"testing"

	"repro/internal/schedule"
)

// fullRowSet is one full MistSpace row: 5 checkpoint counts x 3^4 offload
// tuples = 405 knobs.
func fullRowSet() *KnobSet {
	grid := []float64{0, 0.5, 1}
	var ks []schedule.Knobs
	for ck := 0; ck <= 32; ck += 8 {
		for _, wo := range grid {
			for _, gov := range grid {
				for _, oo := range grid {
					for _, ao := range grid {
						ks = append(ks, schedule.Knobs{Layers: 32, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao})
					}
				}
			}
		}
	}
	return NewKnobSet(ks)
}

// BenchmarkRow prices one full MistSpace row through the cache, per op:
// "miss" is the probe, the analyzer's batch over the row and the publish
// (a fresh cache every pass over the shapes); "hit" is the probe and the
// copy out.
func BenchmarkRow(b *testing.B) {
	an := newTestAnalyzer(b)
	set := fullRowSet()
	var shapes []schedule.StageShape
	for _, mb := range []int{1, 2, 4} {
		for zero := 0; zero <= 3; zero++ {
			for inFlight := 1; inFlight <= 4; inFlight++ {
				shapes = append(shapes, schedule.StageShape{
					B: mb, DP: 2, TP: 2, ZeRO: zero,
					NumStages: inFlight + 1, StageIdx: 0, GradAccum: inFlight,
				})
			}
		}
	}
	var sc Scratch
	var dst []schedule.Result
	var err error
	warm := New(an) // also compiles every shape's program outside the timing
	for _, s := range shapes {
		if dst, err = warm.EvaluateSet(s, set, dst, &sc); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		var c *Cache
		for i := 0; i < b.N; i++ {
			if i%len(shapes) == 0 {
				c = New(an)
			}
			if dst, err = c.EvaluateSet(shapes[i%len(shapes)], set, dst, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if dst, err = warm.EvaluateSet(shapes[i%len(shapes)], set, dst, &sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
