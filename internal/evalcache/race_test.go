package evalcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/schedule"
)

// syntheticEvaluator is a deterministic stand-in for the analyzer: the
// result encodes the canonical point's identity so tests can verify that
// every caller observed the value its point demands, and a counter
// tracks how many points actually reached the backend.
type syntheticEvaluator struct {
	mu    sync.Mutex
	calls int
}

func syntheticResult(s schedule.StageShape, k schedule.Knobs) schedule.Result {
	cs := s.Canonical() // GradAccum carries the in-flight count
	v := float64(cs.B)*1e6 + float64(cs.DP)*1e4 + float64(cs.TP)*1e2 +
		float64(cs.GradAccum)*10 + float64(k.Layers) + float64(k.Ckpt)/100
	return schedule.Result{Stable: v, Delta: v / 2, PeakMem: v * 3}
}

func (c *syntheticEvaluator) Evaluate(s schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return syntheticResult(s, k), nil
}

func (c *syntheticEvaluator) EvaluateSets(s schedule.StageShape, sets []*KnobSet, dsts [][]schedule.Result, _ *Scratch) error {
	for i, set := range sets {
		c.mu.Lock()
		c.calls += set.Len()
		c.mu.Unlock()
		dsts[i] = dsts[i][:0]
		for _, k := range set.Knobs() {
			dsts[i] = append(dsts[i], syntheticResult(s, k))
		}
	}
	return nil
}

// TestConcurrentMixedHitMissLoad hammers one cache from many goroutines
// with overlapping traffic — single candidates through Evaluate, shared
// six-entry sets through EvaluateSets — and checks, under the race
// detector (`make race`), that every result is correct and the hit/miss
// accounting stays exact: each requested point counts as precisely one
// hit or one miss, whatever the interleaving.
func TestConcurrentMixedHitMissLoad(t *testing.T) {
	ev := &syntheticEvaluator{}
	c := New(ev)

	const (
		goroutines = 16
		rounds     = 40
	)
	// A small row population shared by all goroutines guarantees heavy
	// hit/miss mixing: the first toucher of a row misses, everyone else
	// should hit (or miss benignly when racing the first publish).
	shapes := []schedule.StageShape{
		{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 0, GradAccum: 4, HasPre: true},
		{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 1, GradAccum: 4, HasPost: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 3, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
	}
	knobsFor := func(i int) schedule.Knobs {
		return schedule.Knobs{Layers: 8 + i%4, Ckpt: i % 3, WO: float64(i%2) / 2}
	}
	// sets[s]: six consecutive points of the knob cycle from s, one shared
	// set per rotation.
	var sets [8]*KnobSet
	for s := range sets {
		ks := make([]schedule.Knobs, 6)
		for i := range ks {
			ks[i] = knobsFor((s + i) % 8)
		}
		sets[s] = NewKnobSet(ks)
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	totalRequests := 0
	for g := 0; g < goroutines; g++ {
		// Half the goroutines use single-point Evaluate, half sets.
		useSet := g%2 == 1
		perRound := len(shapes) * 6
		totalRequests += rounds * perRound
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			for r := 0; r < rounds; r++ {
				for _, sh := range shapes {
					if useSet {
						set := sets[(g+r)%8]
						rs, err := c.EvaluateSet(sh, set, nil, &sc)
						if err != nil {
							errs <- err
							return
						}
						for i, res := range rs {
							if want := syntheticResult(sh, set.Knobs()[i]); res != want {
								errs <- fmt.Errorf("set result mismatch at %d: got %+v want %+v", i, res, want)
								return
							}
						}
					} else {
						for i := 0; i < 6; i++ {
							k := knobsFor((g + r + i) % 8)
							res, err := c.Evaluate(sh, k)
							if err != nil {
								errs <- err
								return
							}
							if want := syntheticResult(sh, k); res != want {
								errs <- fmt.Errorf("result mismatch: got %+v want %+v", res, want)
								return
							}
						}
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := c.Stats()
	if got := st.Hits + st.Misses; got != uint64(totalRequests) {
		t.Errorf("hits(%d) + misses(%d) = %d, want exactly %d requests", st.Hits, st.Misses, got, totalRequests)
	}
	// The row population bounds the cache size: per shape, the eight
	// six-entry sets. Misses can exceed Len when two goroutines race the
	// first publish of a row, but the loser's row must not be stored.
	if population := len(shapes) * 8 * 6; c.Len() > population {
		t.Errorf("cache holds %d results, row population is %d", c.Len(), population)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate traffic: %+v (want a genuine hit/miss mix)", st)
	}
	// The backend saw every miss and nothing else.
	if uint64(ev.calls) != st.Misses {
		t.Errorf("backend evaluated %d points, cache counted %d misses", ev.calls, st.Misses)
	}
}

// TestConcurrentEvaluateSetNoTornReads drives the tuner's actual hot
// path — EvaluateSet over shared KnobSets with per-goroutine Scratch and
// a recycled dst — from many goroutines at once: first all of them on
// the same missing row (racing publishes: first wins, every caller still
// gets the right values), then spread over a mixed row population. Every
// Result's fields are derived from its canonical point, so a torn read, a
// row published under the wrong key, or a stored row aliased by some
// caller's dst shows up as a field mismatch. Run with
// `go test -race -count=10` (make race).
func TestConcurrentEvaluateSetNoTornReads(t *testing.T) {
	ev := &syntheticEvaluator{}
	c := New(ev)

	// Two shared KnobSets with overlapping knob populations (including
	// in-set duplicates, priced entry by entry) and a handful of shapes,
	// two of them canonically equivalent.
	mk := func(n, stride int) *KnobSet {
		ks := make([]schedule.Knobs, n)
		for i := range ks {
			j := (i * stride) % 5
			ks[i] = schedule.Knobs{Layers: 6 + j, Ckpt: j % 3, WO: float64(j%2) / 2}
		}
		return NewKnobSet(ks)
	}
	sets := []*KnobSet{mk(12, 1), mk(9, 2)}
	shapes := []schedule.StageShape{
		{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 0, GradAccum: 4, HasPre: true},
		{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 1, GradAccum: 4, HasPost: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 3, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 0, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
	}

	const goroutines = 16
	const rounds = 60
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch // per-goroutine, like the tuner's pooled scratch
			var dst []schedule.Result
			<-start
			for r := 0; r < rounds; r++ {
				// Round 0 puts every goroutine on one row; later rounds mix.
				sh, set := shapes[0], sets[0]
				if r > 0 {
					sh, set = shapes[(g+r)%len(shapes)], sets[(g+r/2)%len(sets)]
				}
				out, err := c.EvaluateSet(sh, set, dst, &sc)
				if err != nil {
					errs <- err
					return
				}
				if len(out) != set.Len() {
					errs <- fmt.Errorf("got %d results for a %d-knob set", len(out), set.Len())
					return
				}
				for i := range out {
					if want := syntheticResult(sh, set.Knobs()[i]); out[i] != want {
						errs <- fmt.Errorf("torn or wrong result at %d: got %+v want %+v", i, out[i], want)
						return
					}
					out[i].Stable = -1 // the slice is ours; the stored row must not see this
				}
				dst = out[:0]
			}
			errs <- nil
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate traffic: %+v", st)
	}
	requested := uint64(0)
	for g := 0; g < goroutines; g++ {
		requested += uint64(sets[0].Len())
		for r := 1; r < rounds; r++ {
			requested += uint64(sets[(g+r/2)%len(sets)].Len())
		}
	}
	if got := st.Hits + st.Misses; got != requested {
		t.Errorf("hits(%d) + misses(%d) = %d, want exactly %d requested points", st.Hits, st.Misses, got, requested)
	}
	// The backend priced only misses; hits came from the cache.
	if uint64(ev.calls) != st.Misses {
		t.Errorf("backend evaluated %d points, cache counted %d misses", ev.calls, st.Misses)
	}
	// Three canonical shapes x two sets, each row published exactly once
	// however many goroutines raced to price it.
	if want := 3 * (sets[0].Len() + sets[1].Len()); c.Len() != want {
		t.Errorf("cache holds %d results, want %d", c.Len(), want)
	}
}
