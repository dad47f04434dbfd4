package evalcache

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/schedule"
)

// raceShapes are the shapes the concurrent tests price: two pipelined
// stages and two single-stage shapes that are canonically one.
var raceShapes = []schedule.StageShape{
	{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 0, GradAccum: 4, HasPre: true},
	{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 1, GradAccum: 4, HasPost: true},
	{B: 2, DP: 1, TP: 2, ZeRO: 3, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
	{B: 2, DP: 1, TP: 2, ZeRO: 0, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
}

// TestConcurrentMixedHitMissLoad hammers one cache from many goroutines
// with overlapping traffic — single candidates through Evaluate, shared
// six-entry sets through EvaluateSets — and checks, under the race
// detector (`make race`), that every result is the analyzer's and the
// hit/miss accounting stays exact: each set call returns each of its
// points as precisely one hit or one miss, whatever the interleaving.
func TestConcurrentMixedHitMissLoad(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)

	const (
		goroutines = 16
		rounds     = 40
	)
	// A small row population shared by all goroutines guarantees heavy
	// hit/miss mixing: the first toucher of a row misses, everyone else
	// should hit (or miss benignly when racing the first publish).
	shapes := raceShapes[:3]
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
	want := priceDirect(t, an, shapes, sets[:])

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	var setHits, setMisses, singles atomic.Uint64
	totalRequests := 0
	for g := 0; g < goroutines; g++ {
		// Half the goroutines use single-point Evaluate, half sets.
		useSet := g%2 == 1
		totalRequests += rounds * len(shapes) * 6
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			rows := make([][]schedule.Result, 1)
			for r := 0; r < rounds; r++ {
				for si, sh := range shapes {
					if useSet {
						set := sets[(g+r)%8]
						hits, misses, err := c.EvaluateSets(sh, []*KnobSet{set}, rows, &sc)
						if err != nil {
							errs <- err
							return
						}
						if hits+misses != set.Len() {
							errs <- fmt.Errorf("shape %d: %d hits + %d misses for %d points", si, hits, misses, set.Len())
							return
						}
						setHits.Add(uint64(hits))
						setMisses.Add(uint64(misses))
						if !slices.Equal(rows[0], want[si][set]) {
							errs <- fmt.Errorf("shape %d: wrong row", si)
							return
						}
					} else {
						for i := 0; i < 6; i++ {
							set := sets[(g+r+i)%8]
							res, err := c.Evaluate(sh, set.Knobs()[0])
							if err != nil {
								errs <- err
								return
							}
							singles.Add(1)
							if res != want[si][set][0] {
								errs <- fmt.Errorf("result mismatch: got %+v want %+v", res, want[si][set][0])
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

	hits, misses := setHits.Load(), setMisses.Load()
	if got := hits + misses + singles.Load(); got != uint64(totalRequests) {
		t.Errorf("%d set hits + %d set misses + %d singles = %d, want exactly %d requests",
			hits, misses, singles.Load(), got, totalRequests)
	}
	// The row population bounds the cache size: per canonical shape, the
	// eight six-entry sets. Misses can exceed Len when two goroutines race
	// the first publish of a row, but the loser's row must not be stored.
	if population := len(shapes) * 8 * 6; c.Len() != population {
		t.Errorf("cache holds %d results, row population is %d", c.Len(), population)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate traffic: %d hits, %d misses (want a genuine hit/miss mix)", hits, misses)
	}
}

// TestConcurrentEvaluateSetNoTornReads drives EvaluateSet — the copying
// call — over shared KnobSets with per-goroutine Scratch and a recycled
// dst from many goroutines at once: first all of them on the same missing
// row (racing publishes: first wins, every caller still gets the right
// values), then spread over a mixed row population. A torn read, a row
// published under the wrong key, or a stored row aliased by some caller's
// dst (each caller writes its copy) shows up as a mismatch. Run with
// `go test -race -count=10` (make race).
func TestConcurrentEvaluateSetNoTornReads(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)

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
	shapes := raceShapes
	want := priceDirect(t, an, shapes, sets)

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
				si, set := 0, sets[0]
				if r > 0 {
					si, set = (g+r)%len(shapes), sets[(g+r/2)%len(sets)]
				}
				out, err := c.EvaluateSet(shapes[si], set, dst, &sc)
				if err != nil {
					errs <- err
					return
				}
				if !slices.Equal(out, want[si][set]) {
					errs <- fmt.Errorf("shape %d: torn or wrong row %v", si, out)
					return
				}
				for i := range out {
					out[i].Stable = -1 // the copy is ours; the stored row must not see this
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

	// Three canonical shapes x two sets, each row published exactly once
	// however many goroutines raced to price it.
	if want := 3 * (sets[0].Len() + sets[1].Len()); c.Len() != want {
		t.Errorf("cache holds %d results, want %d", c.Len(), want)
	}
}

// TestConcurrentReadersOfAStoredRow: rows are handed out by reference, so
// a caller walks a stored row while other goroutines publish rows beside
// it and look up the same key. Readers of one key all start on it while
// it is missing; whoever loses the race to publish gets the winner's row,
// so every caller ends up holding the one stored array, and the race
// detector (`make race`) sees no write to it after it was published.
func TestConcurrentReadersOfAStoredRow(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	all := windowSets(4, 5, 6, 7, 8, 9, 10)
	key, others := all[0], all[1:]
	want := priceDirect(t, an, raceShapes[:1], all)[0]

	const readers, publishers, rounds = 8, 4, 20
	held := make([]*schedule.Result, readers) // the array each reader was handed
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, readers+publishers)
	for g := 0; g < readers+publishers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			rows := make([][]schedule.Result, 1)
			<-start
			for r := 0; r < rounds; r++ {
				set := key
				if g >= readers { // publishers: another row, then the key
					set = others[(g+r)%len(others)]
					if r%2 == 1 {
						set = key
					}
				}
				if _, _, err := c.EvaluateSets(raceShapes[0], []*KnobSet{set}, rows, &sc); err != nil {
					errs <- err
					return
				}
				row := rows[0]
				for i := range row { // walk it while others publish and look up
					if row[i] != want[set][i] {
						errs <- fmt.Errorf("entry %d of a %d-layer row: %+v, want %+v", i, set.Knobs()[0].Layers, row[i], want[set][i])
						return
					}
				}
				if g < readers {
					if held[g] == nil {
						held[g] = unsafe.SliceData(row)
					} else if held[g] != unsafe.SliceData(row) {
						errs <- fmt.Errorf("reader %d was handed two arrays for one key", g)
						return
					}
				}
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
	for g := range held {
		if held[g] != held[0] {
			t.Fatalf("readers %d and 0 hold different arrays for one key", g)
		}
	}
	if n := len(all) * key.Len(); c.Len() != n {
		t.Errorf("cache holds %d results, want %d: one row per set", c.Len(), n)
	}
}
