package evalcache

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/schedule"
)

// windowSets builds one small knob set per layer count, the way the
// tuner's window does: same offload tuples, ckpt-major, differing in l
// and ckpt only.
func windowSets(layers ...int) []*KnobSet {
	sets := make([]*KnobSet, len(layers))
	for i, l := range layers {
		var ks []schedule.Knobs
		for _, ck := range []int{0, l / 2, l} {
			for _, wo := range []float64{0, 0.5} {
				for _, ao := range []float64{0, 1} {
					ks = append(ks, schedule.Knobs{Layers: l, Ckpt: ck, WO: wo, AO: ao})
				}
			}
		}
		sets[i] = NewKnobSet(ks)
	}
	return sets
}

// A window with two of its five rows already stored sends exactly the
// other three sets to the backend, in one call; the stored two are
// copied out as hits; every set is a hit afterwards, in any list.
func TestWindowPricesOnlyMissingRows(t *testing.T) {
	an := newTestAnalyzer(t)
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	shape := testShape()
	window := windowSets(6, 7, 8, 9, 10)
	n := window[0].Len()
	var sc Scratch

	// Rows 7 and 9 arrive first, through another list (an overlapping
	// window of a different pipeline depth, say).
	early := []*KnobSet{window[1], window[3]}
	if err := c.EvaluateSets(shape, early, make([][]schedule.Result, 2), &sc); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != uint64(2*n) || st.Hits != 0 {
		t.Fatalf("stats after the first two rows %+v, want %d misses", st, 2*n)
	}

	callsBefore, pricedBefore := ce.calls.Load(), ce.batched.Load()
	dsts := make([][]schedule.Result, len(window))
	if err := c.EvaluateSets(shape, window, dsts, &sc); err != nil {
		t.Fatal(err)
	}
	if calls := ce.calls.Load() - callsBefore; calls != 1 {
		t.Errorf("window went to the backend in %d calls, want 1", calls)
	}
	if priced := ce.batched.Load() - pricedBefore; priced != int64(3*n) {
		t.Errorf("backend priced %d points for the window, want the %d of the three missing rows", priced, 3*n)
	}
	if st := c.Stats(); st.Misses != uint64(5*n) || st.Hits != uint64(2*n) {
		t.Errorf("stats %+v, want %d misses / %d hits", st, 5*n, 2*n)
	}
	if c.Len() != 5*n {
		t.Errorf("cache holds %d results, want %d", c.Len(), 5*n)
	}
	for i, set := range window {
		for j, k := range set.Knobs() {
			direct, err := an.Evaluate(shape, k)
			if err != nil {
				t.Fatal(err)
			}
			if dsts[i][j] != direct {
				t.Errorf("set %d entry %d: %+v != direct %+v", i, j, dsts[i][j], direct)
			}
		}
	}

	// Every row now hits: as the same window, reversed, or one at a time.
	callsBefore = ce.calls.Load()
	back := slices.Clone(window)
	slices.Reverse(back)
	if err := c.EvaluateSets(shape, back, dsts, &sc); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvaluateSet(shape, window[2], nil, &sc); err != nil {
		t.Fatal(err)
	}
	if ce.calls.Load() != callsBefore {
		t.Error("a fully stored window reached the backend")
	}
	requested := uint64((2 + 5 + 5 + 1) * n)
	if st := c.Stats(); st.Hits+st.Misses != requested || st.Misses != uint64(5*n) {
		t.Errorf("stats %+v, want hits+misses == the %d candidates priced with %d misses", st, requested, 5*n)
	}
}

// An all-hit window allocates nothing once the caller's buffers have
// grown.
func TestWindowHitAllocatesNothing(t *testing.T) {
	c := New(newTestAnalyzer(t))
	shape := testShape()
	window := windowSets(6, 7, 8, 9, 10)
	dsts := make([][]schedule.Result, len(window))
	var sc Scratch
	if err := c.EvaluateSets(shape, window, dsts, &sc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := c.EvaluateSets(shape, window, dsts, &sc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("all-hit window allocated %v times per call, want 0", allocs)
	}
}

// An all-miss call allocates the row it publishes and nothing wider: 24
// bytes per point — schedule.Result is what the search reads of a point,
// no more — beside the two work lists. The in-tree twin of mistperf's
// evalcache.bytes_per_point.
func TestMissAllocatesItsRowOnly(t *testing.T) {
	an := newTestAnalyzer(t)
	set := fullRowSet()
	sets, dsts := []*KnobSet{set}, make([][]schedule.Result, 1)
	first, second := testShape(), testShape()
	second.B = 4
	var sc Scratch
	// Paid outside the measurement: both shapes' programs (through a
	// throwaway cache), then in c the row map's first bucket and the
	// buffers' growth.
	for _, shape := range []schedule.StageShape{first, second} {
		if err := New(an).EvaluateSets(shape, sets, dsts, &sc); err != nil {
			t.Fatal(err)
		}
	}
	c := New(an)
	if err := c.EvaluateSets(first, sets, dsts, &sc); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.EvaluateSets(second, sets, dsts, &sc)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != uint64(2*set.Len()) || st.Hits != 0 {
		t.Fatalf("stats %+v, want two all-miss rows", st)
	}
	const slack = 2 << 10 // size-class rounding of the row, the work lists, a map slot
	got, row := after.TotalAlloc-before.TotalAlloc, uint64(set.Len())*24
	if got < row || got > row+slack {
		t.Errorf("an all-miss row of %d points allocated %d bytes, want its %d-byte row and at most %d more", set.Len(), got, row, slack)
	}
}

// A window holding an invalid set fails as a whole: nothing is stored
// and no counter moves — not for the stored rows it would have hit, not
// for the valid sets priced beside the invalid one.
func TestWindowErrorNeitherStoredNorCounted(t *testing.T) {
	c := New(newTestAnalyzer(t))
	shape := testShape()
	window := windowSets(6, 7, 8)
	var sc Scratch
	if err := c.EvaluateSets(shape, window[:1], make([][]schedule.Result, 1), &sc); err != nil {
		t.Fatal(err)
	}
	before, held := c.Stats(), c.Len()
	bad := NewKnobSet([]schedule.Knobs{{Layers: 4, Ckpt: 9}})
	err := c.EvaluateSets(shape, []*KnobSet{window[0], window[1], bad, window[2]}, make([][]schedule.Result, 4), &sc)
	if err == nil {
		t.Fatal("window with an invalid set accepted")
	}
	if st := c.Stats(); st != before || c.Len() != held {
		t.Errorf("failed window left a trace: stats %+v (before %+v), len %d (before %d)", st, before, c.Len(), held)
	}
}

// TestConcurrentWindowPublishRace puts many goroutines on the same
// missing window at once, then on overlapping windows (the
// heterogeneous-device case: one canonical shape, windows sharing some
// layer counts): every caller gets the right values, each row is stored
// once however many raced to publish it, and each requested point counts
// as exactly one hit or one miss. Run with `go test -race -count=10`
// (make race).
func TestConcurrentWindowPublishRace(t *testing.T) {
	ev := &syntheticEvaluator{}
	c := New(ev)
	all := windowSets(4, 5, 6, 7, 8, 9, 10)
	windows := [][]*KnobSet{all[0:5], all[1:6], all[2:7]}
	shapes := []schedule.StageShape{
		{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 0, GradAccum: 4, HasPre: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 3, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 0, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true}, // canonically the one above
	}
	const goroutines, rounds = 16, 30
	n := all[0].Len()
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			dsts := make([][]schedule.Result, 5)
			<-start
			for r := 0; r < rounds; r++ {
				sh, w := shapes[0], windows[0] // round 0: everyone on one missing window
				if r > 0 {
					sh, w = shapes[(g+r)%len(shapes)], windows[(g+r/3)%len(windows)]
				}
				if err := c.EvaluateSets(sh, w, dsts, &sc); err != nil {
					errs <- err
					return
				}
				for i, set := range w {
					if len(dsts[i]) != set.Len() {
						errs <- fmt.Errorf("got %d results for a %d-knob set", len(dsts[i]), set.Len())
						return
					}
					for j, k := range set.Knobs() {
						if want := syntheticResult(sh, k); dsts[i][j] != want {
							errs <- fmt.Errorf("torn or wrong result: got %+v want %+v", dsts[i][j], want)
							return
						}
						dsts[i][j].Stable = -1 // ours; the stored row must not see this
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
	st := c.Stats()
	if want := uint64(goroutines * rounds * 5 * n); st.Hits+st.Misses != want {
		t.Errorf("hits(%d) + misses(%d), want exactly the %d requested points", st.Hits, st.Misses, want)
	}
	if uint64(ev.calls) != st.Misses {
		t.Errorf("backend evaluated %d points, cache counted %d misses", ev.calls, st.Misses)
	}
	if want := 2 * len(all) * n; c.Len() != want { // two canonical shapes x seven rows
		t.Errorf("cache holds %d results, want %d", c.Len(), want)
	}
}

// A scratch outlives the calls it serves (the tuner pools them), so it
// must not hold on to the cache a call went through: a pooled scratch
// would keep a dropped cache and every row it stores alive.
func TestScratchDoesNotPinCache(t *testing.T) {
	an := newTestAnalyzer(t)
	var sc Scratch
	freed := make(chan struct{})
	func() {
		c := New(an)
		runtime.SetFinalizer(c, func(*Cache) { close(freed) })
		if err := c.EvaluateSets(testShape(), windowSets(6, 7, 8), make([][]schedule.Result, 3), &sc); err != nil {
			t.Fatal(err)
		}
		if _, err := an.EvaluateBatchInto(nil, testShape(), windowSets(9)[0].Knobs(), &sc); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			runtime.KeepAlive(&sc)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the cache is still reachable after its last use: the scratch kept a reference to a knob set")
	runtime.KeepAlive(&sc)
}
