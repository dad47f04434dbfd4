package evalcache

import (
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
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

// A window with two of its five rows already stored prices exactly the
// other three sets, and hands out the stored two as hits; every set is a
// hit afterwards, in any list.
func TestWindowPricesOnlyMissingRows(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()
	window := windowSets(6, 7, 8, 9, 10)
	n := window[0].Len()
	var sc Scratch

	// Rows 7 and 9 arrive first, through another list (an overlapping
	// window of a different pipeline depth, say).
	early := []*KnobSet{window[1], window[3]}
	hits, misses, err := c.EvaluateSets(shape, early, make([]Row, 2), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if misses != 2*n || hits != 0 {
		t.Fatalf("the first two rows: %d hits / %d misses, want 0 / %d", hits, misses, 2*n)
	}

	rows := make([]Row, len(window))
	hits, misses, err = c.EvaluateSets(shape, window, rows, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 2*n || misses != 3*n {
		t.Errorf("window: %d hits / %d misses, want the %d of the two stored rows / the %d of the three missing", hits, misses, 2*n, 3*n)
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
			if rows[i].Results[j] != direct {
				t.Errorf("set %d entry %d: %+v != direct %+v", i, j, rows[i].Results[j], direct)
			}
		}
	}

	// Every row now hits: as the same window, reversed, or one at a time.
	back := slices.Clone(window)
	slices.Reverse(back)
	if hits, misses, err := c.EvaluateSets(shape, back, rows, &sc); err != nil || hits != 5*n || misses != 0 {
		t.Errorf("a fully stored window: %d hits / %d misses (%v), want %d / 0", hits, misses, err, 5*n)
	}
	if hits, misses, err := c.EvaluateSets(shape, window[2:3], rows[:1], &sc); err != nil || hits != n || misses != 0 {
		t.Errorf("one stored row: %d hits / %d misses (%v), want %d / 0", hits, misses, err, n)
	}
}

// An all-hit window allocates nothing.
func TestWindowHitAllocatesNothing(t *testing.T) {
	c := New(newTestAnalyzer(t))
	shape := testShape()
	window := windowSets(6, 7, 8, 9, 10)
	rows := make([]Row, len(window))
	var sc Scratch
	if _, _, err := c.EvaluateSets(shape, window, rows, &sc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := c.EvaluateSets(shape, window, rows, &sc); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("all-hit window allocated %v times per call, want 0", allocs)
	}
}

// An all-miss call allocates the row it publishes and nothing wider: 24
// bytes per point — schedule.Result is what the search reads of a point,
// no more — and the call's staircase slab, two allocations in all (the
// work lists live on the stack). The in-tree twin of mistperf's
// evalcache.bytes_per_point.
func TestMissAllocatesItsRowOnly(t *testing.T) {
	an := newTestAnalyzer(t)
	set := fullRowSet()
	sets, rows := []*KnobSet{set}, make([]Row, 1)
	first, second := testShape(), testShape()
	second.B = 4
	var sc Scratch
	// Paid outside the measurement: both shapes' programs (through a
	// throwaway cache), then in each measured cache the row map's first
	// bucket, and the scratch's growth.
	for _, shape := range []schedule.StageShape{first, second} {
		if _, _, err := New(an).EvaluateSets(shape, sets, rows, &sc); err != nil {
			t.Fatal(err)
		}
	}

	// The runtime allocates on its own account when it starts an OS thread
	// (its m and g structures, 5 allocations), and inside the window that
	// reads as the row's. A window across which the thread count rose is
	// measured again on a fresh cache; any other reading stands.
	var allocs, got uint64
	threads := pprof.Lookup("threadcreate")
	for attempt := 0; ; attempt++ {
		c := New(an)
		if _, _, err := c.EvaluateSets(first, sets, rows, &sc); err != nil {
			t.Fatal(err)
		}
		started := threads.Count()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hits, misses, err := c.EvaluateSets(second, sets, rows, &sc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if misses != set.Len() || hits != 0 {
			t.Fatalf("%d hits / %d misses, want an all-miss row", hits, misses)
		}
		allocs, got = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		if threads.Count() == started {
			break
		}
		if attempt == 4 {
			t.Fatalf("the runtime started an OS thread in each of %d windows", attempt+1)
		}
	}
	const slack = 2 << 10 // size-class rounding of the row, the staircase slab, a map slot
	row := uint64(set.Len()) * 24
	if got < row || got > row+slack {
		t.Errorf("an all-miss row of %d points allocated %d bytes, want its %d-byte row and at most %d more", set.Len(), got, row, slack)
	}
	if allocs > 2 {
		t.Errorf("an all-miss row took %d allocations, want at most 2: the row and the staircase slab", allocs)
	}
}

// A window holding an invalid set fails as a whole: nothing is stored
// and nothing is counted — not the stored rows it would have hit, not the
// valid sets priced beside the invalid one.
func TestWindowErrorNeitherStoredNorCounted(t *testing.T) {
	c := New(newTestAnalyzer(t))
	shape := testShape()
	window := windowSets(6, 7, 8)
	var sc Scratch
	if _, _, err := c.EvaluateSets(shape, window[:1], make([]Row, 1), &sc); err != nil {
		t.Fatal(err)
	}
	held := c.Len()
	bad := NewKnobSet([]schedule.Knobs{{Layers: 4, Ckpt: 9}})
	hits, misses, err := c.EvaluateSets(shape, []*KnobSet{window[0], window[1], bad, window[2]}, make([]Row, 4), &sc)
	if err == nil {
		t.Fatal("window with an invalid set accepted")
	}
	if hits != 0 || misses != 0 {
		t.Errorf("failed window reported %d hits / %d misses, want none", hits, misses)
	}
	if c.Len() != held {
		t.Errorf("failed window left a trace: len %d (before %d)", c.Len(), held)
	}
}

// TestConcurrentWindowPublishRace puts many goroutines on the same
// missing window at once, then on overlapping windows (the
// heterogeneous-device case: one canonical shape, windows sharing some
// layer counts): every caller gets the right values, each row is stored
// once however many raced to publish it, and each requested point comes
// back as exactly one hit or one miss. Run with `go test -race -count=10`
// (make race).
func TestConcurrentWindowPublishRace(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	all := windowSets(4, 5, 6, 7, 8, 9, 10)
	windows := [][]*KnobSet{all[0:5], all[1:6], all[2:7]}
	shapes := []schedule.StageShape{
		{B: 1, DP: 2, TP: 1, NumStages: 2, StageIdx: 0, GradAccum: 4, HasPre: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 3, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true},
		{B: 2, DP: 1, TP: 2, ZeRO: 0, NumStages: 1, StageIdx: 0, GradAccum: 1, HasPre: true, HasPost: true}, // canonically the one above
	}
	want := priceDirect(t, an, shapes, all)
	const goroutines, rounds = 16, 30
	n := all[0].Len()
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var returned [2]atomic.Uint64 // hits, misses as the calls reported them
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc Scratch
			rows := make([]Row, 5)
			<-start
			for r := 0; r < rounds; r++ {
				si, wi := 0, 0 // round 0: everyone on one missing window
				if r > 0 {
					si, wi = (g+r)%len(shapes), (g+r/3)%len(windows)
				}
				hits, misses, err := c.EvaluateSets(shapes[si], windows[wi], rows, &sc)
				if err != nil {
					errs <- err
					return
				}
				returned[0].Add(uint64(hits))
				returned[1].Add(uint64(misses))
				for i, set := range windows[wi] {
					if !slices.Equal(rows[i].Results, want[si][set]) {
						errs <- fmt.Errorf("shape %d, %d-layer set: torn or wrong row", si, set.Knobs()[0].Layers)
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
	hits, misses := returned[0].Load(), returned[1].Load()
	if want := uint64(goroutines * rounds * 5 * n); hits+misses != want {
		t.Errorf("hits(%d) + misses(%d), want exactly the %d requested points", hits, misses, want)
	}
	if hits == 0 || misses == 0 {
		t.Errorf("degenerate traffic: %d hits, %d misses", hits, misses)
	}
	if want := 2 * len(all) * n; c.Len() != want { // two canonical shapes x seven rows
		t.Errorf("cache holds %d results, want %d", c.Len(), want)
	}
}

// priceDirect prices every set under every shape on the analyzer itself,
// outside any cache: the values a cached row must hold.
func priceDirect(t testing.TB, an *schedule.Analyzer, shapes []schedule.StageShape, sets []*KnobSet) []map[*KnobSet][]schedule.Result {
	t.Helper()
	var sc schedule.EvalScratch
	out := make([]map[*KnobSet][]schedule.Result, len(shapes))
	for i, sh := range shapes {
		rows := make([][]schedule.Result, len(sets))
		if err := an.EvaluateSets(sh, sets, rows, &sc); err != nil {
			t.Fatal(err)
		}
		out[i] = map[*KnobSet][]schedule.Result{}
		for j, set := range sets {
			out[i][set] = rows[j]
		}
	}
	return out
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
		if _, _, err := c.EvaluateSets(testShape(), windowSets(6, 7, 8), make([]Row, 3), &sc); err != nil {
			t.Fatal(err)
		}
		if _, err := an.EvaluateBatchInto(nil, testShape(), windowSets(9)[0].Knobs(), &sc.eval); err != nil {
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

// A call the cache cannot key or index is refused before anything is
// priced, and nothing is stored or counted: a set longer than uint16
// staircase positions reach, and a shape field past the key's int32.
func TestOutOfRangeCallsAreRefused(t *testing.T) {
	c := New(newTestAnalyzer(t))
	long := make([]schedule.Knobs, maxRowLen+1)
	for i := range long {
		long[i] = schedule.Knobs{Layers: 8}
	}
	wide := testShape()
	wide.B = math.MaxInt32
	wide.B++ // past int32 where int is 64 bits wide
	cases := []struct {
		name  string
		shape schedule.StageShape
		set   *KnobSet
	}{
		{"long set", testShape(), NewKnobSet(long)},
		{"wide shape", wide, windowSets(8)[0]},
	}
	if wide.B < 0 { // int is 32 bits wide: every shape fits the key
		cases = cases[:1]
	}
	var sc Scratch
	for _, tc := range cases {
		hits, misses, err := c.EvaluateSets(tc.shape, []*KnobSet{tc.set}, make([]Row, 1), &sc)
		if err == nil || hits != 0 || misses != 0 || c.Len() != 0 {
			t.Errorf("%s: %d hits, %d misses, %d held, err %v; want refused", tc.name, hits, misses, c.Len(), err)
		}
	}
}
