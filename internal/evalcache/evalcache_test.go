package evalcache

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/schedule"
)

func newTestAnalyzer(t testing.TB) *schedule.Analyzer {
	t.Helper()
	nodes, perNode, err := hardware.MeshForGPUs(4)
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.L4Cluster(nodes, perNode)
	db := opdb.New(cl.GPU)
	intf := interference.Fit(interference.PCIeFluid(), 10, rand.New(rand.NewSource(1)))
	return schedule.NewAnalyzer(model.MustByName("gpt3-2.7b"), 2048, true, cl, db, intf)
}

func testShape() schedule.StageShape {
	return schedule.StageShape{
		B: 2, DP: 2, TP: 2, ZeRO: 0,
		HasPre: true, HasPost: true,
		NumStages: 1, StageIdx: 0, GradAccum: 4,
	}
}

// evaluateSet prices one set through c and returns its stored row with
// the call's hit and miss counts.
func evaluateSet(c *Cache, s schedule.StageShape, set *KnobSet) (row []schedule.Result, hits, misses int, err error) {
	var sc Scratch
	rows := [][]schedule.Result{nil}
	hits, misses, err = c.EvaluateSets(s, []*KnobSet{set}, rows, &sc)
	return rows[0], hits, misses, err
}

// A set priced twice through one cache is served from its row the second
// time, with the analyzer's own values.
func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()
	k := schedule.Knobs{Layers: 32, Ckpt: 16, AO: 0.5}
	set := NewKnobSet([]schedule.Knobs{k})

	r1, hits, misses, err := evaluateSet(c, shape, set)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 0 || misses != 1 {
		t.Errorf("first call: %d hits / %d misses, want 0 / 1", hits, misses)
	}
	r2, hits, misses, err := evaluateSet(c, shape, set)
	if err != nil {
		t.Fatal(err)
	}
	if hits != 1 || misses != 0 {
		t.Errorf("second call: %d hits / %d misses, want 1 / 0", hits, misses)
	}
	if r1[0] != r2[0] {
		t.Errorf("cached result %+v != first result %+v", r2[0], r1[0])
	}
	direct, err := an.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	if r2[0] != direct {
		t.Errorf("cached result %+v != direct analyzer result %+v", r2[0], direct)
	}
}

// A single candidate is priced on the analyzer and stored nowhere: the
// cache's size does not move, even for a point a stored row holds, the row
// still answers its set whole, and the call allocates what the analyzer's
// own Evaluate does and nothing more (no set, no row, no counter).
func TestEvaluateStoresNothing(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()
	k := schedule.Knobs{Layers: 32, Ckpt: 8, WO: 0.5}
	set := NewKnobSet([]schedule.Knobs{{Layers: 32}, k})
	if _, _, _, err := evaluateSet(c, shape, set); err != nil {
		t.Fatal(err)
	}
	held := c.Len()
	r, err := c.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	if direct, _ := an.Evaluate(shape, k); r != direct {
		t.Errorf("Evaluate %+v != direct analyzer result %+v", r, direct)
	}
	if c.Len() != held {
		t.Errorf("Evaluate changed Len %d -> %d", held, c.Len())
	}
	if _, hits, misses, err := evaluateSet(c, shape, set); err != nil || hits != set.Len() || misses != 0 {
		t.Errorf("the set after Evaluate: %d hits / %d misses (%v), want %d / 0", hits, misses, err, set.Len())
	}
	bare := testing.AllocsPerRun(50, func() { an.Evaluate(shape, k) })
	if cached := testing.AllocsPerRun(50, func() { c.Evaluate(shape, k) }); cached != bare {
		t.Errorf("Cache.Evaluate allocated %v times, the analyzer's Evaluate %v", cached, bare)
	}
}

// Canonicalization: shapes built differently but provably equivalent
// must share one row, and shapes that can price differently must not.
func TestCanonicalKeyCollapsesEquivalentShapes(t *testing.T) {
	an := newTestAnalyzer(t)
	k := schedule.Knobs{Layers: 8, Ckpt: 4, AO: 0.5}
	set := NewKnobSet([]schedule.Knobs{k})
	// sharesRow prices set under a then b through a fresh cache and
	// reports whether b was served from a's row.
	sharesRow := func(a, b schedule.StageShape) bool {
		t.Helper()
		c := New(an)
		var hits, misses int
		for _, s := range []schedule.StageShape{a, b} {
			_, h, m, err := evaluateSet(c, s, set)
			if err != nil {
				t.Fatal(err)
			}
			hits, misses = hits+h, misses+m
		}
		return hits == 1 && misses == 1
	}

	// ZeRO is a no-op without data parallelism: all levels collapse.
	noDP := schedule.StageShape{B: 2, DP: 1, TP: 4, NumStages: 1, StageIdx: 0, GradAccum: 4}
	for z := 1; z <= 3; z++ {
		s := noDP
		s.ZeRO = z
		if !sharesRow(noDP, s) {
			t.Errorf("ZeRO=%d under DP=1 did not share ZeRO=0's row", z)
		}
	}
	withDP := noDP
	withDP.DP, withDP.TP = 2, 2
	zero2 := withDP
	zero2.ZeRO = 2
	if sharesRow(withDP, zero2) {
		t.Error("ZeRO levels under DP>1 must NOT collapse")
	}

	// (NumStages, StageIdx, GradAccum) enter only via the in-flight count
	// and the pipelined flag: stage 1 of 4 with G=2 holds min(2, 3) = 2
	// in-flight microbatches, same as stage 2 of 4 (min(2, 2) = 2) and as
	// stage 6 of 8 with G=2.
	a := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 1, GradAccum: 2}
	b := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 2, GradAccum: 2}
	d := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 8, StageIdx: 6, GradAccum: 2}
	if !sharesRow(a, b) || !sharesRow(a, d) {
		t.Error("equal in-flight pipelined stages should share a row")
	}
	// ... but a single-stage shape (no p2p) must not match a pipelined one.
	single := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 1, StageIdx: 0, GradAccum: 2}
	deep := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 2, StageIdx: 1, GradAccum: 1}
	if sharesRow(single, deep) {
		t.Error("single-stage and pipelined shapes must not collapse")
	}
	// Different sets never share a row.
	c := New(an)
	k2 := k
	k2.WO = 0.5
	for _, s := range []*KnobSet{set, NewKnobSet([]schedule.Knobs{k2})} {
		if _, hits, misses, err := evaluateSet(c, a, s); err != nil || hits != 0 || misses != 1 {
			t.Errorf("different sets shared a row: %d hits / %d misses (%v), want 0 / 1", hits, misses, err)
		}
	}
}

// The cached result for a canonically-equal but differently-built shape
// must be bitwise identical to evaluating that shape directly (the
// canonicalization must be semantics-preserving, not just convenient).
func TestCanonicalShapesEvaluateIdentically(t *testing.T) {
	an := newTestAnalyzer(t)
	k := schedule.Knobs{Layers: 8, Ckpt: 4, OO: 0.5}
	a := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 1, GradAccum: 2}
	b := schedule.StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 2, GradAccum: 2}
	ra, err := an.Evaluate(a, k)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := an.Evaluate(b, k)
	if err != nil {
		t.Fatal(err)
	}
	if ra != rb {
		t.Fatalf("canonically-equal shapes price differently: %+v vs %+v", ra, rb)
	}
	zeroA := schedule.StageShape{B: 2, DP: 1, TP: 4, ZeRO: 0, NumStages: 1, GradAccum: 4}
	zeroB := zeroA
	zeroB.ZeRO = 3
	r0, err := an.Evaluate(zeroA, k)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := an.Evaluate(zeroB, k)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != r3 {
		t.Fatalf("ZeRO 0 vs 3 under DP=1 price differently: %+v vs %+v", r0, r3)
	}
}

// Rows are keyed by set: a repeat of a set is served whole from its row,
// in-set duplicates are priced entry by entry (each a miss the first
// time), and a set that merely overlaps an earlier one shares nothing
// with it.
func TestEvaluateBatchPartialHitsAndDuplicates(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()

	warm := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	_, hits, misses, err := evaluateSet(c, shape, NewKnobSet(warm))
	if err != nil || misses != 2 {
		t.Fatalf("warmup priced %d points (%v), want 2", misses, err)
	}

	// Overlaps the warm set and repeats one of its own entries.
	mixed := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 16},
		{Layers: 32, Ckpt: 8},
		{Layers: 32, Ckpt: 16}, // duplicate of entry 1
		{Layers: 32, Ckpt: 24},
	}
	set := NewKnobSet(mixed)
	for pass, wantPriced := range []int{5, 0} { // first pass prices all 5 entries, second nothing
		rs, h, m, err := evaluateSet(c, shape, set)
		if err != nil {
			t.Fatal(err)
		}
		if m != wantPriced || h != 5-wantPriced {
			t.Errorf("pass %d: %d hits / %d misses, want %d misses", pass, h, m, wantPriced)
		}
		hits, misses = hits+h, misses+m
		for i, k := range mixed {
			direct, err := an.Evaluate(shape, k)
			if err != nil {
				t.Fatal(err)
			}
			if rs[i] != direct {
				t.Errorf("pass %d: set[%d] %+v != direct %+v", pass, i, rs[i], direct)
			}
		}
	}
	// warm: 2 misses. mixed cold: 5 misses. mixed again: 5 hits.
	if hits != 5 || misses != 7 {
		t.Errorf("%d hits / %d misses, want 5 / 7", hits, misses)
	}
	if got, want := hits+misses, len(warm)+2*len(mixed); got != want {
		t.Errorf("hits+misses = %d, want the %d candidates priced", got, want)
	}
	if c.Len() != len(warm)+len(mixed) {
		t.Errorf("cache holds %d results, want %d (one per row entry)", c.Len(), len(warm)+len(mixed))
	}
}

// EvaluateSets hands out the stored row itself: the row a miss returns
// is the one every later hit returns (one backing array, nothing copied),
// and it is, bit for bit, what the analyzer prices for the same shape and
// set. EvaluateSet still copies: its slice is the caller's to write, and
// writing it never reaches the stored row.
func TestReturnedRowIsTheStoredRow(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()
	set := NewKnobSet([]schedule.Knobs{{Layers: 32, Ckpt: 0}, {Layers: 32, Ckpt: 8, AO: 0.5}, {Layers: 32, Ckpt: 32, WO: 1}})
	missed, _, misses, err := evaluateSet(c, shape, set)
	if err != nil || misses != set.Len() {
		t.Fatalf("first call: %d misses (%v), want %d", misses, err, set.Len())
	}
	var sc Scratch
	want := [][]schedule.Result{nil}
	if err := an.EvaluateSets(shape, []*KnobSet{set}, want, &sc); err != nil {
		t.Fatal(err)
	}
	same := func(a, b schedule.Result) bool {
		return math.Float64bits(a.Stable) == math.Float64bits(b.Stable) &&
			math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
			math.Float64bits(a.PeakMem) == math.Float64bits(b.PeakMem)
	}
	for i := range want[0] {
		if !same(missed[i], want[0][i]) {
			t.Errorf("entry %d: the cache's row holds %+v, the analyzer prices %+v", i, missed[i], want[0][i])
		}
	}
	for round := 0; round < 2; round++ {
		hit, hits, _, err := evaluateSet(c, shape, set)
		if err != nil || hits != set.Len() {
			t.Fatalf("round %d: %d hits (%v), want %d", round, hits, err, set.Len())
		}
		if len(hit) != len(missed) || unsafe.SliceData(hit) != unsafe.SliceData(missed) {
			t.Errorf("round %d: a hit returned another array than the miss did", round)
		}
		copied, err := c.EvaluateSet(shape, set, nil, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(copied) == unsafe.SliceData(missed) {
			t.Fatal("EvaluateSet returned the stored row, not a copy")
		}
		for i := range copied {
			copied[i] = schedule.Result{Stable: -1}
		}
		for i := range missed {
			if !same(missed[i], want[0][i]) {
				t.Fatalf("round %d: writing EvaluateSet's slice reached the stored row", round)
			}
		}
	}
}

// A set holding an invalid entry fails as a whole: no row is stored and
// the call counts nothing, duplicates included.
func TestErrorRowNeitherStoredNorCounted(t *testing.T) {
	c := New(newTestAnalyzer(t))
	good := schedule.Knobs{Layers: 32, Ckpt: 8}
	bad := NewKnobSet([]schedule.Knobs{good, good, {Layers: 4, Ckpt: 9}})
	for i := 0; i < 2; i++ {
		_, hits, misses, err := evaluateSet(c, testShape(), bad)
		if err == nil {
			t.Fatal("set with an invalid entry accepted")
		}
		if hits != 0 || misses != 0 || c.Len() != 0 {
			t.Errorf("failed row left a trace: %d hits / %d misses, len %d", hits, misses, c.Len())
		}
	}
	// The same valid entries in a set of their own still price normally,
	// entry by entry.
	_, hits, misses, err := evaluateSet(c, testShape(), NewKnobSet([]schedule.Knobs{good, good}))
	if err != nil {
		t.Fatal(err)
	}
	if misses != 2 || hits != 0 || c.Len() != 2 {
		t.Errorf("%d misses / %d hits, len %d; want 2 / 0 / 2 held", misses, hits, c.Len())
	}
}

// TestKnobSetSharedAcrossCaches: one set priced through two caches over
// the same analyzer gets a row in each — a row lives in the cache that
// priced it, never on the set — so the second cache prices the set
// itself, and its single Evaluate beforehand stored nothing for it to
// find.
func TestKnobSetSharedAcrossCaches(t *testing.T) {
	an := newTestAnalyzer(t)
	c1, c2 := New(an), New(an)
	shape := testShape()
	knobs := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	set := NewKnobSet(knobs)
	if _, err := c2.Evaluate(shape, knobs[1]); err != nil {
		t.Fatal(err)
	}

	type traffic struct{ hits, misses int }
	seen := map[*Cache]*traffic{c1: {}, c2: {}}
	check := func(c *Cache, label string) {
		t.Helper()
		rs, hits, misses, err := evaluateSet(c, shape, set)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		seen[c].hits += hits
		seen[c].misses += misses
		for i, k := range knobs {
			direct, err := an.Evaluate(shape, k)
			if err != nil {
				t.Fatal(err)
			}
			if rs[i] != direct {
				t.Errorf("%s: set[%d] %+v != direct %+v", label, i, rs[i], direct)
			}
		}
	}
	check(c1, "first cache, cold")
	check(c2, "second cache, after the first stored the set's row")
	check(c1, "back on first cache")

	// Both caches priced the set's two points exactly once each; the third
	// sweep was pure hits on c1.
	if tr := seen[c1]; tr.misses != 2 || tr.hits != 2 || c1.Len() != 2 {
		t.Errorf("c1: %+v, len %d; want 2 misses / 2 hits / 2 held", *tr, c1.Len())
	}
	if tr := seen[c2]; tr.misses != 2 || tr.hits != 0 || c2.Len() != 2 {
		t.Errorf("c2: %+v, len %d; want 2 misses / 0 hits / 2 held", *tr, c2.Len())
	}
}

func TestEvaluateErrorNotCached(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	bad := schedule.Knobs{Layers: 4, Ckpt: 9}
	if _, err := c.Evaluate(testShape(), bad); err == nil {
		t.Fatal("invalid knobs accepted")
	}
	if c.Len() != 0 {
		t.Errorf("error was cached: len %d", c.Len())
	}
	if _, _, _, err := evaluateSet(c, testShape(), NewKnobSet([]schedule.Knobs{bad})); err == nil {
		t.Fatal("invalid set accepted")
	}
}

// Concurrent mixed readers/writers over a shared cache; run under
// `go test -race` this is the data-race check the tuner relies on.
func TestConcurrentAccess(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()

	// One shared set per (ckpt, AO) point, paired with a fixed second
	// entry: the traffic the tuner sends, many goroutines on few sets.
	var sets [5][3]*KnobSet
	for ck := range sets {
		for ao := range sets[ck] {
			sets[ck][ao] = NewKnobSet([]schedule.Knobs{
				{Layers: 32, Ckpt: ck * 8, AO: float64(ao) / 2}, {Layers: 32, Ckpt: 8},
			})
		}
	}

	const workers = 8
	const iters = 40
	var hits, misses atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for i := 0; i < iters; i++ {
				set := sets[rng.Intn(5)][rng.Intn(3)]
				if rng.Intn(2) == 0 {
					if _, err := c.Evaluate(shape, set.Knobs()[0]); err != nil {
						errs <- fmt.Errorf("worker %d: %w", seed, err)
						return
					}
				} else {
					_, h, m, err := evaluateSet(c, shape, set)
					if err != nil {
						errs <- fmt.Errorf("worker %d set: %w", seed, err)
						return
					}
					hits.Add(int64(h))
					misses.Add(int64(m))
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// 5 ckpt values x 3 AO values: at most 15 two-entry rows; single
	// candidates store nothing.
	if c.Len() > 2*15 {
		t.Errorf("cache holds %d results, want <= 30", c.Len())
	}
	if hits.Load() == 0 || misses.Load() == 0 {
		t.Errorf("expected both hits and misses, got %d / %d", hits.Load(), misses.Load())
	}
}
