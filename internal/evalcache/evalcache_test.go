package evalcache

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

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

// countingEvaluator counts calls through to the wrapped evaluator.
type countingEvaluator struct {
	ev      Evaluator
	singles atomic.Int64
	batched atomic.Int64 // total knob points priced via EvaluateSets
	calls   atomic.Int64 // EvaluateSets calls
}

func (ce *countingEvaluator) Evaluate(s schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	ce.singles.Add(1)
	return ce.ev.Evaluate(s, k)
}

func (ce *countingEvaluator) EvaluateSets(s schedule.StageShape, sets []*KnobSet, dsts [][]schedule.Result, sc *Scratch) error {
	ce.calls.Add(1)
	for _, set := range sets {
		ce.batched.Add(int64(set.Len()))
	}
	return ce.ev.EvaluateSets(s, sets, dsts, sc)
}

// evaluateSet prices one set as a row through ev.
func evaluateSet(ev Evaluator, s schedule.StageShape, set *KnobSet) ([]schedule.Result, error) {
	var sc Scratch
	dsts := [][]schedule.Result{nil}
	err := ev.EvaluateSets(s, []*KnobSet{set}, dsts, &sc)
	return dsts[0], err
}

// A set priced twice through one cache is served from its row the second
// time, with the analyzer's own values.
func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	an := newTestAnalyzer(t)
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	shape := testShape()
	k := schedule.Knobs{Layers: 32, Ckpt: 16, AO: 0.5}
	set := NewKnobSet([]schedule.Knobs{k})

	r1, err := evaluateSet(c, shape, set)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := evaluateSet(c, shape, set)
	if err != nil {
		t.Fatal(err)
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
	if got := ce.singles.Load() + ce.batched.Load(); got != 1 {
		t.Errorf("underlying evaluator priced %d points, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Errorf("hit rate %v, want 0.5", hr)
	}
}

// A single candidate is priced on the backend and stored nowhere: the
// cache's size does not move, the pricing counts as one miss, even for a
// point a stored row holds, and the call allocates what the analyzer's own
// Evaluate does and nothing more (no set, no row).
func TestEvaluateStoresNothing(t *testing.T) {
	an := newTestAnalyzer(t)
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	shape := testShape()
	k := schedule.Knobs{Layers: 32, Ckpt: 8, WO: 0.5}
	if _, err := evaluateSet(c, shape, NewKnobSet([]schedule.Knobs{{Layers: 32}, k})); err != nil {
		t.Fatal(err)
	}
	held, before := c.Len(), c.Stats()
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
	if st := c.Stats(); st.Misses != before.Misses+1 || st.Hits != before.Hits {
		t.Errorf("stats %+v after %+v, want exactly one more miss", st, before)
	}
	if ce.singles.Load() != 1 {
		t.Errorf("backend saw %d single pricings, want 1", ce.singles.Load())
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
		for _, s := range []schedule.StageShape{a, b} {
			if _, err := evaluateSet(c, s, set); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats() == Stats{Hits: 1, Misses: 1}
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
		if _, err := evaluateSet(c, a, s); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("different sets shared a row: %+v", st)
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
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	shape := testShape()

	warm := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	if _, err := evaluateSet(c, shape, NewKnobSet(warm)); err != nil {
		t.Fatal(err)
	}
	if got := ce.batched.Load(); got != 2 {
		t.Fatalf("warmup priced %d points, want 2", got)
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
	for pass, wantPriced := range []int64{2 + 5, 2 + 5} { // first pass prices all 5 entries, second nothing
		rs, err := evaluateSet(c, shape, set)
		if err != nil {
			t.Fatal(err)
		}
		if got := ce.batched.Load(); got != wantPriced {
			t.Errorf("pass %d: underlying evaluator priced %d points total, want %d", pass, got, wantPriced)
		}
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
	st := c.Stats()
	if st.Hits != 5 || st.Misses != 7 {
		t.Errorf("stats %+v, want 5 hits / 7 misses", st)
	}
	if got, want := st.Hits+st.Misses, uint64(len(warm)+2*len(mixed)); got != want {
		t.Errorf("hits+misses = %d, want the %d candidates priced", got, want)
	}
	if c.Len() != len(warm)+len(mixed) {
		t.Errorf("cache holds %d results, want %d (one per row entry)", c.Len(), len(warm)+len(mixed))
	}
}

// The slice EvaluateSet returns is the caller's (the tuner passes it back
// as dst for the next shape): scribbling on it must never reach the
// stored row.
func TestReturnedRowIsCallerOwned(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shapeA, shapeB := testShape(), testShape()
	shapeB.B = 4
	set := NewKnobSet([]schedule.Knobs{{Layers: 32, Ckpt: 0}, {Layers: 32, Ckpt: 8}})
	var sc Scratch
	want := map[schedule.StageShape][]schedule.Result{}
	var dst []schedule.Result
	for _, sh := range []schedule.StageShape{shapeA, shapeB} { // misses, dst recycled across shapes
		rs, err := c.EvaluateSet(sh, set, dst, &sc)
		if err != nil {
			t.Fatal(err)
		}
		want[sh] = append([]schedule.Result(nil), rs...)
		dst = rs[:0]
	}
	for round := 0; round < 2; round++ { // hits; scribble between them
		for _, sh := range []schedule.StageShape{shapeA, shapeB} {
			rs, err := c.EvaluateSet(sh, set, dst, &sc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rs {
				if rs[i] != want[sh][i] {
					t.Fatalf("round %d: hit %+v != first pricing %+v", round, rs[i], want[sh][i])
				}
				rs[i] = schedule.Result{Stable: -1}
			}
			dst = rs[:0]
		}
	}
}

// A set holding an invalid entry fails as a whole: no row is stored and
// neither counter moves, duplicates included.
func TestErrorRowNeitherStoredNorCounted(t *testing.T) {
	an := newTestAnalyzer(t)
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	good := schedule.Knobs{Layers: 32, Ckpt: 8}
	bad := NewKnobSet([]schedule.Knobs{good, good, {Layers: 4, Ckpt: 9}})
	var sc Scratch
	for i := 0; i < 2; i++ {
		if _, err := c.EvaluateSet(testShape(), bad, nil, &sc); err == nil {
			t.Fatal("set with an invalid entry accepted")
		}
	}
	if st := c.Stats(); st != (Stats{}) || c.Len() != 0 {
		t.Errorf("failed row left a trace: stats %+v len %d", st, c.Len())
	}
	// The same valid entries in a set of their own still price normally,
	// entry by entry.
	if _, err := c.EvaluateSet(testShape(), NewKnobSet([]schedule.Knobs{good, good}), nil, &sc); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || c.Len() != 2 {
		t.Errorf("stats %+v len %d, want 2 misses / 0 hits / 2 held", st, c.Len())
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

	var sc Scratch
	check := func(c *Cache, label string) {
		t.Helper()
		rs, err := c.EvaluateSet(shape, set, nil, &sc)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
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
	if st := c1.Stats(); st.Misses != 2 || st.Hits != 2 || c1.Len() != 2 {
		t.Errorf("c1 stats %+v len %d, want 2 misses / 2 hits / 2 held", st, c1.Len())
	}
	if st := c2.Stats(); st.Misses != 3 || st.Hits != 0 || c2.Len() != 2 {
		t.Errorf("c2 stats %+v len %d, want 3 misses / 0 hits / 2 held", st, c2.Len())
	}
}

func TestEvaluateErrorNotCached(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	bad := schedule.Knobs{Layers: 4, Ckpt: 9}
	if _, err := c.Evaluate(testShape(), bad); err == nil {
		t.Fatal("invalid knobs accepted")
	}
	if st := c.Stats(); st.Misses != 0 || c.Len() != 0 {
		t.Errorf("error was cached: stats %+v len %d", st, c.Len())
	}
	if _, err := evaluateSet(c, testShape(), NewKnobSet([]schedule.Knobs{bad})); err == nil {
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
					if _, err := evaluateSet(c, shape, set); err != nil {
						errs <- fmt.Errorf("worker %d set: %w", seed, err)
						return
					}
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
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}
