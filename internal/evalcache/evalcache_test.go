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
	batched atomic.Int64 // total distinct knob points priced via EvaluateSets
	calls   atomic.Int64 // EvaluateSets calls
}

func (ce *countingEvaluator) Evaluate(s schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	ce.singles.Add(1)
	return ce.ev.Evaluate(s, k)
}

func (ce *countingEvaluator) EvaluateSets(s schedule.StageShape, sets []*KnobSet, dsts [][]schedule.Result, sc *Scratch) error {
	ce.calls.Add(1)
	for _, set := range sets {
		ce.batched.Add(int64(set.Distinct()))
	}
	return ce.ev.EvaluateSets(s, sets, dsts, sc)
}

// evaluateBatch prices an ad-hoc knob slice as a row of its own: a fresh
// KnobSet per call, the way Cache.Evaluate builds its row of one.
func evaluateBatch(ev Evaluator, s schedule.StageShape, ks []schedule.Knobs) ([]schedule.Result, error) {
	var sc Scratch
	dsts := [][]schedule.Result{nil}
	err := ev.EvaluateSets(s, []*KnobSet{NewKnobSet(ks)}, dsts, &sc)
	return dsts[0], err
}

func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	an := newTestAnalyzer(t)
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	shape := testShape()
	k := schedule.Knobs{Layers: 32, Ckpt: 16, AO: 0.5}

	r1, err := c.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Errorf("cached result %+v != first result %+v", r2, r1)
	}
	direct, err := an.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	if r2 != direct {
		t.Errorf("cached result %+v != direct analyzer result %+v", r2, direct)
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

// Canonicalization: shapes built differently but provably equivalent
// must share one row, and shapes that can price differently must not.
func TestCanonicalKeyCollapsesEquivalentShapes(t *testing.T) {
	an := newTestAnalyzer(t)
	k := schedule.Knobs{Layers: 8, Ckpt: 4, AO: 0.5}
	// sharesRow prices a then b through a fresh cache and reports whether
	// b was served from a's row.
	sharesRow := func(a, b schedule.StageShape) bool {
		t.Helper()
		c := New(an)
		for _, s := range []schedule.StageShape{a, b} {
			if _, err := c.Evaluate(s, k); err != nil {
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
	// Different knobs never collapse.
	c := New(an)
	k2 := k
	k2.WO = 0.5
	for _, kk := range []schedule.Knobs{k, k2} {
		if _, err := c.Evaluate(a, kk); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Errorf("different knobs shared a row: %+v", st)
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

// Ad-hoc batches are rows of their own: an identical batch is served
// whole from the store, in-batch duplicates are priced once and counted
// as hits, and a batch that merely overlaps an earlier one shares nothing
// with it (row granularity; see the package comment).
func TestEvaluateBatchPartialHitsAndDuplicates(t *testing.T) {
	an := newTestAnalyzer(t)
	ce := &countingEvaluator{ev: an}
	c := New(ce)
	shape := testShape()

	warm := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	if _, err := evaluateBatch(c, shape, warm); err != nil {
		t.Fatal(err)
	}
	if got := ce.batched.Load(); got != 2 {
		t.Fatalf("warmup priced %d points, want 2", got)
	}

	// Overlaps the warm batch and repeats one of its own entries.
	mixed := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 16},
		{Layers: 32, Ckpt: 8},
		{Layers: 32, Ckpt: 16}, // duplicate of entry 1
		{Layers: 32, Ckpt: 24},
	}
	for pass, wantPriced := range []int64{2 + 4, 2 + 4} { // first pass prices the 4 distinct entries, second nothing
		rs, err := evaluateBatch(c, shape, mixed)
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
				t.Errorf("pass %d: batch[%d] %+v != direct %+v", pass, i, rs[i], direct)
			}
		}
	}
	// warm: 2 misses. mixed cold: 4 misses + 1 duplicate hit. mixed again: 5 hits.
	st := c.Stats()
	if st.Hits != 6 || st.Misses != 6 {
		t.Errorf("stats %+v, want 6 hits / 6 misses", st)
	}
	if got, want := st.Hits+st.Misses, uint64(len(warm)+2*len(mixed)); got != want {
		t.Errorf("hits+misses = %d, want the %d candidates priced", got, want)
	}
	if c.Len() != len(warm)+len(mixed) {
		t.Errorf("cache holds %d results, want %d (one per row entry)", c.Len(), len(warm)+len(mixed))
	}
}

// Rows are keyed by knob-set content, not by KnobSet object: a second
// set with the same entries is served from the first one's row, a set
// whose content differs is not — even when its hash collides.
func TestSetIdentityIsExactContent(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()
	knobs := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8, AO: 0.5},
		{Layers: 32, Ckpt: 16, WO: 1},
	}
	var sc Scratch
	first, err := c.EvaluateSet(shape, NewKnobSet(knobs), nil, &sc)
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.EvaluateSet(shape, NewKnobSet(knobs), nil, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 || st.Hits != 3 {
		t.Errorf("identical content from a second KnobSet: stats %+v, want 3 misses / 3 hits", st)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("entry %d: hit %+v != first pricing %+v", i, again[i], first[i])
		}
	}

	// Same length, same hash bucket (forced: the first set's interned
	// entry is filed under the other's hash too), different content.
	other := append([]schedule.Knobs(nil), knobs...)
	other[1].AO = 1
	collide := NewKnobSet(other)
	c.sets[collide.Hash()] = append(c.sets[collide.Hash()], c.sets[NewKnobSet(knobs).Hash()]...)
	rs, err := c.EvaluateSet(shape, collide, nil, &sc)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 6 {
		t.Errorf("colliding set was served from another set's row: stats %+v, want 6 misses", st)
	}
	for i, k := range other {
		direct, err := an.Evaluate(shape, k)
		if err != nil {
			t.Fatal(err)
		}
		if rs[i] != direct {
			t.Errorf("colliding set entry %d: %+v != direct %+v", i, rs[i], direct)
		}
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
	// The same valid entries in a set of their own still price normally:
	// the duplicate once, as a hit.
	if _, err := c.EvaluateSet(testShape(), NewKnobSet([]schedule.Knobs{good, good}), nil, &sc); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 1 || c.Len() != 2 {
		t.Errorf("stats %+v len %d, want 1 miss / 1 hit / 2 held", st, c.Len())
	}
}

// TestKnobSetSharedAcrossCaches pins the ownership of the set-id memo:
// the interned id lives on the (request-scoped) KnobSet, keyed by the
// cache that resolved it — and a set re-priced through a second cache
// with a different interning order must re-resolve rather than reuse
// the first cache's id (which would alias a foreign row and serve wrong
// results).
func TestKnobSetSharedAcrossCaches(t *testing.T) {
	an := newTestAnalyzer(t)
	c1, c2 := New(an), New(an)
	shape := testShape()
	knobs := []schedule.Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	set := NewKnobSet(knobs)

	// Skew c2's set-id assignment (the row of one interns first) so the
	// same set resolves to different ids on the two caches.
	if _, err := c2.Evaluate(shape, schedule.Knobs{Layers: 32, Ckpt: 16}); err != nil {
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
	check(c2, "second cache after memo on first") // must re-resolve, not alias c1's ids
	check(c1, "back on first cache")

	// Both caches priced the two points exactly once each; the third
	// sweep was pure hits on c1.
	if st := c1.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Errorf("c1 stats %+v, want 2 misses / 2 hits", st)
	}
	if st := c2.Stats(); st.Misses != 3 || st.Hits != 0 {
		t.Errorf("c2 stats %+v, want 3 misses / 0 hits", st)
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
	if _, err := evaluateBatch(c, testShape(), []schedule.Knobs{bad}); err == nil {
		t.Fatal("invalid batch accepted")
	}
}

// Concurrent mixed readers/writers over a shared cache; run under
// `go test -race` this is the data-race check the tuner relies on.
func TestConcurrentAccess(t *testing.T) {
	an := newTestAnalyzer(t)
	c := New(an)
	shape := testShape()

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
				k := schedule.Knobs{
					Layers: 32,
					Ckpt:   rng.Intn(5) * 8,
					AO:     float64(rng.Intn(3)) / 2,
				}
				if rng.Intn(2) == 0 {
					if _, err := c.Evaluate(shape, k); err != nil {
						errs <- fmt.Errorf("worker %d: %w", seed, err)
						return
					}
				} else {
					if _, err := evaluateBatch(c, shape, []schedule.Knobs{k, {Layers: 32, Ckpt: 8}}); err != nil {
						errs <- fmt.Errorf("worker %d batch: %w", seed, err)
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
	// 5 ckpt values x 3 AO values: at most 15 rows of one and 15
	// two-entry batch rows.
	if c.Len() > 15+2*15 {
		t.Errorf("cache holds %d results, want <= 45", c.Len())
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("expected both hits and misses, got %+v", st)
	}
}
