package schedule

// The row store's contract, driven through NewRows and NewBatch: a
// stored row is the staircase of a direct full pricing of its set, hits
// and misses per call, canonical shape keys, rows handed out in place,
// failed sets stored nowhere, single points priced without a row, and a
// data-race check under mixed readers and writers. The window,
// allocation and publish-race tests are rows_window_test.go and
// rows_race_test.go.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// evaluateSet prices one set through c and returns its stored row with
// the call's hit and miss counts.
func evaluateSet(c *Rows, s StageShape, set *Batch) (row Row, hits, misses int, err error) {
	var sc EvalScratch
	rows := []Row{{}}
	hits, misses, err = c.EvaluateSets(s, []*Batch{set}, rows, &sc)
	return rows[0], hits, misses, err
}

// sameResult compares bit patterns: a stored step is the pricing's own
// result, copied, never a value that merely compares equal.
func sameResult(a, b Result) bool {
	return math.Float64bits(a.Stable) == math.Float64bits(b.Stable) &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta) &&
		math.Float64bits(a.PeakMem) == math.Float64bits(b.PeakMem)
}

// rowMatches is nil when row is what the store must hold for a set whose
// full pricing is full: Stair is AppendStaircase of the pricing under
// budget, Steps[k] is bit-equal to the pricing's entry at Stair[k], and
// neither slice is nil (a nil Steps is how a missing row reads).
func rowMatches(row Row, full []Result, budget float64) error {
	if row.Stair == nil || row.Steps == nil {
		return fmt.Errorf("a published row with a nil slice: %+v", row)
	}
	if want := AppendStaircase(nil, full, budget); !slices.Equal(row.Stair, want) {
		return fmt.Errorf("staircase %v, want %v", row.Stair, want)
	}
	if len(row.Steps) != len(row.Stair) {
		return fmt.Errorf("%d steps for %d positions", len(row.Steps), len(row.Stair))
	}
	for k, j := range row.Stair {
		if !sameResult(row.Steps[k], full[j]) {
			return fmt.Errorf("step %d (entry %d): %+v, the pricing holds %+v", k, j, row.Steps[k], full[j])
		}
	}
	return nil
}

// checkStored is rowMatches against a direct full pricing of set under
// shape on the analyzer itself, outside any store.
func checkStored(an *Analyzer, shape StageShape, set *Batch, row Row) error {
	var sc EvalScratch
	full, err := an.EvaluateBatchInto(nil, shape, set.Knobs(), &sc)
	if err != nil {
		return err
	}
	return rowMatches(row, full, an.PlanBudget())
}

// TestStoredRowIsItsStaircase is the store's specification, executed:
// over seeded stage shapes — canonical twins among them, which hit a row
// another shape published — and over windows of knob grids and of
// hand-built sets with duplicate entries, every row a call hands out is
// the staircase of a direct full pricing of its set under the call's own
// shape, and each missed row adds its set's length to Len.
func TestStoredRowIsItsStaircase(t *testing.T) {
	an := rowsAnalyzer(t)
	c := NewRows(an)
	rng := rand.New(rand.NewSource(47))
	grid := func(l int) *Batch {
		var ckpts []int
		for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
			if ck := int(f*float64(l) + 0.5); !slices.Contains(ckpts, ck) {
				ckpts = append(ckpts, ck)
			}
		}
		return an.KnobGrid(l, ckpts, [4]bool{true, true, true, true})
	}
	// withDups repeats entries of a grid behind their first occurrence.
	withDups := func(l int) *Batch {
		ks := slices.Clone(grid(l).Knobs())
		for i := 0; i < 30; i++ {
			at := rng.Intn(len(ks))
			ks = slices.Insert(ks, at+1+rng.Intn(len(ks)-at), ks[at])
		}
		return NewBatch(ks)
	}
	same := Knobs{Layers: 8, Ckpt: 4, AO: 0.5}
	windows := [][]*Batch{
		{grid(6), grid(7), grid(8), grid(9), grid(10)},
		{grid(1), grid(2), grid(3), grid(4), grid(5)},
		{grid(14), withDups(15), grid(16)},
		{withDups(8), NewBatch([]Knobs{same}), NewBatch([]Knobs{same, same, same}), NewBatch(tunerGrid(8, []float64{0, 1}))},
	}
	randShape := func() StageShape {
		degrees := []int{1, 2, 4}
		s := StageShape{
			B: degrees[rng.Intn(3)], DP: degrees[rng.Intn(3)], TP: degrees[rng.Intn(3)], ZeRO: rng.Intn(4),
			NumStages: 1 + rng.Intn(4), GradAccum: degrees[rng.Intn(3)],
		}
		s.StageIdx = rng.Intn(s.NumStages)
		s.HasPre, s.HasPost = s.StageIdx == 0, s.StageIdx == s.NumStages-1
		return s
	}
	// twin draws a different shape with s's canonical form, if one turns up.
	twin := func(s StageShape) (StageShape, bool) {
		for try := 0; try < 500; try++ {
			u := randShape()
			u.B, u.DP, u.TP = s.B, s.DP, s.TP
			if u != s && u.Canonical() == s.Canonical() {
				return u, true
			}
		}
		return s, false
	}

	published := map[rowKey]bool{}
	var shapes []StageShape
	var sc EvalScratch
	twins := 0
	for i := 0; i < 48; i++ {
		shape := randShape()
		if i%3 == 2 {
			var ok bool
			if shape, ok = twin(shapes[rng.Intn(len(shapes))]); ok {
				twins++
			}
		}
		shapes = append(shapes, shape)
		w := windows[rng.Intn(len(windows))]
		lo := rng.Intn(len(w))
		w = w[lo : lo+1+rng.Intn(len(w)-lo)]
		key, _ := keyOf(shape)
		wantHits, wantMisses := 0, 0
		for _, set := range w {
			key.set = set
			if published[key] {
				wantHits += set.Len()
			} else {
				wantMisses += set.Len()
				published[key] = true
			}
		}
		held := c.Len()
		rows := make([]Row, len(w))
		hits, misses, err := c.EvaluateSets(shape, w, rows, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if hits != wantHits || misses != wantMisses || c.Len() != held+wantMisses {
			t.Errorf("shape %+v: %d hits / %d misses, Len %d -> %d; want %d / %d, Len +%d",
				shape, hits, misses, held, c.Len(), wantHits, wantMisses, wantMisses)
		}
		for j, set := range w {
			if err := checkStored(an, shape, set, rows[j]); err != nil {
				t.Errorf("shape %+v, set %d of the window: %v", shape, j, err)
			}
		}
	}
	if twins < 8 {
		t.Errorf("only %d canonical twins drawn: the collapsed shapes went untested", twins)
	}
	// The sweep copies rows by value into its scratch, one per (shape,
	// layer count): a row stays two slice headers.
	if got := unsafe.Sizeof(Row{}); got != 48 {
		t.Errorf("Row is %d bytes, want 48 (Stair, Steps)", got)
	}
}

// A set priced twice through one cache is served from its row the second
// time: the miss's row, which is the staircase of the analyzer's own
// pricing, and EvaluateSet's full results are the analyzer's values.
func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	an := rowsAnalyzer(t)
	c := NewRows(an)
	shape := rowShape()
	k := Knobs{Layers: 32, Ckpt: 16, OO: 1, AO: 0.5}
	set := NewBatch([]Knobs{k})
	direct, err := an.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Fits(an.PlanBudget()) {
		t.Fatalf("%+v does not fit: its row's staircase is empty, and the test compares nothing", k)
	}

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
	if err := rowMatches(r1, []Result{direct}, an.PlanBudget()); err != nil {
		t.Errorf("first row: %v", err)
	}
	if err := rowMatches(r2, []Result{direct}, an.PlanBudget()); err != nil {
		t.Errorf("cached row: %v", err)
	}
	var sc EvalScratch
	if got, err := c.EvaluateSet(shape, set, nil, &sc); err != nil || len(got) != 1 || !sameResult(got[0], direct) {
		t.Errorf("EvaluateSet on the stored row: %+v (%v), want [%+v]", got, err, direct)
	}
}

// A single candidate is priced on the analyzer and stored nowhere: the
// cache's size does not move, even for a point a stored row holds, the row
// still answers its set whole, and the call allocates what the analyzer's
// own Evaluate does and nothing more (no set, no row, no counter).
func TestEvaluateStoresNothing(t *testing.T) {
	an := rowsAnalyzer(t)
	c := NewRows(an)
	shape := rowShape()
	k := Knobs{Layers: 32, Ckpt: 8, WO: 0.5}
	set := NewBatch([]Knobs{{Layers: 32}, k})
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
		t.Errorf("Rows.Evaluate allocated %v times, the analyzer's Evaluate %v", cached, bare)
	}
}

// Canonicalization: shapes built differently but provably equivalent
// must share one row, and shapes that can price differently must not.
func TestCanonicalKeyCollapsesEquivalentShapes(t *testing.T) {
	an := rowsAnalyzer(t)
	k := Knobs{Layers: 8, Ckpt: 4, AO: 0.5}
	set := NewBatch([]Knobs{k})
	// sharesRow prices set under a then b through a fresh cache and
	// reports whether b was served from a's row.
	sharesRow := func(a, b StageShape) bool {
		t.Helper()
		c := NewRows(an)
		var hits, misses int
		for _, s := range []StageShape{a, b} {
			_, h, m, err := evaluateSet(c, s, set)
			if err != nil {
				t.Fatal(err)
			}
			hits, misses = hits+h, misses+m
		}
		return hits == 1 && misses == 1
	}

	// ZeRO is a no-op without data parallelism: all levels collapse.
	noDP := StageShape{B: 2, DP: 1, TP: 4, NumStages: 1, StageIdx: 0, GradAccum: 4}
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
	a := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 1, GradAccum: 2}
	b := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 2, GradAccum: 2}
	d := StageShape{B: 2, DP: 1, TP: 2, NumStages: 8, StageIdx: 6, GradAccum: 2}
	if !sharesRow(a, b) || !sharesRow(a, d) {
		t.Error("equal in-flight pipelined stages should share a row")
	}
	// ... but a single-stage shape (no p2p) must not match a pipelined one.
	single := StageShape{B: 2, DP: 1, TP: 2, NumStages: 1, StageIdx: 0, GradAccum: 2}
	deep := StageShape{B: 2, DP: 1, TP: 2, NumStages: 2, StageIdx: 1, GradAccum: 1}
	if sharesRow(single, deep) {
		t.Error("single-stage and pipelined shapes must not collapse")
	}
	// Different sets never share a row.
	c := NewRows(an)
	k2 := k
	k2.WO = 0.5
	for _, s := range []*Batch{set, NewBatch([]Knobs{k2})} {
		if _, hits, misses, err := evaluateSet(c, a, s); err != nil || hits != 0 || misses != 1 {
			t.Errorf("different sets shared a row: %d hits / %d misses (%v), want 0 / 1", hits, misses, err)
		}
	}
}

// The cached result for a canonically-equal but differently-built shape
// must be bitwise identical to evaluating that shape directly (the
// canonicalization must be semantics-preserving, not just convenient).
func TestCanonicalShapesEvaluateIdentically(t *testing.T) {
	an := rowsAnalyzer(t)
	k := Knobs{Layers: 8, Ckpt: 4, OO: 0.5}
	a := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 1, GradAccum: 2}
	b := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 2, GradAccum: 2}
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
	zeroA := StageShape{B: 2, DP: 1, TP: 4, ZeRO: 0, NumStages: 1, GradAccum: 4}
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
// time; the staircase keeps the first of equal entries), and a set that
// merely overlaps an earlier one shares nothing with it.
func TestEvaluateBatchPartialHitsAndDuplicates(t *testing.T) {
	an := rowsAnalyzer(t)
	c := NewRows(an)
	shape := rowShape()

	warm := []Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	_, hits, misses, err := evaluateSet(c, shape, NewBatch(warm))
	if err != nil || misses != 2 {
		t.Fatalf("warmup priced %d points (%v), want 2", misses, err)
	}

	// Overlaps the warm set and repeats one of its own entries.
	mixed := []Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 16},
		{Layers: 32, Ckpt: 8},
		{Layers: 32, Ckpt: 16}, // duplicate of entry 1
		{Layers: 32, Ckpt: 24},
	}
	set := NewBatch(mixed)
	direct := make([]Result, len(mixed))
	for i, k := range mixed {
		if direct[i], err = an.Evaluate(shape, k); err != nil {
			t.Fatal(err)
		}
	}
	for pass, wantPriced := range []int{5, 0} { // first pass prices all 5 entries, second nothing
		row, h, m, err := evaluateSet(c, shape, set)
		if err != nil {
			t.Fatal(err)
		}
		if m != wantPriced || h != 5-wantPriced {
			t.Errorf("pass %d: %d hits / %d misses, want %d misses", pass, h, m, wantPriced)
		}
		hits, misses = hits+h, misses+m
		if err := rowMatches(row, direct, an.PlanBudget()); err != nil {
			t.Errorf("pass %d: %v", pass, err)
		}
		if slices.Contains(row.Stair, 3) {
			t.Errorf("pass %d: the staircase %v holds entry 3, a duplicate of entry 1", pass, row.Stair)
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
// is the one every later hit returns (one backing array each for the
// positions and the steps, nothing copied), and it is, bit for bit, the
// staircase of what the analyzer prices for the same shape and set.
// EvaluateSet returns the full results, priced on the call: its slice is
// the caller's to write, and writing it never reaches the stored row.
func TestReturnedRowIsTheStoredRow(t *testing.T) {
	an := rowsAnalyzer(t)
	c := NewRows(an)
	shape := rowShape()
	set := NewBatch([]Knobs{{Layers: 32, Ckpt: 0}, {Layers: 32, Ckpt: 8, AO: 0.5}, {Layers: 32, Ckpt: 32, WO: 1}})
	missed, _, misses, err := evaluateSet(c, shape, set)
	if err != nil || misses != set.Len() {
		t.Fatalf("first call: %d misses (%v), want %d", misses, err, set.Len())
	}
	var sc EvalScratch
	want, err := an.EvaluateBatchInto(nil, shape, set.Knobs(), &sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := rowMatches(missed, want, an.PlanBudget()); err != nil {
		t.Fatal(err)
	}
	if len(missed.Stair) == 0 {
		t.Fatal("an empty staircase: every empty slice may share one address, so the test would compare nothing")
	}
	for round := 0; round < 2; round++ {
		hit, hits, _, err := evaluateSet(c, shape, set)
		if err != nil || hits != set.Len() {
			t.Fatalf("round %d: %d hits (%v), want %d", round, hits, err, set.Len())
		}
		if len(hit.Steps) != len(missed.Steps) || unsafe.SliceData(hit.Steps) != unsafe.SliceData(missed.Steps) ||
			unsafe.SliceData(hit.Stair) != unsafe.SliceData(missed.Stair) {
			t.Errorf("round %d: a hit returned other arrays than the miss did", round)
		}
		copied, err := c.EvaluateSet(shape, set, nil, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(copied, want, sameResult) {
			t.Errorf("round %d: EvaluateSet returned %+v, the analyzer prices %+v", round, copied, want)
		}
		for i := range copied {
			copied[i] = Result{Stable: -1}
		}
		if err := rowMatches(missed, want, an.PlanBudget()); err != nil {
			t.Fatalf("round %d: writing EvaluateSet's slice reached the stored row: %v", round, err)
		}
	}
}

// A set holding an invalid entry fails as a whole: no row is stored and
// the call counts nothing, duplicates included.
func TestErrorRowNeitherStoredNorCounted(t *testing.T) {
	c := NewRows(rowsAnalyzer(t))
	good := Knobs{Layers: 32, Ckpt: 8}
	bad := NewBatch([]Knobs{good, good, {Layers: 4, Ckpt: 9}})
	for i := 0; i < 2; i++ {
		_, hits, misses, err := evaluateSet(c, rowShape(), bad)
		if err == nil {
			t.Fatal("set with an invalid entry accepted")
		}
		if hits != 0 || misses != 0 || c.Len() != 0 {
			t.Errorf("failed row left a trace: %d hits / %d misses, len %d", hits, misses, c.Len())
		}
	}
	// The same valid entries in a set of their own still price normally,
	// entry by entry.
	_, hits, misses, err := evaluateSet(c, rowShape(), NewBatch([]Knobs{good, good}))
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
// find. Each cache's row is the staircase of the analyzer's pricing.
func TestKnobSetSharedAcrossCaches(t *testing.T) {
	an := rowsAnalyzer(t)
	c1, c2 := NewRows(an), NewRows(an)
	shape := rowShape()
	knobs := []Knobs{
		{Layers: 32, Ckpt: 0},
		{Layers: 32, Ckpt: 8},
	}
	set := NewBatch(knobs)
	if _, err := c2.Evaluate(shape, knobs[1]); err != nil {
		t.Fatal(err)
	}

	type traffic struct{ hits, misses int }
	seen := map[*Rows]*traffic{c1: {}, c2: {}}
	check := func(c *Rows, label string) {
		t.Helper()
		row, hits, misses, err := evaluateSet(c, shape, set)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		seen[c].hits += hits
		seen[c].misses += misses
		if err := checkStored(an, shape, set, row); err != nil {
			t.Errorf("%s: %v", label, err)
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
	an := rowsAnalyzer(t)
	c := NewRows(an)
	bad := Knobs{Layers: 4, Ckpt: 9}
	if _, err := c.Evaluate(rowShape(), bad); err == nil {
		t.Fatal("invalid knobs accepted")
	}
	if c.Len() != 0 {
		t.Errorf("error was cached: len %d", c.Len())
	}
	if _, _, _, err := evaluateSet(c, rowShape(), NewBatch([]Knobs{bad})); err == nil {
		t.Fatal("invalid set accepted")
	}
}

// Concurrent mixed readers/writers over a shared cache; run under
// `go test -race` this is the data-race check the tuner relies on.
func TestConcurrentAccess(t *testing.T) {
	an := rowsAnalyzer(t)
	c := NewRows(an)
	shape := rowShape()

	// One shared set per (ckpt, AO) point, paired with a fixed second
	// entry: the traffic the tuner sends, many goroutines on few sets.
	var sets [5][3]*Batch
	for ck := range sets {
		for ao := range sets[ck] {
			sets[ck][ao] = NewBatch([]Knobs{
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
