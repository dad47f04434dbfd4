package schedule

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/symbolic"
)

// tunerGrid is the knob set the tuner prices for one layer count
// (Analyzer.KnobGrid under MistSpace's checkpoint fractions): the
// fractions quantized to the layer count, deduplicated and sorted,
// crossed ckpt-major with one fixed offload-tuple grid.
func tunerGrid(layers int, ratios []float64) []Knobs {
	var ckpts []int
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if c := int(f*float64(layers) + 0.5); !slices.Contains(ckpts, c) {
			ckpts = append(ckpts, c)
		}
	}
	slices.Sort(ckpts)
	var ks []Knobs
	for _, ck := range ckpts {
		for _, wo := range ratios {
			for _, gov := range ratios {
				for _, oo := range ratios {
					for _, ao := range ratios {
						ks = append(ks, Knobs{Layers: layers, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao})
					}
				}
			}
		}
	}
	return ks
}

// referenceShapes calls fn on every nth shape of the reference grid
// (TestPropertyLiftedProgramMatchesPerShapeBuild's), starting at offset.
func referenceShapes(heads, nth, offset int, fn func(StageShape)) {
	degrees := []int{1, 2, 4, 8}
	n := 0
	visit := func(s StageShape) {
		if n++; n%nth == offset%nth {
			fn(s)
		}
	}
	for _, tp := range degrees {
		if heads%tp != 0 {
			continue
		}
		for _, dp := range degrees {
			for zero := 0; zero <= 3; zero++ {
				if zero > 0 && dp == 1 {
					continue
				}
				for _, b := range degrees {
					for prePost := 0; prePost < 4; prePost++ {
						shape := StageShape{
							B: b, DP: dp, TP: tp, ZeRO: zero,
							HasPre: prePost&1 != 0, HasPost: prePost&2 != 0,
							NumStages: 1, StageIdx: 0, GradAccum: 4,
						}
						visit(shape)
						for inFlight := 1; inFlight <= 8; inFlight++ {
							shape.NumStages, shape.GradAccum = inFlight+1, inFlight
							visit(shape)
						}
					}
				}
			}
		}
	}
}

// sharedRegionList lists the 256 tuples over the off-grid ratios {−0,
// 0.3, 0.7, 0.95}, in four blocks of 64 lanes: the first block holds one
// tuple of each (wo, go, ao) — so the first member of every shared region
// class — and the later blocks the rest; both parts are shuffled, so the
// later groups meet their classes' first members out of order. Each tuple
// leads a group of one or two members of random layer and checkpoint
// counts.
func sharedRegionList(rng *rand.Rand) []Knobs {
	ratios := []float64{math.Copysign(0, -1), 0.3, 0.7, 0.95}
	var heads, rest []Knobs
	for _, wo := range ratios {
		for _, gov := range ratios {
			for _, ao := range ratios {
				head := rng.Intn(len(ratios))
				for i, oo := range ratios {
					l := 1 + rng.Intn(12)
					k := Knobs{Layers: l, Ckpt: rng.Intn(l + 1), WO: wo, GO: gov, OO: oo, AO: ao}
					if i == head {
						heads = append(heads, k)
					} else {
						rest = append(rest, k)
					}
				}
			}
		}
	}
	for _, part := range [][]Knobs{heads, rest} {
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	ks := append(heads, rest...)
	for _, k := range ks[:len(ks):len(ks)] {
		if rng.Intn(2) == 0 {
			k.Layers = 1 + rng.Intn(12)
			k.Ckpt = rng.Intn(k.Layers + 1)
			ks = append(ks, k)
		}
	}
	return ks
}

// TestWindowMatchesSetBySet: pricing a list of knob sets in one
// EvaluateSets call returns, == on every field, what pricing each set on
// its own returns — and what pricing each candidate on its own does —
// whether the list is a tuner window (tuple-aligned: one tuple pass per
// tuple for the whole list), a window of one, a window whose small layer
// counts fold the checkpoint grid, a window with in-set duplicates,
// hand-built aligned sets whose tuple groups differ in member count and
// layer counts over more tuples than one block of lanes, off-grid sets
// whose shared region classes take their terms from first members blocks
// earlier (sharedRegionList; also priced as ad-hoc EvaluateBatchInto
// slices), or a list that is not tuple-aligned and falls back to
// set-by-set pricing. Every model of referenceModels, a 1-in-997 slice of
// the reference shape grid each, both Serialize values.
func TestWindowMatchesSetBySet(t *testing.T) {
	full := []float64{0, 0.5, 1}
	// withDups repeats 40 entries somewhere behind their first occurrence,
	// which keeps the tuples' first-appearance order.
	withDups := func(ks []Knobs, rng *rand.Rand) []Knobs {
		out := slices.Clone(ks)
		for i := 0; i < 40; i++ {
			at := rng.Intn(len(out))
			out = slices.Insert(out, at+1+rng.Intn(len(out)-at), out[at])
		}
		return out
	}
	rng := rand.New(rand.NewSource(19))
	// irregular lists each offload tuple of a ¼ grid (625, ten blocks of
	// lanes) in grid order, leading a group of one to three members of
	// random layer and checkpoint counts, now and then the lead again; a
	// further member follows its lead at once, a few tuples later or at
	// the end. Sets built from it are tuple-aligned, and their groups
	// differ in member count and layer counts within a set and across.
	irregular := func() []Knobs {
		quarter := []float64{0, 0.25, 0.5, 0.75, 1}
		var ks, pending []Knobs
		for _, wo := range quarter {
			for _, gov := range quarter {
				for _, oo := range quarter {
					for _, ao := range quarter {
						l := 1 + rng.Intn(12)
						lead := Knobs{Layers: l, Ckpt: rng.Intn(l + 1), WO: wo, GO: gov, OO: oo, AO: ao}
						ks = append(ks, lead)
						for extra := rng.Intn(3); extra > 0; extra-- {
							k := lead
							if rng.Intn(4) != 0 {
								k.Layers = 1 + rng.Intn(12)
								k.Ckpt = rng.Intn(k.Layers + 1)
							}
							pending = append(pending, k)
						}
						for len(pending) > 0 && rng.Intn(2) == 0 {
							at := rng.Intn(len(pending))
							ks = append(ks, pending[at])
							pending = slices.Delete(pending, at, at+1)
						}
					}
				}
			}
		}
		return append(ks, pending...)
	}
	shared := sharedRegionList(rng)
	relayered := slices.Clone(shared)
	for i := range relayered {
		relayered[i].Layers = 1 + rng.Intn(12)
		relayered[i].Ckpt = rng.Intn(relayered[i].Layers + 1)
	}
	reversed := tunerGrid(9, full)
	slices.Reverse(reversed)
	shuffled := tunerGrid(10, full)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	windows := []struct {
		name    string
		sets    [][]Knobs
		aligned bool
		every   bool // check every entry against Evaluate, not a 1-in-29 slice
	}{
		{"window", [][]Knobs{tunerGrid(6, full), tunerGrid(7, full), tunerGrid(8, full), tunerGrid(9, full), tunerGrid(10, full)}, true, false},
		{"window-of-one", [][]Knobs{tunerGrid(8, full)}, true, false},
		{"folded-ckpt-grid", [][]Knobs{tunerGrid(1, full), tunerGrid(2, full), tunerGrid(3, full), tunerGrid(4, full), tunerGrid(5, full)}, true, false},
		{"in-set-duplicates", [][]Knobs{withDups(tunerGrid(3, full), rng), tunerGrid(4, full), withDups(tunerGrid(5, full), rng)}, true, false},
		{"one-knob-rows", [][]Knobs{{{Layers: 7, Ckpt: 7}}, {{Layers: 8, Ckpt: 8}}, {{Layers: 9, Ckpt: 9}}}, true, false},
		{"irregular-groups", [][]Knobs{irregular(), irregular(), irregular()}, true, true},
		{"shared-regions", [][]Knobs{shared, relayered}, true, true},
		{"misaligned-order", [][]Knobs{tunerGrid(8, full), reversed, shuffled}, false, false},
		{"misaligned-grid", [][]Knobs{tunerGrid(8, full), tunerGrid(9, []float64{0, 1}), tunerGrid(10, full)}, false, false},
		{"misaligned-count", [][]Knobs{tunerGrid(8, []float64{0, 1}), tunerGrid(9, []float64{0, 0.5, 1})}, false, false},
	}
	if n := len(windows[2].sets[0]); n != 2*81 {
		t.Fatalf("layer count 1 has %d entries, want a checkpoint grid folded to {0, 1}", n)
	}
	batches := make([][]*Batch, len(windows))
	for wi, w := range windows {
		for _, ks := range w.sets {
			batches[wi] = append(batches[wi], NewBatch(ks))
		}
		if got := aligned(asTupleSets(batches[wi])); got != w.aligned {
			t.Fatalf("%s: aligned = %v, want %v", w.name, got, w.aligned)
		}
		if w.name != "shared-regions" {
			continue
		}
		tg := &batches[wi][0].groups
		if groups := len(tg.starts) - 1; groups != 256 {
			t.Fatalf("%s: %d tuples, want 256", w.name, groups)
		}
		for c, first := range tg.first {
			for g, f := range first[64:] {
				if f >= 64 {
					t.Fatalf("%s: class %d of group %d shares group %d's terms, want a first member in the first block", w.name, c, 64+g, f)
				}
			}
			if slices.IsSorted(first[64:]) {
				t.Fatalf("%s: class %d meets its first members in order", w.name, c)
			}
		}
	}
	for mi, cfg := range referenceModels() {
		mi, cfg := mi, cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			a := newTestAnalyzerFor(t, cfg, 8, true)
			var sc, scOne EvalScratch
			checked := 0
			referenceShapes(cfg.Heads, 997, mi, func(shape StageShape) {
				checked++
				for wi, w := range windows {
					sets := batches[wi]
					for _, serialize := range []bool{false, true} {
						a.Serialize = serialize
						before := a.nTuplePasses.Load()
						dsts := make([][]Result, len(sets))
						if err := a.evaluateSets(shape, sets, dsts, &sc); err != nil {
							t.Fatal(err)
						}
						passes, perSet := int(a.nTuplePasses.Load()-before), 0
						for i, set := range sets {
							perSet += len(set.groups.starts) - 1
							want, err := a.EvaluatePreparedInto(nil, shape, set, &scOne)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(dsts[i], want) {
								t.Fatalf("%s serialize=%v shape %+v: set %d priced in the list differs from the set priced alone", w.name, serialize, shape, i)
							}
							adhoc, err := a.EvaluateBatchInto(nil, shape, set.Knobs(), &scOne)
							if err != nil {
								t.Fatal(err)
							}
							if !slices.Equal(adhoc, want) {
								t.Fatalf("%s serialize=%v shape %+v: set %d priced as an ad-hoc slice differs from the prepared set", w.name, serialize, shape, i)
							}
							for j, k := range set.Knobs() {
								if !w.every && j%29 != checked%29 {
									continue
								}
								single, err := a.Evaluate(shape, k)
								if err != nil {
									t.Fatal(err)
								}
								if dsts[i][j] != single {
									t.Fatalf("%s serialize=%v shape %+v knobs %+v:\n  list   %+v\n  single %+v", w.name, serialize, shape, k, dsts[i][j], single)
								}
							}
						}
						if wantPasses := len(sets[0].groups.starts) - 1; w.aligned && passes != wantPasses {
							t.Fatalf("%s: %d tuple passes for an aligned list, want %d (the first set's tuples)", w.name, passes, wantPasses)
						} else if !w.aligned && passes != perSet {
							t.Fatalf("%s: %d tuple passes for a misaligned list, want %d (every set's tuples)", w.name, passes, perSet)
						}
					}
				}
			})
			if checked == 0 {
				t.Fatal("no shape checked")
			}
		})
	}
}

// asTupleSets is EvaluateSets' view of prepared batches, results aside.
func asTupleSets(sets []*Batch) []tupleSet {
	ts := make([]tupleSet, len(sets))
	for i, set := range sets {
		ts[i] = tupleSet{ks: set.knobs, tg: &set.groups}
	}
	return ts
}

// TestKnobGridIsOneValuePerArguments: KnobGrid lays a grid out exactly as
// the tuner always enumerated it (tunerGrid; a ratio left unswept is 0),
// answers every later call with the same arguments — on any analyzer,
// while the grid is held — with the same *Batch and without allocating,
// and gives other arguments — layer count, checkpoint counts, swept
// ratios — a grid of their own.
func TestKnobGridIsOneValuePerArguments(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	other := newTestAnalyzer(t, "gpt3-1.3b", 2, false)
	all := [4]bool{true, true, true, true}
	mist := a.KnobGrid(8, []int{0, 2, 4, 6, 8}, all)
	if !slices.Equal(mist.Knobs(), tunerGrid(8, []float64{0, 0.5, 1})) {
		t.Fatal("the full grid differs from the tuner's enumeration")
	}
	if got := a.KnobGrid(8, []int{0, 2, 4, 6, 8}, all); got != mist {
		t.Error("a second call built a second grid")
	}
	if got := other.KnobGrid(8, []int{0, 2, 4, 6, 8}, all); got != mist {
		t.Error("another analyzer built a second grid")
	}
	ckpts := []int{0, 2, 4, 6, 8}
	for _, an := range []*Analyzer{a, other} {
		if allocs := testing.AllocsPerRun(100, func() { an.KnobGrid(8, ckpts, all) }); allocs != 0 {
			t.Errorf("a grid hit allocated %v times, want 0", allocs)
		}
	}
	aoOnly := a.KnobGrid(8, []int{8}, [4]bool{false, false, false, true})
	want := []Knobs{{Layers: 8, Ckpt: 8}, {Layers: 8, Ckpt: 8, AO: 0.5}, {Layers: 8, Ckpt: 8, AO: 1}}
	if !slices.Equal(aoOnly.Knobs(), want) {
		t.Errorf("AO-only grid %v, want %v", aoOnly.Knobs(), want)
	}
	seen := map[*Batch]bool{mist: true, aoOnly: true}
	for _, g := range []*Batch{
		a.KnobGrid(9, []int{0, 2, 4, 6, 8}, all),
		a.KnobGrid(8, []int{0, 4, 8}, all),
		a.KnobGrid(8, []int{0, 2, 4, 6, 8}, [4]bool{true, true, true, false}),
		a.KnobGrid(8, []int{8}, [4]bool{}),
	} {
		if seen[g] {
			t.Errorf("grid of %d knobs shares another argument list's batch", g.Len())
		}
		seen[g] = true
	}
}

// TestConcurrentKnobGridFirstUse: goroutines asking fresh analyzers for
// the same grids at once all get one *Batch per argument list.
func TestConcurrentKnobGridFirstUse(t *testing.T) {
	ans := []*Analyzer{
		newTestAnalyzer(t, "gpt3-2.7b", 8, true),
		newTestAnalyzer(t, "gpt3-2.7b", 8, true),
		newTestAnalyzer(t, "gpt3-1.3b", 4, false),
	}
	const goroutines = 8
	got := make([][3]*Batch, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			a := ans[i%len(ans)]
			for l := range got[i] {
				got[i][l] = a.KnobGrid(l+1, []int{0, l + 1}, [4]bool{true, false, true, false})
			}
		}()
	}
	close(start)
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got other grids than goroutine 0", i)
		}
	}
}

// TestUnheldKnobGridLeavesTheTable: the process keeps a knob grid only
// while a caller holds it. Once nobody does, a collection runs its
// cleanup, which deletes its entry — what bounds the table — and the
// next call builds the same entries afresh.
func TestUnheldKnobGridLeavesTheTable(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	layers, ckpts, sweep := 977, []int{0, 3, 977}, [4]bool{false, true, false, true} // no other test's grid
	key := string(gridKey(nil, layers, ckpts, sweep))
	inTable := func() bool {
		gridMu.Lock()
		defer gridMu.Unlock()
		_, ok := grids[key]
		return ok
	}
	g := a.KnobGrid(layers, ckpts, sweep)
	want := slices.Clone(g.Knobs())
	if !inTable() {
		t.Fatal("a held grid is not in the table")
	}
	runtime.GC()
	if !inTable() || a.KnobGrid(layers, ckpts, sweep) != g {
		t.Fatal("a held grid left the table")
	}
	runtime.KeepAlive(g)
	// Cleanups run on a goroutine of their own after the collection that
	// finds the grid dead, so the entry's deletion is awaited.
	for deadline := time.Now().Add(2 * time.Second); inTable(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a grid nobody holds is still in the table 2 s after a collection")
		}
		runtime.GC()
	}
	if again := a.KnobGrid(layers, ckpts, sweep); !slices.Equal(again.Knobs(), want) {
		t.Error("the grid built again differs from the first")
	}
}

// TestOverlapRegionReadSets: each overlap region class depends on the
// knobs only through the ratios regionClasses declares for it, so two
// tuples that agree on them give the class the same times. For every
// variant key (every combination of its fields, a superset of what build
// produces) the free variables of the class's input outputs are shape
// coefficients or declared ratios; and predictRegions reads no output beyond
// the declared inputs (with every other output NaN, the class's terms
// come out finite; Serialize sums, so a NaN read would surface).
func TestOverlapRegionReadSets(t *testing.T) {
	allowed := func(reads [4]bool) map[string]bool {
		ok := map[string]bool{}
		for _, v := range frameVars[:numCoefs] {
			ok[v] = true
		}
		for i, r := range reads {
			if r {
				ok[frameVars[frameWO+i]] = true
			}
		}
		return ok
	}
	keys := variantKeys()
	for _, key := range keys {
		exprs := variantExprs(key)
		for c, class := range regionClasses {
			var inputs []*symbolic.Expr
			for _, o := range class.inputs {
				inputs = append(inputs, exprs[o])
			}
			ok := allowed(class.reads)
			for _, v := range symbolic.MergeVars(inputs...) {
				if !ok[v] {
					t.Errorf("variant %+v: region class %d's inputs read %s, outside its declared ratios %v", key, c, v, class.reads)
				}
			}
		}
	}
	if len(keys) != 96 {
		t.Fatalf("walked %d variant keys, want 96", len(keys))
	}

	a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	a.Serialize = true
	sp := a.program(StageShape{B: 2, DP: 4, TP: 2, ZeRO: 0, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 1})
	if sp.err != nil || sp.arGradLayer <= 0 {
		t.Fatalf("want a shape whose last backward carries the gradient all-reduce: %v", sp.err)
	}
	terms := func(c int, t *overlapTerms) []float64 {
		switch c {
		case fwdRegions:
			return []float64{t.fwdN, t.fwdC}
		case bwdRegions:
			return []float64{t.bwdN, t.bwdC, t.bwdLastN, t.bwdLastC}
		default:
			return []float64{t.fwdFirstN, t.fwdFirstC, t.prefetch, t.cpuStep}
		}
	}
	for c, class := range regionClasses {
		out := make([]float64, numOutputs)
		for o := range out {
			out[o] = math.NaN()
		}
		for i, o := range class.inputs {
			out[o] = 1e-3 * float64(i+1)
		}
		var tm overlapTerms
		n := a.predictRegions(sp, c, out, &tm)
		got := terms(c, &tm)
		if want := map[int]int{fwdRegions: 2, bwdRegions: 4, firstRegions: 2}[c]; n != want {
			t.Errorf("region class %d predicted %d regions, want %d", c, n, want)
		}
		for i, v := range got {
			if math.IsNaN(v) || v <= 0 {
				t.Errorf("region class %d: region %d = %v from its declared inputs alone; it reads another output", c, i, v)
			}
		}
	}
}

// TestReusedGrouperMatchesFresh: one grouper reused across a stream of
// builds — what prepare's pool hands each knob grid — partitions every
// batch exactly as a fresh grouper does, and a prepared batch keeps that
// partition. The stream runs sizes 0 and 1, a batch with duplicates, the
// 405 entries of a full MistSpace grid, then smaller ones, so a reused
// table, group-id buffer or first-match buffer that is longer than the
// batch must not leak stale entries into it.
func TestReusedGrouperMatchesFresh(t *testing.T) {
	full := tunerGrid(8, []float64{0, 0.5, 1})
	if len(full) != 405 {
		t.Fatalf("the full grid has %d entries, want 405", len(full))
	}
	dups := append(slices.Clone(full[:20]), full[3:9]...)
	dups = append(dups, full[0], full[0], full[19])
	stream := [][]Knobs{
		nil,
		full[7:8],
		dups,
		full,
		full[:81],
		tunerGrid(4, []float64{0, 1}),
		full[200:203],
		full[:2],
		nil,
		full[404:],
	}
	same := func(a, b *tupleGroups) bool {
		if !slices.Equal(a.order, b.order) || !slices.Equal(a.starts, b.starts) {
			return false
		}
		for c := range a.first {
			if !slices.Equal(a.first[c], b.first[c]) {
				return false
			}
		}
		return true
	}
	var reused grouper
	for i, ks := range stream {
		var fresh grouper
		if err := fresh.build(ks); err != nil {
			t.Fatal(err)
		}
		if err := reused.build(ks); err != nil {
			t.Fatal(err)
		}
		if !same(&reused.tupleGroups, &fresh.tupleGroups) {
			t.Errorf("batch %d (%d entries): reused grouper %+v, fresh %+v", i, len(ks), reused.tupleGroups, fresh.tupleGroups)
		}
		if b := NewBatch(ks); !same(&b.groups, &fresh.tupleGroups) {
			t.Errorf("batch %d (%d entries): prepared batch keeps %+v, fresh grouper %+v", i, len(ks), b.groups, fresh.tupleGroups)
		}
	}
}
