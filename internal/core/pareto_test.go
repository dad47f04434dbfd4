package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/schedule"
)

// sortedSweepFrontier is the frontier's definition, executed: sort by the
// total order (T, D, index) and keep every point whose D is strictly
// below all earlier ones.
func sortedSweepFrontier(cands []point) []point {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(cands[a].T, cands[b].T); c != 0 {
			return c
		}
		if c := cmp.Compare(cands[a].D, cands[b].D); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	var front []point
	for _, i := range idx {
		if len(front) == 0 || cands[i].D < front[len(front)-1].D {
			front = append(front, cands[i])
		}
	}
	return front
}

// randCandidates draws a candidate list whose (T, D) points come from a
// small value pool — equal-T runs and exact (T, D) duplicates are the
// norm, not the exception — in random, ascending or descending order.
// Each point's knob carries its list position, so two equal (T, D) points
// are still told apart.
func randCandidates(rng *rand.Rand) []point {
	n := rng.Intn(400)
	pool := 1 + rng.Intn(40)
	cands := make([]point, n)
	for i := range cands {
		cands[i].T = float64(rng.Intn(pool))
		cands[i].D = float64(rng.Intn(pool))
		if rng.Intn(4) == 0 && i > 0 {
			cands[i].T = cands[i-1].T // forced equal-T run
			if rng.Intn(2) == 0 {
				cands[i].D = cands[i-1].D // forced exact duplicate
			}
		}
	}
	byTD := func(a, b point) int {
		if c := cmp.Compare(a.T, b.T); c != 0 {
			return c
		}
		return cmp.Compare(a.D, b.D)
	}
	switch rng.Intn(3) {
	case 1:
		slices.SortStableFunc(cands, byTD)
	case 2:
		slices.SortStableFunc(cands, func(a, b point) int { return byTD(b, a) })
	}
	for i := range cands {
		cands[i].knob = int32(i)
	}
	return cands
}

// randSegments cuts a list into the form the sweep hands over: one
// segment per shape, some of them empty.
func randSegments(rng *rand.Rand, cands []point) [][]point {
	var segs [][]point
	for len(cands) > 0 {
		n := rng.Intn(len(cands) + 1)
		segs = append(segs, cands[:n:n])
		cands = cands[n:]
	}
	return segs
}

// layOut makes sc hold segments as intraStage leaves a window of one
// layer count: segment i is shape i's full pricing, of which sc holds
// what the cache publishes, the staircase (schedule.AppendStaircase under
// a budget of 1) and the results at it; an entry fits the budget unless
// over (nil: never) says otherwise. It returns the entries that fit, in
// enumeration order, as the points the staircase makes of them (shape
// and knob are the entry's row and position), and the full pricings.
func layOut(sc *sweepScratch, segs [][]point, over func() bool) (fits []point, full [][]schedule.Result) {
	const budget = 1
	sc.shapes = make([]schedule.StageShape, len(segs))
	sc.sets = []*schedule.Batch{nil}
	sc.rows = sc.rows[:0]
	for si, seg := range segs {
		row := make([]schedule.Result, len(seg))
		for j, p := range seg {
			row[j] = schedule.Result{Stable: p.T, Delta: p.D}
			if over != nil && over() {
				row[j].PeakMem = 2 * budget
				continue
			}
			fits = append(fits, point{T: p.T, D: p.D, shape: int32(si), knob: int32(j)})
		}
		stair := schedule.AppendStaircase(nil, row, budget)
		steps := make([]schedule.Result, len(stair))
		for k, j := range stair {
			steps[k] = row[j]
		}
		sc.rows = append(sc.rows, schedule.Row{Stair: stair, Steps: steps})
		full = append(full, row)
	}
	return fits, full
}

// wholeRowFrontier is paretoFrontier as it was before rows carried their
// staircases: every entry of every full row, in enumeration order,
// through the same staircase insertion, the budget checked per entry.
func wholeRowFrontier(rows [][]schedule.Result, budget float64) []point {
	var stair []point
	for si, row := range rows {
		for j := range row {
			r := &row[j]
			if !r.Fits(budget) {
				continue
			}
			t, d := r.Stable, r.Delta
			hi := len(stair)
			for hi > 0 && stair[hi-1].T > t {
				hi--
			}
			if hi > 0 && stair[hi-1].D <= d {
				continue
			}
			lo := hi
			if lo > 0 && stair[lo-1].T == t {
				lo--
			}
			for hi < len(stair) && stair[hi].D >= d {
				hi++
			}
			p := point{T: t, D: d, shape: int32(si), knob: int32(j)}
			stair = slices.Replace(stair, lo, hi, p)
		}
	}
	return stair
}

// TestPropertyParetoStaircaseMatchesSortedSweep: the frontier merged from
// the rows' staircases returns the same points in the same order as the
// sort-then-sweep definition over the entries that fit the budget — ties
// and duplicates included: of equal (T, D) points the first in the list
// survives, wherever the row boundaries and the over-budget entries fall.
func TestPropertyParetoStaircaseMatchesSortedSweep(t *testing.T) {
	sc := &sweepScratch{} // reused, as tuneSG reuses one per (S, G) pair
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fits, _ := layOut(sc, randSegments(rng, randCandidates(rng)), func() bool { return rng.Intn(5) == 0 })
		return slices.Equal(paretoFrontier(sc, 0), sortedSweepFrontier(fits))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStaircaseMergeMatchesWholeRows: merging the per-row
// staircases gives the whole-row walk's frontier point for point — shape
// and knob included, so an exact (T, D) duplicate inside a row resolves
// to its first entry and one across rows to the earlier shape's — with
// over-budget entries among them, some of which would be on the frontier
// if they fit.
func TestPropertyStaircaseMergeMatchesWholeRows(t *testing.T) {
	sc := &sweepScratch{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cands := randCandidates(rng)
		// A few rows repeat an earlier row's values outright: duplicates
		// across shapes at every step.
		segs := randSegments(rng, cands)
		for k := rng.Intn(3); k > 0 && len(segs) > 0; k-- {
			segs = append(segs, slices.Clone(segs[rng.Intn(len(segs))]))
		}
		_, full := layOut(sc, segs, func() bool { return rng.Intn(4) == 0 })
		return slices.Equal(paretoFrontier(sc, 0), wholeRowFrontier(full, 1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPointShape pins the staircase's element: an insertion shifts the
// steps behind it, and the sampled steps are value-copied out.
func TestPointShape(t *testing.T) {
	if got := unsafe.Sizeof(point{}); got != 24 {
		t.Errorf("point is %d bytes, want 24 (T, D float64; shape, knob int32)", got)
	}
}

func TestParetoFrontierAllocatesNothingOnGrownScratch(t *testing.T) {
	cands := randCandidates(rand.New(rand.NewSource(7)))
	for len(cands) < 100 {
		cands = append(cands, randCandidates(rand.New(rand.NewSource(int64(len(cands)))))...)
	}
	sc := &sweepScratch{}
	layOut(sc, [][]point{cands[:50], cands[50:]}, nil)
	paretoFrontier(sc, 0)
	if allocs := testing.AllocsPerRun(20, func() { paretoFrontier(sc, 0) }); allocs != 0 {
		t.Errorf("paretoFrontier allocated %v times per run on a grown scratch, want 0", allocs)
	}
}
