package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"
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

// TestPropertyParetoStaircaseMatchesSortedSweep: the incremental
// staircase returns the same points in the same order as the
// sort-then-sweep definition — ties and duplicates included: of equal
// (T, D) points the first in the list survives, wherever the segment
// boundaries fall.
func TestPropertyParetoStaircaseMatchesSortedSweep(t *testing.T) {
	sc := &sweepScratch{} // reused, as tuneSG reuses one per (S, G) pair
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cands := randCandidates(rng)
		return slices.Equal(paretoFrontier(randSegments(rng, cands), sc), sortedSweepFrontier(cands))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPointShape pins the sweep blocks' element: a stage sweep holds one
// point per feasible (shape, knob) of its window, thousands at a time.
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
	segs := [][]point{cands[:50], cands[50:]}
	paretoFrontier(segs, sc)
	if allocs := testing.AllocsPerRun(20, func() { paretoFrontier(segs, sc) }); allocs != 0 {
		t.Errorf("paretoFrontier allocated %v times per run on a grown scratch, want 0", allocs)
	}
}
