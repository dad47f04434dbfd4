package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/schedule"
)

// solveInterExhaustive enumerates every candidate combination with
// branch-and-bound pruning. Exponential in the stage count. It is the
// oracle the DP and the MILP are checked against: a search runs it only
// through Tuner.interOracle, and nothing falls back to it.
func (t *Tuner) solveInterExhaustive(cands [][]candidate, totalLayers, g int) (*interSolution, error) {
	s := len(cands)
	if s == 0 {
		return nil, errors.New("core: no stages")
	}
	// Optimistic per-stage bounds for pruning.
	minT := make([]float64, s)
	minL := make([]int, s)
	maxL := make([]int, s)
	for i, list := range cands {
		if len(list) == 0 {
			return nil, fmt.Errorf("core: stage %d has no feasible candidates", i)
		}
		minT[i] = math.Inf(1)
		minL[i] = math.MaxInt32
		for _, c := range list {
			if c.T < minT[i] {
				minT[i] = c.T
			}
			if c.Knobs.Layers < minL[i] {
				minL[i] = c.Knobs.Layers
			}
			if c.Knobs.Layers > maxL[i] {
				maxL[i] = c.Knobs.Layers
			}
		}
	}
	suffixMinT := make([]float64, s+1)
	suffixMinL := make([]int, s+1)
	suffixMaxL := make([]int, s+1)
	for i := s - 1; i >= 0; i-- {
		suffixMinT[i] = suffixMinT[i+1] + minT[i]
		suffixMinL[i] = suffixMinL[i+1] + minL[i]
		suffixMaxL[i] = suffixMaxL[i+1] + maxL[i]
	}

	best := math.Inf(1)
	var bestPick []int
	pick := make([]int, s)
	sel := make([]pipeline.StagePerf, 0, s) // the one selection buffer: a leaf prices it in place

	var rec func(i, layersLeft int)
	rec = func(i, layersLeft int) {
		if layersLeft < suffixMinL[i] || layersLeft > suffixMaxL[i] {
			return
		}
		if i == s {
			obj := t.objective(sel, g)
			if obj < best {
				best = obj
				bestPick = append(bestPick[:0], pick...)
			}
			return
		}
		// Optimistic bound: even with zero deltas and no new bottleneck.
		partialSum := 0.0
		partialMax := 0.0
		for _, c := range sel {
			partialSum += c.Stable
			if c.Stable > partialMax {
				partialMax = c.Stable
			}
		}
		lower := float64(g-1)*partialMax + partialSum + suffixMinT[i]
		if lower >= best {
			return
		}
		for ci, c := range cands[i] {
			pick[i] = ci
			sel = append(sel, pipeline.StagePerf{Stable: c.T, Delta: c.D})
			rec(i+1, layersLeft-c.Knobs.Layers)
			sel = sel[:len(sel)-1]
		}
	}
	rec(0, totalLayers)
	if bestPick == nil {
		return nil, errors.New("core: exhaustive search found no feasible partition")
	}
	out := &interSolution{Objective: best}
	for i, ci := range bestPick {
		out.Stages = append(out.Stages, cands[i][ci])
	}
	return out, nil
}

// exhaustive is the enumeration as Tuner.interOracle takes it.
var exhaustive = (*Tuner).solveInterExhaustive

// TestSolversAgree: on every golden cell the enumeration can afford (at
// most four GPUs), under every space whose search runs the inter-stage
// solver on one device count per stage — the five named systems and the
// four averaged rungs of Figure 13 — the DP (default), the MILP
// (paper-faithful) and the branch-and-bound enumeration find the same
// optimal objective within 1e-6 relative. The heterogeneous space is
// left out because the enumeration has no device dimension, and the
// uniform space because its search runs no inter-stage solver.
func TestSolversAgree(t *testing.T) {
	spaces := []Space{MistSpace(), DeepSpeedSpace(), AcesoSpace(), ThreeDSpace(), MegatronSpace()}
	for _, rung := range BreakdownLadder()[:4] { // the fifth is MistSpace
		rung.Name += "(averaged)"
		spaces = append(spaces, rung)
	}
	cells := 0
	for _, cell := range goldenCells {
		if cell.gpus > 4 {
			continue
		}
		cells++
		w, cl := cell.workload(t)
		for _, space := range spaces {
			name := cell.name + "/" + space.Name
			dp, err := New(w, cl, space)
			if err != nil {
				t.Fatal(err)
			}
			milp := &Tuner{W: w, Cluster: cl, An: dp.An, Space: space, UseMILP: true}
			brute := &Tuner{W: w, Cluster: cl, An: dp.An, Space: space, interOracle: exhaustive}
			var obj [3]float64
			for i, tn := range []*Tuner{dp, milp, brute} {
				res, err := tn.Tune()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				obj[i] = res.Predicted
			}
			for i, solver := range []string{"DP", "MILP"} {
				if math.Abs(obj[i]-obj[2]) > 1e-6*obj[2] {
					t.Errorf("%s: %s objective %v != brute force %v", name, solver, obj[i], obj[2])
				}
			}
		}
	}
	if cells == 0 {
		t.Fatal("no golden cell of at most four GPUs: the test compared nothing")
	}
}

// TestSolversAgreeOnHandBuiltLists is the differential check of the one
// inter-stage DP on candidate lists small enough to enumerate: every
// selection of one candidate per stage whose layers sum to L and whose
// devices sum to N is priced by the Eq. 1 (or averaged) objective as the
// paper writes it, and the DP must return exactly the minimum — times
// are multiples of 1/8 and G a power of two, so every sum is exact and
// the comparison is == (the MILP's simplex pivots divide, so it alone is
// held to 1e-6). Rows whose candidates all hold the same device
// count are the uniform sweep's case: there the DP is also run the way
// that sweep runs it (no device budget, the device dimension of size
// one) and checked against the MILP and the branch-and-bound enumeration.
func TestSolversAgreeOnHandBuiltLists(t *testing.T) {
	c := func(layers, devices int, tm, d float64) candidate {
		return candidate{
			Shape: schedule.StageShape{DP: devices, TP: 1},
			Knobs: schedule.Knobs{Layers: layers}, T: tm, D: d,
		}
	}
	rows := []struct {
		name               string
		layers, devices, g int
		uniform            bool
		cands              [][]candidate
	}{
		{"uniform-2x3", 8, 2, 4, true, [][]candidate{
			{c(3, 1, 3, 0.5), c(4, 1, 4, 0.25), c(5, 1, 5, 0)},
			{c(3, 1, 3.5, 1), c(4, 1, 4.5, 0.5), c(5, 1, 5.5, 2)},
		}},
		// Large deltas on fast stages: the two objectives disagree.
		{"uniform-3x4-spiky", 12, 6, 8, true, [][]candidate{
			{c(3, 2, 1.5, 0), c(4, 2, 2, 0.25), c(5, 2, 2.5, 0), c(4, 2, 1.75, 3)},
			{c(3, 2, 1.5, 4), c(4, 2, 2, 0.5), c(5, 2, 2.5, 0.125), c(4, 2, 1.875, 6)},
			{c(3, 2, 1.625, 0.5), c(4, 2, 2.25, 0), c(5, 2, 2.75, 0.25), c(4, 2, 2, 8)},
		}},
		{"uniform-4x6", 16, 4, 2, true, [][]candidate{
			{c(2, 1, 2.25, 0), c(3, 1, 3.25, 0.5), c(4, 1, 4.25, 0.125), c(4, 1, 4, 2.5), c(5, 1, 5.25, 0), c(6, 1, 6.25, 0.25)},
			{c(2, 1, 2, 1), c(3, 1, 3, 0), c(4, 1, 4, 0.5), c(4, 1, 3.75, 4), c(5, 1, 5, 0.25), c(6, 1, 6, 0)},
			{c(2, 1, 2, 0), c(3, 1, 3, 1.5), c(4, 1, 4, 0), c(4, 1, 3.875, 1), c(5, 1, 5, 0.5), c(6, 1, 6, 3)},
			{c(2, 1, 2.5, 0.5), c(3, 1, 3.5, 0), c(4, 1, 4.5, 0.25), c(4, 1, 4.25, 2), c(5, 1, 5.5, 0), c(6, 1, 6.5, 1)},
		}},
		{"mixed-2x6-on-4", 8, 4, 4, false, [][]candidate{
			{c(4, 1, 8, 0), c(4, 2, 4, 0.5), c(4, 3, 3, 0.25), c(3, 2, 3, 1), c(5, 2, 5, 0), c(5, 3, 3.5, 2)},
			{c(4, 1, 8.5, 0), c(4, 2, 4.5, 1), c(4, 3, 3.25, 0), c(3, 1, 6.5, 0.5), c(5, 2, 5.5, 0.25), c(5, 1, 10, 0)},
		}},
		// Three stages on four devices: no uniform split exists.
		{"mixed-3x6-on-4", 12, 4, 4, false, [][]candidate{
			{c(3, 1, 6, 0), c(4, 1, 8, 0.5), c(5, 1, 10, 0), c(3, 2, 3.25, 1), c(4, 2, 4.25, 0), c(5, 2, 5.25, 3)},
			{c(3, 1, 5.5, 2), c(4, 1, 7.5, 0), c(5, 1, 9.5, 0.25), c(3, 2, 3, 0), c(4, 2, 4, 5), c(5, 2, 5, 0.5)},
			{c(3, 1, 6.5, 0), c(4, 1, 8.5, 1), c(5, 1, 10.5, 0), c(3, 2, 3.5, 0.25), c(4, 2, 4.5, 0), c(5, 2, 5.5, 0.125)},
		}},
		{"mixed-4x6-on-8", 16, 8, 8, false, [][]candidate{
			{c(3, 1, 6, 0), c(4, 1, 8, 0), c(4, 2, 4.25, 1), c(5, 2, 5.25, 0), c(4, 4, 2.5, 6), c(5, 4, 3, 0.5)},
			{c(3, 1, 5.5, 0.5), c(4, 1, 7.5, 0), c(4, 2, 4, 0), c(5, 2, 5, 2), c(3, 4, 1.75, 0), c(4, 4, 2.25, 9)},
			{c(3, 1, 5.5, 0), c(4, 1, 7.5, 3), c(4, 2, 4, 0.25), c(5, 2, 5, 0), c(3, 3, 2.25, 0), c(4, 3, 2.875, 1)},
			{c(3, 1, 6.5, 0), c(4, 1, 8.5, 0), c(4, 2, 4.5, 0.5), c(5, 2, 5.5, 0), c(4, 4, 2.75, 0), c(5, 4, 3.25, 4)},
		}},
		// Two stages of at most two devices cannot tile five.
		{"mixed-unreachable", 6, 5, 2, false, [][]candidate{
			{c(3, 1, 3, 0), c(3, 2, 1.5, 0)},
			{c(3, 1, 3, 0), c(3, 2, 1.5, 0)},
		}},
	}
	// Eq. 1, or with imbalance off the averaged objective of prior
	// planners, written out literally.
	objective := func(sel []candidate, g int, imbalance bool) float64 {
		maxT, sumT, dm, prefix := 0.0, 0.0, 0.0, 0.0
		for _, c := range sel {
			tm := c.T
			if imbalance {
				dm = math.Max(dm, c.D-prefix)
				prefix += c.T
			} else {
				tm += c.D / float64(g)
			}
			maxT, sumT = math.Max(maxT, tm), sumT+tm
		}
		return float64(g-1)*maxT + sumT + dm
	}
	for _, row := range rows {
		for _, imbalance := range []bool{true, false} {
			want := math.Inf(1)
			sel := make([]candidate, len(row.cands))
			var enumerate func(i, layersLeft, devicesLeft int)
			enumerate = func(i, layersLeft, devicesLeft int) {
				if i == len(sel) {
					if layersLeft == 0 && devicesLeft == 0 {
						want = math.Min(want, objective(sel, row.g, imbalance))
					}
					return
				}
				for _, c := range row.cands[i] {
					sel[i] = c
					enumerate(i+1, layersLeft-c.Knobs.Layers, devicesLeft-c.Shape.Devices())
				}
			}
			enumerate(0, row.layers, row.devices)

			tn := &Tuner{Space: Space{ImbalanceAware: imbalance}}
			check := func(solver string, sol *interSolution, err error, tol float64) {
				t.Helper()
				if math.IsInf(want, 1) {
					if err == nil {
						t.Errorf("%s imbalance=%v: %s found %v where no selection is feasible", row.name, imbalance, solver, sol.Objective)
					}
					return
				}
				if err != nil {
					t.Errorf("%s imbalance=%v: %s: %v", row.name, imbalance, solver, err)
					return
				}
				if math.Abs(sol.Objective-want) > tol*want {
					t.Errorf("%s imbalance=%v: %s objective %v, brute force %v", row.name, imbalance, solver, sol.Objective, want)
				}
				layers, devices := 0, 0
				for _, c := range sol.Stages {
					layers += c.Knobs.Layers
					devices += c.Shape.Devices()
				}
				if layers != row.layers || devices != row.devices {
					t.Errorf("%s imbalance=%v: %s selected %d layers on %d devices, want %d on %d",
						row.name, imbalance, solver, layers, devices, row.layers, row.devices)
				}
				// What a solver reports is the validated objective of what it
				// returned: pipeline's Eq. 1 (the function checked against the
				// exact 1F1B playback) or its averaged form.
				perf := stagePerfs(nil, sol.Stages)
				got := pipeline.IterationTimeAveraged(perf, row.g)
				if imbalance {
					got = pipeline.IterationTime(perf, row.g)
				}
				if math.Abs(got-sol.Objective) > tol*want {
					t.Errorf("%s imbalance=%v: %s reports %v for a selection worth %v", row.name, imbalance, solver, sol.Objective, got)
				}
			}
			sol, err := tn.solveInterDP(row.cands, row.layers, row.devices, row.g)
			check("device-aware DP", sol, err, 0)
			if !row.uniform {
				continue
			}
			sol, err = tn.solveInterDP(row.cands, row.layers, 0, row.g)
			check("DP", sol, err, 0)
			sol, err = tn.solveInterExhaustive(row.cands, row.layers, row.g)
			check("exhaustive", sol, err, 0)
			sol, err = tn.solveInterMILP(row.cands, row.layers, row.g)
			check("MILP", sol, err, 1e-6)
		}
	}
}
