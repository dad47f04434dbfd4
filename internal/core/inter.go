package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/milp"
	"repro/internal/pipeline"
)

// interSolution is the chosen candidate per stage plus the objective.
type interSolution struct {
	Stages    []candidate
	Objective float64
}

// solveInterMILP selects one candidate per stage (jointly choosing the
// layer partition, the device/parallelism split, and the Pareto index
// f_i) by solving the paper's Eq. 2 MILP:
//
//	min (G−1)·T + Σ_i t_i + Dm
//	s.t. one candidate per stage; Σ_i l_i = L;
//	     T ≥ t_i;  Dm ≥ d_i − Σ_{j<i} t_j;  Dm ≥ 0.
//
// With ImbalanceAware off it degrades to the averaged objective used by
// prior planners: min (G−1)·max_i avg_i + Σ avg_i with avg = t + d/G.
func (t *Tuner) solveInterMILP(cands [][]candidate, totalLayers, g int) (*interSolution, error) {
	s := len(cands)
	if s == 0 {
		return nil, errors.New("core: no stages")
	}
	n := 0
	offsets := make([]int, s)
	for i, list := range cands {
		if len(list) == 0 {
			return nil, fmt.Errorf("core: stage %d has no feasible candidates", i)
		}
		offsets[i] = n
		n += len(list)
	}
	idxT := n
	idxDm := n + 1
	p := milp.NewProblem(n + 2)
	for i, list := range cands {
		for c := range list {
			p.SetBinary(offsets[i] + c)
		}
	}
	p.SetBounds(idxT, 0, math.Inf(1))
	p.SetBounds(idxDm, 0, math.Inf(1))

	imbalance := t.Space.ImbalanceAware
	timeOf := func(c candidate) float64 {
		if imbalance {
			return c.T
		}
		return c.T + c.D/float64(g)
	}

	// Objective: (G-1)T + sum t_i (+ Dm when imbalance-aware).
	p.SetObjective(idxT, float64(g-1))
	for i, list := range cands {
		for c, cand := range list {
			p.SetObjective(offsets[i]+c, timeOf(cand))
		}
	}
	if imbalance {
		p.SetObjective(idxDm, 1)
	}

	// One candidate per stage; layers sum to the model depth.
	layerRow := map[int]float64{}
	for i, list := range cands {
		row := map[int]float64{}
		for c, cand := range list {
			row[offsets[i]+c] = 1
			layerRow[offsets[i]+c] = float64(cand.Knobs.Layers)
		}
		p.AddConstraint(row, milp.EQ, 1)
	}
	p.AddConstraint(layerRow, milp.EQ, float64(totalLayers))

	// Bottleneck: T >= t_i.
	for i, list := range cands {
		row := map[int]float64{idxT: 1}
		for c, cand := range list {
			row[offsets[i]+c] = -timeOf(cand)
		}
		p.AddConstraint(row, milp.GE, 0)
	}

	// Imbalance terms: Dm >= d_i - sum_{j<i} t_j.
	if imbalance {
		for i := range cands {
			row := map[int]float64{idxDm: 1}
			for j := 0; j < i; j++ {
				for c, cand := range cands[j] {
					row[offsets[j]+c] += cand.T
				}
			}
			for c, cand := range cands[i] {
				row[offsets[i]+c] -= cand.D
			}
			p.AddConstraint(row, milp.GE, 0)
		}
	}

	sol, err := p.SolveMILP()
	if err != nil {
		return nil, err
	}
	out := &interSolution{Objective: sol.Objective}
	layerSum := 0
	for i, list := range cands {
		chosen := -1
		for c := range list {
			if sol.X[offsets[i]+c] > 0.5 {
				chosen = c
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("core: MILP returned no selection for stage %d", i)
		}
		layerSum += list[chosen].Knobs.Layers
		out.Stages = append(out.Stages, list[chosen])
	}
	if layerSum != totalLayers {
		return nil, fmt.Errorf("core: MILP selection sums to %d layers, want %d", layerSum, totalLayers)
	}
	return out, nil
}

// solveInterDP is the default inter-stage solver: an exact dynamic
// program over the same Eq. 2 objective the MILP encodes. It relies on
// the identity
//
//	Σ_i t_i + max_i (d_i − Σ_{j<i} t_j)  =  max_i (d_i + Σ_{j>=i} t_j),
//
// so the objective becomes (G−1)·max_i t_i + max_i (d_i + suffix_i),
// which composes right-to-left: prepending stage i to a suffix solution
// with running totals (sum, best, maxT) yields (sum+t_i,
// max(best, d_i+t_i+sum), max(maxT, t_i)). All three coordinates act
// monotonically on the final objective, so keeping the Pareto frontier
// of (sum, best, maxT) triples per (stage, remaining layers) state is
// exact. This is typically orders of magnitude faster than the MILP on
// deep pipelines while returning the same optimum (cross-checked in
// tests); the MILP remains available as the paper-faithful formulation.
//
// The state also carries the devices remaining, for heterogeneous
// per-stage device assignment (the paper's (n_i, m_i) variables): with
// totalDevices > 0 the stage lists may mix device counts and the chosen
// ones must sum to it. A uniform sweep, whose every combination tiles
// the cluster already, passes 0: no candidate consumes devices and the
// device dimension has the single value 0.
func (t *Tuner) solveInterDP(cands [][]candidate, totalLayers, totalDevices, g int) (*interSolution, error) {
	s := len(cands)
	if s == 0 {
		return nil, errors.New("core: no stages")
	}
	imbalance := t.Space.ImbalanceAware
	timeOf := func(c candidate) (ti, di float64) {
		if imbalance {
			return c.T, c.D
		}
		return c.T + c.D/float64(g), 0
	}

	// state value: Pareto set of triples with backtracking info.
	type triple struct {
		sum, best, maxT float64
		cand            int // candidate index chosen at this stage
		prev            int // the successor state
		prevIdx         int // index into the successor state's frontier
	}
	// frontiers[state(i, lrem, drem)] = Pareto set for stages i..s-1 given
	// lrem layers and drem devices, one flat table.
	state := func(i, lrem, drem int) int {
		return (i*(totalLayers+1)+lrem)*(totalDevices+1) + drem
	}
	frontiers := make([][]triple, (s+1)*(totalLayers+1)*(totalDevices+1))
	frontiers[state(s, 0, 0)] = []triple{{prevIdx: -1, cand: -1}}

	dominates := func(a, b triple) bool {
		return a.sum <= b.sum+1e-12 && a.best <= b.best+1e-12 && a.maxT <= b.maxT+1e-12
	}
	insert := func(set []triple, tr triple) []triple {
		for _, x := range set {
			if dominates(x, tr) {
				return set
			}
		}
		out := set[:0]
		for _, x := range set {
			if !dominates(tr, x) {
				out = append(out, x)
			}
		}
		return append(out, tr)
	}

	for i := s - 1; i >= 0; i-- {
		for lrem := 0; lrem <= totalLayers; lrem++ {
			for drem := 0; drem <= totalDevices; drem++ {
				cur := state(i, lrem, drem)
				for ci, c := range cands[i] {
					l, d := c.Knobs.Layers, 0
					if totalDevices > 0 {
						d = c.Shape.Devices()
					}
					if l > lrem || d > drem {
						continue
					}
					prev := state(i+1, lrem-l, drem-d)
					succ := frontiers[prev]
					if len(succ) == 0 {
						continue
					}
					ti, di := timeOf(c)
					for pi, p := range succ {
						nt := triple{
							sum:     p.sum + ti,
							best:    max(p.best, di+ti+p.sum),
							maxT:    max(p.maxT, ti),
							cand:    ci,
							prev:    prev,
							prevIdx: pi,
						}
						frontiers[cur] = insert(frontiers[cur], nt)
					}
				}
			}
		}
	}
	root := frontiers[state(0, totalLayers, totalDevices)]
	if len(root) == 0 {
		return nil, errors.New("core: DP found no feasible partition")
	}
	bestObj := math.Inf(1)
	bestIdx := -1
	for ri, tr := range root {
		obj := float64(g-1)*tr.maxT + tr.best
		if obj < bestObj {
			bestObj = obj
			bestIdx = ri
		}
	}
	// Backtrack.
	out := &interSolution{Objective: bestObj}
	at, idx := state(0, totalLayers, totalDevices), bestIdx
	for i := 0; i < s; i++ {
		tr := frontiers[at][idx]
		out.Stages = append(out.Stages, cands[i][tr.cand])
		at, idx = tr.prev, tr.prevIdx
	}
	return out, nil
}

// stagePerfs appends the (t, d) of a selection to dst[:0]: the selection
// as pipeline's objectives take it.
func stagePerfs(dst []pipeline.StagePerf, sel []candidate) []pipeline.StagePerf {
	dst = dst[:0]
	for _, c := range sel {
		dst = append(dst, pipeline.StagePerf{Stable: c.T, Delta: c.D})
	}
	return dst
}

// objective evaluates the configured inter-stage objective for a full
// stage selection: Eq. 1, or with ImbalanceAware off the averaged
// objective of prior planners.
func (t *Tuner) objective(sel []pipeline.StagePerf, g int) float64 {
	if t.Space.ImbalanceAware {
		return pipeline.IterationTime(sel, g)
	}
	return pipeline.IterationTimeAveraged(sel, g)
}
