package core

import (
	"math"
	"sort"

	"repro/internal/hardware"
	"repro/internal/plan"
	"repro/internal/schedule"
)

// Warm-started search: a neighbor plan (typically the closest record in
// the plan store) seeds the search three ways, each provably unable to
// make the result worse than a cold search of the same space:
//
//  1. The seed is priced up front; its objective U seeds the incumbent
//     bound (which every completed wave of (S, G) pairs then tightens —
//     cold searches prune the same way once their first wave lands). Any
//     candidate c with G·(t_c + min(0, d_c)/G) > U cannot appear in a
//     solution matching U — the objective is at least
//     (G-1)·maxT + ΣT >= G·t_c (imbalance-aware; the averaged objective
//     substitutes τ = t + d/G) — so it is pruned before inter-stage
//     selection. The comparison is strict, so every candidate of every
//     solution tying the final optimum survives: removing a point never
//     hides a solution as good as U, and the (objective, S, G)
//     tie-break sees exactly the tie set an unpruned search would.
//  2. During a pair's stage-by-stage sweep, the per-stage candidate
//     minima accumulate into the same lower bound; once
//     (G-1)·max_j m_j + Σ_j m_j > U the pair is abandoned before its
//     remaining stages are priced — that is where pruned searches save
//     analyzer evaluations outright.
//  3. The seed's own per-stage candidates are injected into the
//     matching (S, G) pair so the inter-stage solver can recombine
//     around them, and the seed plan is the fallback answer whenever the
//     (pruned) search fails to beat U.
//
// Together: warm objective <= min(cold objective, U). If the cold
// optimum beats U it survives pruning and is found; otherwise the seed
// (objective U <= cold) is returned.

// warmSeed is a priced, feasibility-checked seed plan.
type warmSeed struct {
	stages    []candidate
	g         int
	objective float64
}

// owns reports whether (s, g) is the seed's own pair; false without a seed.
func (w *warmSeed) owns(s, g int) bool { return w != nil && s == len(w.stages) && g == w.g }

// prepareWarm validates, adapts and prices t.Warm under the current
// analyzer, also reporting how many evaluator calls it made — the
// caller folds them into Result.Candidates even when the seed is
// rejected partway, so the candidate count reconciles with the eval
// cache's hit/miss counters. It returns a nil seed (cold search) when
// the plan cannot be made feasible for this workload/cluster: warm
// starting is best-effort.
func (t *Tuner) prepareWarm() (*warmSeed, int) {
	if t.Warm == nil {
		return nil, 0
	}
	p := t.Warm
	if p.Validate(t.W) != nil {
		p = AdaptPlan(p, t.W, t.Cluster)
		if p == nil {
			return nil, 0
		}
	}
	budget := t.Cluster.MemoryBudget() * planSafetyFraction
	stages := make([]candidate, len(p.Stages))
	evaluated := 0
	for i, st := range p.Stages {
		r, err := t.backend().Evaluate(st.Shape, st.Knobs)
		evaluated++
		if err != nil || !r.Fits(budget) {
			return nil, evaluated
		}
		stages[i] = candidate{Shape: st.Shape, Knobs: st.Knobs, T: r.Stable, D: r.Delta}
	}
	return &warmSeed{
		stages:    stages,
		g:         p.GradAccum,
		objective: t.objective(stagePerfs(nil, stages), p.GradAccum),
	}, evaluated
}

// boundValue is the per-candidate quantity whose G-fold multiple lower
// bounds any objective the candidate can participate in, valid for both
// the imbalance-aware objective ((G-1)maxT + ΣT + Dm, Dm >= 0) and the
// averaged one ((G-1)maxτ + Στ with τ = t + d/G).
func boundValue(c candidate, g int) float64 {
	v := c.T
	if c.D < 0 {
		v += c.D / float64(g)
	}
	return v
}

// pruneByBound drops candidates that provably cannot beat the incumbent
// objective, counting them into the pruning telemetry. The comparison is
// strict: a candidate whose lower bound exactly equals the incumbent is
// kept, so every candidate of any solution tying the final optimum
// survives and the tuner's (objective, S, G) tie-breaking sees the same
// tie set as an unpruned search — the chosen plan is bit-identical.
func (t *Tuner) pruneByBound(cands []candidate, g int) []candidate {
	bound := t.incumbent
	if math.IsInf(bound, 1) {
		return cands
	}
	kept := cands[:0]
	for _, c := range cands {
		if float64(g)*boundValue(c, g) > bound {
			t.warmPruned.Add(1)
			continue
		}
		kept = append(kept, c)
	}
	return kept
}

// pairBound maintains the running (S, G)-pair lower bound of warm-start
// rule 2: per-stage candidate minima accumulated as stages are priced.
type pairBound struct {
	sum, max float64
}

// add folds one stage's candidate list into the bound and reports
// whether the pair is now provably worse than the incumbent. Strict
// comparison again: a pair whose lower bound ties the incumbent may
// still realize exactly that objective, and abandoning it would change
// which pairs participate in the final (objective, S, G) tie-break.
func (pb *pairBound) add(cands []candidate, g int, incumbent float64) (pruned bool) {
	if math.IsInf(incumbent, 1) || len(cands) == 0 {
		return false
	}
	m := math.Inf(1)
	for _, c := range cands {
		if v := boundValue(c, g); v < m {
			m = v
		}
	}
	pb.sum += m
	if m > pb.max {
		pb.max = m
	}
	return float64(g-1)*pb.max+pb.sum > incumbent
}

// warmPrunedError marks an (S, G) pair abandoned because the incumbent
// bound proved it could not improve on the warm seed. Callers treat it
// exactly like an infeasible pair. floor is the pair's compute floor when
// that alone exceeded the incumbent and nothing was priced, else 0.
type warmPrunedError struct {
	s, g  int
	floor float64
}

func (e *warmPrunedError) Error() string {
	return "core: (S, G) pair pruned by warm-start incumbent bound"
}

// injectSeed appends the warm seed's stage-i candidate to a stage's
// candidate list when (s, g) is the seed's own pair, so the inter-stage
// solver can recombine around (and at least reproduce) the seed.
func (t *Tuner) injectSeed(cands []candidate, s, g, stageIdx int) []candidate {
	if !t.warmSeed.owns(s, g) {
		return cands
	}
	return append(cands, t.warmSeed.stages[stageIdx])
}

// AdaptPlan reshapes a tuned plan onto a new workload and cluster: the
// pipeline depth and per-stage knob *structure* (checkpoint fraction,
// offload ratios, ZeRO level, tensor-parallel preference) carry over,
// while layer counts are re-apportioned to the new model depth, gradient
// accumulation snaps to the nearest divisor of the new global batch, and
// each stage's (tp, dp, b) is re-derived to satisfy the new mesh and
// batch factorization. Returns nil when no valid adaptation exists —
// warm starts are best-effort, never a correctness dependency.
func AdaptPlan(src *plan.Plan, w plan.Workload, cl *hardware.Cluster) *plan.Plan {
	if src == nil || len(src.Stages) == 0 || src.GradAccum <= 0 {
		return nil
	}
	s := len(src.Stages)
	total := cl.TotalGPUs()
	if total%s != 0 || s > w.Model.Layers {
		return nil
	}
	devPer := total / s
	g := nearestDivisor(w.GlobalBatch, src.GradAccum)
	if g == 0 {
		return nil
	}
	slot := w.GlobalBatch / g // samples per microbatch slot: b·dp

	srcLayers := make([]int, s)
	for i, st := range src.Stages {
		srcLayers[i] = st.Knobs.Layers
	}
	layers := apportionLayers(srcLayers, w.Model.Layers)
	if layers == nil {
		return nil
	}

	out := &plan.Plan{GradAccum: g}
	for i, st := range src.Stages {
		tp := nearestFeasibleTP(st.Shape.TP, devPer, slot, w.Model.Heads, cl.GPUsPerNode)
		if tp == 0 {
			return nil
		}
		dp := devPer / tp
		zero := st.Shape.ZeRO
		if dp == 1 {
			zero = 0
		}
		ck := 0
		if st.Knobs.Layers > 0 {
			ck = int(float64(st.Knobs.Ckpt)/float64(st.Knobs.Layers)*float64(layers[i]) + 0.5)
		}
		if ck > layers[i] {
			ck = layers[i]
		}
		out.Stages = append(out.Stages, plan.Stage{
			Shape: schedule.StageShape{
				B: slot / dp, DP: dp, TP: tp, ZeRO: zero,
				HasPre: i == 0, HasPost: i == s-1,
				NumStages: s, StageIdx: i, GradAccum: g,
			},
			Knobs: schedule.Knobs{
				Layers: layers[i], Ckpt: ck,
				WO: st.Knobs.WO, GO: st.Knobs.GO, OO: st.Knobs.OO, AO: st.Knobs.AO,
			},
		})
	}
	if out.Validate(w) != nil {
		return nil
	}
	return out
}

// nearestDivisor returns the divisor of n closest to target in log
// space (ties to the smaller divisor), or 0 when n <= 0.
func nearestDivisor(n, target int) int {
	if n <= 0 || target <= 0 {
		return 0
	}
	best, bestD := 0, math.Inf(1)
	for d := 1; d <= n; d++ {
		if n%d != 0 {
			continue
		}
		dist := math.Abs(math.Log2(float64(d) / float64(target)))
		if dist < bestD {
			best, bestD = d, dist
		}
	}
	return best
}

// nearestFeasibleTP picks the power-of-two tensor-parallel degree
// closest (log space) to want among those that divide the stage's
// devices and the head count, stay within one node, and leave a
// data-parallel degree dividing the samples-per-slot.
func nearestFeasibleTP(want, devPer, slot, heads, perNode int) int {
	if want < 1 {
		want = 1
	}
	best, bestD := 0, math.Inf(1)
	for tp := 1; tp <= devPer && tp <= perNode; tp *= 2 {
		if devPer%tp != 0 || heads%tp != 0 {
			continue
		}
		dp := devPer / tp
		if slot%dp != 0 || slot/dp < 1 {
			continue
		}
		dist := math.Abs(math.Log2(float64(tp) / float64(want)))
		if dist < bestD {
			best, bestD = tp, dist
		}
	}
	return best
}

// apportionLayers rescales a source layer distribution to a new total by
// largest remainder, keeping every stage at >= 1 layer. Returns nil when
// total < len(src).
func apportionLayers(src []int, total int) []int {
	s := len(src)
	if total < s {
		return nil
	}
	sum := 0
	for _, l := range src {
		sum += l
	}
	if sum <= 0 {
		return nil
	}
	out := make([]int, s)
	type frac struct {
		i int
		f float64
	}
	fracs := make([]frac, s)
	assigned := 0
	for i, l := range src {
		share := float64(l) * float64(total) / float64(sum)
		fl := int(share)
		if fl < 1 {
			fl = 1
		}
		out[i] = fl
		assigned += fl
		fracs[i] = frac{i: i, f: share - float64(fl)}
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].i < fracs[b].i
	})
	for j := 0; assigned < total; j = (j + 1) % s {
		out[fracs[j].i]++
		assigned++
	}
	for assigned > total {
		// Min-1 clamps oversubscribed: shave the largest stages back.
		maxI := 0
		for i := 1; i < s; i++ {
			if out[i] > out[maxI] {
				maxI = i
			}
		}
		if out[maxI] <= 1 {
			return nil
		}
		out[maxI]--
		assigned--
	}
	return out
}
