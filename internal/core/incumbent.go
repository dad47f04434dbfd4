package core

import (
	"errors"
	"math"
)

// The search's incumbent: the best objective U of any (S, G) pair of an
// earlier wave (+Inf until one lands). TuneContext keeps it in a local,
// lowers it between waves and hands it to each pair of the next wave by
// value (tuneSG's bound), so what a pair prunes against is a function of
// the search's inputs. It cuts work three ways, none of which can change
// the result:
//
//  1. A pair whose compute floor exceeds U is skipped before anything is
//     priced (tuneSG, computeFloor).
//  2. A priced candidate c with G·(t_c + min(0, d_c)/G) > U is dropped
//     before inter-stage selection (pruneByBound): any solution holding
//     c has objective at least (G-1)·maxT + ΣT >= G·t_c
//     (imbalance-aware; the averaged objective substitutes τ = t + d/G).
//  3. During a pair's stage-by-stage sweep the per-stage minima of that
//     quantity accumulate (pairBound); once (G-1)·max_j m_j + Σ_j m_j > U
//     the pair is abandoned before its remaining stages are priced —
//     with the floor, this is where evaluations are saved outright.
//
// Every comparison is strict, so each candidate of each solution tying
// the final optimum survives and the (objective, S, G) tie-break sees
// exactly the tie set an unpruned search would: the chosen plan is
// bit-identical (TestFloorSkipMatchesUnprunedReference).

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

// pruneByBound drops, in place, the candidates that provably cannot beat
// the incumbent objective bound, and reports how many it dropped. A
// candidate whose lower bound exactly equals the incumbent is kept.
func pruneByBound(cands []candidate, g int, bound float64) (kept []candidate, dropped int) {
	if math.IsInf(bound, 1) {
		return cands, 0
	}
	kept = cands[:0]
	for _, c := range cands {
		if float64(g)*boundValue(c, g) > bound {
			continue
		}
		kept = append(kept, c)
	}
	return kept, len(cands) - len(kept)
}

// pairBound is the running lower bound of one (S, G) pair: per-stage
// candidate minima accumulated as stages are priced.
type pairBound struct {
	sum, max float64
}

// add folds one stage's candidate list into the bound and reports
// whether the pair is now provably worse than the incumbent. A pair
// whose lower bound ties the incumbent may still realize exactly that
// objective, and abandoning it would change which pairs participate in
// the final (objective, S, G) tie-break.
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
	return pb.value(g) > incumbent
}

// value is the bound itself: (G-1)·max_j m_j + Σ_j m_j over the stages
// folded in so far.
func (pb *pairBound) value(g int) float64 { return float64(g-1)*pb.max + pb.sum }

// prunedError marks an (S, G) pair abandoned mid-sweep because the
// incumbent proved it could not improve on a solution already found.
// Callers treat it exactly like an infeasible pair. bound is the pairBound
// after the sweep of `stage`, which exceeded the incumbent.
type prunedError struct {
	bound float64
	stage int
}

func (e *prunedError) Error() string {
	return "core: (S, G) pair pruned by the incumbent bound"
}

// errFloorSkipped marks an (S, G) pair skipped before anything was priced,
// its compute floor above the incumbent. It is one value for every such
// pair, so a skip allocates nothing; tuneSG puts the floor on the pair's
// span when it is traced.
var errFloorSkipped = errors.New("core: (S, G) pair skipped by its compute floor")
