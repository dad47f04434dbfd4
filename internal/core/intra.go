package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/schedule"
)

// intraSem bounds the extra goroutines spawned by intra-stage pricing
// across every concurrent tuner in the process; callers price inline
// regardless, so exhaustion degrades to sequential work, never blocks.
var intraSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// candidate is one priced intra-stage configuration: a complete stage
// shape plus knobs, with its stable time t, delta d, and peak memory.
type candidate struct {
	Shape schedule.StageShape
	Knobs schedule.Knobs
	T, D  float64
	Mem   float64
}

// evalScratch is the per-pricing-goroutine buffer set: the backend's
// scratch plus a reusable result slice. Pooled because intraStage's inner
// fan-out borrows transient goroutines.
type evalScratch struct {
	cs  evalcache.Scratch
	dst []schedule.Result
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// sweepScratch is the per-intraStage-call buffer set: the shape list, the
// per-shape output table, one arena backing every shape's candidate
// segment, and the Pareto staircase buffers. One sweepScratch serves a whole
// (S, G) pair's stage loop (tuneSG holds it for the pair's lifetime);
// candidates are value-copied out by paretoSample before reuse.
type sweepScratch struct {
	shapes []schedule.StageShape
	outs   []shapeOut
	arena  []candidate
	keys   []tdKey
	front  []candidate
}

// tdKey is one step of the Pareto staircase: a candidate's (t, d) point
// and its position in the candidate list.
type tdKey struct {
	T, D float64
	idx  int32
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// shapeOut is one shape's pricing outcome: its candidate segment (backed
// by the sweep arena), the number of evaluator candidates actually
// priced (0 when the shape was never claimed or errored before pricing),
// and any error.
type shapeOut struct {
	cands []candidate
	n     int
	err   error
}

// intraStage enumerates and prices every (b, DP, TP, ZeRO, CKPT, WO, GO,
// OO, AO) combination for one pipeline stage position and one layer
// count, returning the feasible candidates. This is the paper's
// brute-force intra-stage sweep (§5.3: "querying single datapoints is
// extremely fast ... we simply search in a brute-force way").
// planSafetyFraction leaves headroom between the analyzer's closed-form
// memory estimate and the budget: the runtime's allocator fragmentation
// (page rounding in the execution engine, ~2% in the paper's §6.6 memory
// error) would otherwise push boundary plans into OOM at execution.
const planSafetyFraction = 0.96

// The returned candidate slice is backed by sc's arena and only valid
// until the next intraStage call on the same scratch; the evaluated
// count is exact — it tallies precisely the candidates the evaluator
// priced, including shapes whose batches completed after another shape
// failed, so it reconciles with the cache's hit/miss counters.
func (t *Tuner) intraStage(s, g, stageIdx, devPerStage, layers int, sc *sweepScratch) ([]candidate, int, error) {
	budget := t.Cluster.MemoryBudget() * planSafetyFraction
	set := t.knobSet(layers)
	knobs := set.Knobs()
	ev := t.backend()

	// Enumerate the stage shapes, then price them on a bounded worker
	// pool (the intra-stage counterpart of Tune's (S, G) fan-out). The
	// per-shape candidate slices are reassembled in enumeration order so
	// the search stays deterministic regardless of scheduling.
	shapes := sc.shapes[:0]
	for _, pt := range t.parallelisms(devPerStage, g) {
		for _, zero := range t.Space.zeroLevels() {
			if zero > 0 && pt.dp == 1 {
				continue // ZeRO is a no-op without data parallelism
			}
			shapes = append(shapes, schedule.StageShape{
				B: pt.b, DP: pt.dp, TP: pt.tp, ZeRO: zero,
				HasPre: stageIdx == 0, HasPost: stageIdx == s-1,
				NumStages: s, StageIdx: stageIdx, GradAccum: g,
			})
		}
	}
	sc.shapes = shapes

	if cap(sc.outs) < len(shapes) {
		sc.outs = make([]shapeOut, len(shapes))
	}
	outs := sc.outs[:len(shapes)]
	for i := range outs {
		outs[i] = shapeOut{}
	}
	// Disjoint per-shape arena segments let concurrent workers append
	// candidates without synchronization or per-shape allocations.
	if need := len(shapes) * len(knobs); cap(sc.arena) < need {
		sc.arena = make([]candidate, need)
	}
	arena := sc.arena[:cap(sc.arena)]

	price := func(i int, es *evalScratch) {
		shape := shapes[i]
		results, err := ev.EvaluateSet(shape, set, es.dst, &es.cs)
		if err != nil {
			outs[i].err = err
			return
		}
		es.dst = results[:0]
		seg := arena[i*len(knobs) : i*len(knobs) : (i+1)*len(knobs)]
		for j, r := range results {
			if !r.Fits(budget) {
				continue
			}
			seg = append(seg, candidate{
				Shape: shape, Knobs: knobs[j],
				T: r.Stable, D: r.Delta, Mem: r.PeakMem,
			})
		}
		outs[i].cands = seg
		outs[i].n = len(knobs)
	}

	// Jobs are claimed off an atomic counter. The caller always prices
	// inline (progress without any token), and extra workers spawn only
	// while the process-wide intraSem has capacity — intraStage runs
	// nested inside Tune's (S, G) worker pool, so per-call GOMAXPROCS
	// pools would multiply to ~P^2 runnable goroutines.
	var next atomic.Int64
	drain := func() {
		es := evalScratchPool.Get().(*evalScratch)
		defer evalScratchPool.Put(es)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(shapes) {
				return
			}
			// Per-request deadlines land here: a canceled search stops
			// between shape batches instead of pricing out the sweep.
			if err := t.ctxErr(); err != nil {
				outs[i].err = err
				return
			}
			price(i, es)
		}
	}
	var wg sync.WaitGroup
spawn:
	for n := 1; n < len(shapes); n++ {
		select {
		case intraSem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-intraSem }()
				drain()
			}()
		default:
			break spawn // semaphore exhausted; caller drains inline
		}
	}
	drain()
	wg.Wait()

	// Tally the exact evaluator traffic before surfacing any error:
	// out-of-order workers may have priced (and counted in the cache)
	// shapes beyond the first failure.
	evaluated := 0
	var firstErr error
	for i := range outs {
		evaluated += outs[i].n
		if firstErr == nil && outs[i].err != nil {
			firstErr = outs[i].err
		}
	}
	if firstErr != nil {
		return nil, evaluated, firstErr
	}
	// Compact the arena segments into one contiguous candidate list (in
	// enumeration order). Segments are disjoint and arena-ordered, so the
	// write cursor never passes a segment's start: copying down in place
	// is safe.
	out := arena[:0]
	for i := range outs {
		out = append(out, outs[i].cands...)
	}
	return out, evaluated, nil
}

// parallelism is one feasible (tp, dp, b) split of a stage's devices.
type parallelism struct{ tp, dp, b int }

// parallelisms enumerates tensor/data-parallel splits of devPerStage that
// are compatible with the model's head count, the node size (TP stays
// within NVLink/PCIe domains), and the global batch factorization
// b = B / (G * dp).
func (t *Tuner) parallelisms(devPerStage, g int) []parallelism {
	var out []parallelism
	for tp := 1; tp <= devPerStage && tp <= t.Cluster.GPUsPerNode; tp *= 2 {
		if devPerStage%tp != 0 || t.W.Model.Heads%tp != 0 {
			continue
		}
		dp := devPerStage / tp
		samplesPerSlot := t.W.GlobalBatch / g
		if t.W.GlobalBatch%g != 0 || samplesPerSlot%dp != 0 {
			continue
		}
		b := samplesPerSlot / dp
		if b < 1 {
			continue
		}
		out = append(out, parallelism{tp: tp, dp: dp, b: b})
	}
	return out
}

// paretoSample reduces a candidate set to K points on its (t, d) Pareto
// frontier using the paper's dual-objective sweep (Eq. 4): for uniformly
// sampled α in [0, 1], keep argmin α·G·t + (1−α)·d. With K == 1 the
// single sample uses α = 1 (pure stable-time minimization — the point a
// throughput-greedy planner would keep; α = 0/0 would be NaN).
// The returned slice is freshly allocated (it outlives the scratch); the
// scratch backs the frontier buffers.
func paretoSample(cands []candidate, g, k int, sc *sweepScratch) []candidate {
	if len(cands) == 0 {
		return nil
	}
	front := paretoFrontier(cands, sc)
	if len(front) <= k {
		return append([]candidate(nil), front...)
	}
	picked := map[int]bool{}
	var out []candidate
	for i := 0; i < k; i++ {
		alpha := 1.0
		if k > 1 {
			alpha = float64(i) / float64(k-1)
		}
		bestIdx, bestVal := -1, 0.0
		for j, c := range front {
			v := alpha*float64(g)*c.T + (1-alpha)*c.D
			if bestIdx < 0 || v < bestVal {
				bestIdx, bestVal = j, v
			}
		}
		if !picked[bestIdx] {
			picked[bestIdx] = true
			out = append(out, front[bestIdx])
		}
	}
	return out
}

// paretoFrontier keeps the non-dominated candidates: c dominates c' when
// c.T <= c'.T and c.D <= c'.D with at least one strict, and of exact
// (T, D) duplicates the first in cands wins — the frontier is the set of
// minima under the total order (T, D, index), returned by ascending T.
// The returned slice is backed by sc and valid until its next use.
func paretoFrontier(cands []candidate, sc *sweepScratch) []candidate {
	// The frontier is a staircase, T strictly ascending and D strictly
	// descending, kept as compact keys (not the 136-byte candidates) and
	// fed in enumeration order: a candidate lands behind the last step
	// with T <= its own, is dropped when that step's D is already <= its
	// own, and otherwise replaces every step it dominates. A sweep keeps
	// a few dozen steps out of thousands of candidates, so nearly every
	// candidate costs one binary search.
	stair := sc.keys[:0]
	for i := range cands {
		t, d := cands[i].T, cands[i].D
		lo, hi := 0, len(stair)
		for lo < hi { // hi = first step with T > t
			if mid := int(uint(lo+hi) >> 1); stair[mid].T > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if hi > 0 && stair[hi-1].D <= d {
			continue // dominated, or a duplicate of an earlier candidate
		}
		// Dominated steps are contiguous: an equal-T predecessor (its D
		// is larger) and the successors whose D has not dropped below d.
		lo = hi
		if lo > 0 && stair[lo-1].T == t {
			lo--
		}
		for hi < len(stair) && stair[hi].D >= d {
			hi++
		}
		key := tdKey{T: t, D: d, idx: int32(i)}
		if lo == hi {
			stair = append(stair, tdKey{})
			copy(stair[lo+1:], stair[lo:])
			stair[lo] = key
		} else {
			stair[lo] = key
			stair = append(stair[:lo+1], stair[hi:]...)
		}
	}
	sc.keys = stair
	front := sc.front[:0]
	for _, k := range stair {
		front = append(front, cands[k.idx])
	}
	sc.front = front
	return front
}
