package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/schedule"
)

// intraSem bounds the extra goroutines spawned by intra-stage pricing
// across every concurrent tuner in the process; callers price inline
// regardless, so exhaustion degrades to sequential work, never blocks. It
// is sized when the package loads; a single intraStage call also stays
// within the GOMAXPROCS it reads when called, which a process may have
// lowered since.
var intraSem = make(chan struct{}, runtime.GOMAXPROCS(0))

// candidate is one priced intra-stage configuration that fits the memory
// budget: a complete stage shape plus knobs, with its stable time t and
// delta d.
type candidate struct {
	Shape schedule.StageShape
	Knobs schedule.Knobs
	T, D  float64
}

// point is a candidate as the sweep holds it: the two priced values plus
// the positions of its shape in the sweep's shape list and of its knobs in
// its layer count's knob set. A sweep prices thousands of points per
// layer count and keeps a few; only those become candidates
// (sweepScratch.candidate).
type point struct {
	T, D        float64
	shape, knob int32
}

// evalScratch is the per-pricing-goroutine buffer set: the backend's
// scratch plus one reusable result slice per layer count of the window.
// Pooled because intraStage's inner fan-out borrows transient goroutines.
type evalScratch struct {
	cs   evalcache.Scratch
	dsts [][]schedule.Result
}

var evalScratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// sweepScratch is the per-intraStage-call buffer set, and after the call
// its result: the shape list, the window's knob sets, a point block per
// shape and, per (layer count, shape), the block segment holding that
// pair's feasible points; plus the Pareto staircase buffers. One
// sweepScratch serves a whole (S, G) pair's stage loop (tuneSG holds it
// for the pair's lifetime); survivors are value-copied out (candidate)
// before reuse.
type sweepScratch struct {
	shapes []schedule.StageShape
	sets   []*evalcache.KnobSet
	outs   []shapeOut
	blocks []*pointBlock
	segs   [][]point // segs[li*len(shapes)+si], backed by blocks[si]
	stair  []point
	picks  []point
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// pointBlock holds one shape's points of a sweep, every layer count of
// the window. Blocks are pooled singly, not as one arena, so that a pool
// miss is cheap: a sync.Pool keeps one object per P where no other P
// finds it, a search ends on whichever P its last worker woke it on, and
// the next one now and then finds the pool an object short — of a 10 KB
// block, where an arena was 130 KB, twice what a re-tune on a filled
// cache otherwise allocates.
type pointBlock struct{ pts []point }

var pointBlockPool = sync.Pool{New: func() any { return new(pointBlock) }}

// release returns sc to the pool without the window's knob sets (a pooled
// scratch must not keep a dropped analyzer's grids alive), and its blocks
// to theirs.
func (sc *sweepScratch) release() {
	clear(sc.sets[:cap(sc.sets)])
	for _, b := range sc.blocks {
		pointBlockPool.Put(b)
	}
	clear(sc.blocks)
	sc.blocks = sc.blocks[:0]
	sweepScratchPool.Put(sc)
}

// list returns layer count li's points as one segment per shape:
// concatenated, they are the layer count's feasible candidates in
// enumeration order (shape-major, knob-minor).
func (sc *sweepScratch) list(li int) [][]point {
	return sc.segs[li*len(sc.shapes) : (li+1)*len(sc.shapes)]
}

// candidate materialises a point of layer count li.
func (sc *sweepScratch) candidate(li int, p point) candidate {
	return candidate{
		Shape: sc.shapes[p.shape], Knobs: sc.sets[li].Knobs()[p.knob],
		T: p.T, D: p.D,
	}
}

// shapeOut is one shape's pricing outcome: the number of evaluator
// candidates actually priced (0 when the shape was never claimed or
// errored before pricing), and any error.
type shapeOut struct {
	n   int
	err error
}

// planSafetyFraction leaves headroom between the analyzer's closed-form
// memory estimate and the budget: the runtime's allocator fragmentation
// (page rounding in the execution engine, ~2% in the paper's §6.6 memory
// error) would otherwise push boundary plans into OOM at execution.
const planSafetyFraction = 0.96

// intraStage enumerates and prices every (b, DP, TP, ZeRO, CKPT, WO, GO,
// OO, AO) combination for one pipeline stage position, under every layer
// count of the stage's window at once: each stage shape goes to the
// backend one time with the window's knob sets, so what a shape's price
// owes to the offload tuple alone is computed once, not once per layer
// count. This is the paper's brute-force intra-stage sweep (§5.3:
// "querying single datapoints is extremely fast ... we simply search in a
// brute-force way").
//
// The feasible points are left in sc (list(li) for layers[li]) and are
// only valid until the next intraStage call on the same scratch; the
// evaluated count is exact — it tallies precisely the candidates the
// evaluator priced, including shapes whose windows completed after
// another shape failed, so it reconciles with the cache's hit/miss
// counters.
func (t *Tuner) intraStage(s, g, stageIdx, devPerStage int, layers []int, sc *sweepScratch) (int, error) {
	budget := t.Cluster.MemoryBudget() * planSafetyFraction
	ev := t.backend()
	sets, perShape := sc.sets[:0], 0
	for _, l := range layers {
		set := t.knobSet(l)
		sets = append(sets, set)
		perShape += set.Len()
	}
	sc.sets = sets

	// Enumerate the stage shapes, then price them on a bounded worker
	// pool (the intra-stage counterpart of Tune's (S, G) fan-out). Every
	// (layer count, shape) has its own segment, at a position fixed by the
	// enumeration, so the search stays deterministic regardless of
	// scheduling.
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
	clear(outs)
	if need := len(sets) * len(shapes); cap(sc.segs) < need {
		sc.segs = make([][]point, need)
	} else {
		sc.segs = sc.segs[:need]
		clear(sc.segs)
	}
	segs := sc.segs
	// Disjoint segments let concurrent workers write points without
	// synchronization or a compacting copy: shape i's are in its own block,
	// layer count li's at the knobs of the layer counts before it.
	for len(sc.blocks) < len(shapes) {
		sc.blocks = append(sc.blocks, pointBlockPool.Get().(*pointBlock))
	}
	blocks := sc.blocks

	price := func(i int, es *evalScratch) {
		for len(es.dsts) < len(sets) {
			es.dsts = append(es.dsts, nil)
		}
		dsts := es.dsts[:len(sets)]
		if err := ev.EvaluateSets(shapes[i], sets, dsts, &es.cs); err != nil {
			outs[i].err = err
			return
		}
		b, at := blocks[i], 0
		if len(b.pts) < perShape {
			b.pts = make([]point, perShape)
		}
		for li, results := range dsts {
			n := len(results)
			seg := b.pts[at : at : at+n]
			for j := range results {
				if r := &results[j]; r.Fits(budget) {
					seg = append(seg, point{T: r.Stable, D: r.Delta, shape: int32(i), knob: int32(j)})
				}
			}
			segs[li*len(shapes)+i] = seg
			at += n
		}
		outs[i].n = perShape
	}

	// Jobs are claimed off an atomic counter. The caller always prices
	// inline (progress without any token), and extra workers — at most
	// GOMAXPROCS-1, as it reads now — spawn only while the process-wide
	// intraSem has capacity: intraStage runs nested inside Tune's (S, G)
	// worker pool, so per-call GOMAXPROCS pools would multiply to ~P^2
	// runnable goroutines.
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
			// between shapes instead of pricing out the sweep.
			if err := t.ctxErr(); err != nil {
				outs[i].err = err
				return
			}
			price(i, es)
		}
	}
	var wg sync.WaitGroup
spawn:
	for n := min(len(shapes), runtime.GOMAXPROCS(0)) - 1; n > 0; n-- {
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
	return evaluated, firstErr
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

// paretoSample reduces a candidate list (one segment per shape, see
// sweepScratch.list) to K points on its (t, d) Pareto frontier using the
// paper's dual-objective sweep (Eq. 4): for uniformly sampled α in
// [0, 1], keep argmin α·G·t + (1−α)·d. With K == 1 the single sample uses
// α = 1 (pure stable-time minimization — the point a throughput-greedy
// planner would keep; α = 0/0 would be NaN). The returned slice is backed
// by sc and valid until its next use.
func paretoSample(segs [][]point, g, k int, sc *sweepScratch) []point {
	front := paretoFrontier(segs, sc)
	if len(front) <= k {
		return front
	}
	out := sc.picks[:0]
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
		if !slices.Contains(out, front[bestIdx]) { // frontier points are distinct in (T, D)
			out = append(out, front[bestIdx])
		}
	}
	sc.picks = out
	return out
}

// paretoFrontier keeps the non-dominated points of a candidate list given
// as segments: c dominates c' when c.T <= c'.T and c.D <= c'.D with at
// least one strict, and of exact (T, D) duplicates the first in the list
// wins — the frontier is the set of minima under the total order (T, D,
// position in the list), returned by ascending T. The returned slice is
// backed by sc and valid until its next use.
func paretoFrontier(segs [][]point, sc *sweepScratch) []point {
	// The frontier is a staircase, T strictly ascending and D strictly
	// descending, fed in enumeration order: a point lands behind the last
	// step with T <= its own, is dropped when that step's D is already <=
	// its own (so a later duplicate never displaces an earlier one), and
	// otherwise replaces every step it dominates. A sweep keeps a few dozen
	// steps out of thousands of points, so nearly every point costs one
	// binary search.
	stair := sc.stair[:0]
	for _, seg := range segs {
		for i := range seg {
			t, d := seg[i].T, seg[i].D
			lo, hi := 0, len(stair)
			for lo < hi { // hi = first step with T > t
				if mid := int(uint(lo+hi) >> 1); stair[mid].T > t {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if hi > 0 && stair[hi-1].D <= d {
				continue // dominated, or a duplicate of an earlier point
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
			if lo == hi {
				stair = append(stair, point{})
				copy(stair[lo+1:], stair[lo:])
				stair[lo] = seg[i]
			} else {
				stair[lo] = seg[i]
				stair = append(stair[:lo+1], stair[hi:]...)
			}
		}
	}
	sc.stair = stair
	return stair
}
