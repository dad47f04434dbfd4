package core

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// point is a frontier step as the sweep holds it: the two priced values
// plus the positions of its shape in the sweep's shape list and of its
// knobs in its layer count's knob set. A sweep reads the stored rows'
// steps per layer count in place and keeps a few dozen of them; only
// those become points, and only the sampled ones candidates
// (sweepScratch.candidate).
type point struct {
	T, D        float64
	shape, knob int32
}

// evalScratchPool holds the per-pricing-goroutine scratch. Pooled
// because intraStage's inner fan-out borrows transient goroutines.
var evalScratchPool = sync.Pool{New: func() any { return new(schedule.EvalScratch) }}

// sweepScratch is the per-intraStage-call buffer set, and after the call
// its result: the shape list, the window's knob sets, one stored row per
// (shape, layer count) — the stored row itself, read in place — and the
// Pareto staircase buffers. One sweepScratch serves a whole (S, G) pair's
// stage loop (tuneSG holds it for the pair's lifetime); survivors are
// value-copied out (candidate) before reuse.
type sweepScratch struct {
	shapes []schedule.StageShape
	sets   []*schedule.Batch
	rows   []schedule.Row // shape-major: see row
	outs   []shapeOut
	stair  []point
	picks  []point
	whole  []schedule.Result // tuneUniform's full pricing of one shape's set
}

var sweepScratchPool = sync.Pool{New: func() any { return new(sweepScratch) }}

// release returns sc to the pool without the window's knob sets and rows:
// a pooled scratch must not keep a dropped analyzer's grids or rows
// alive.
func (sc *sweepScratch) release() {
	clear(sc.sets[:cap(sc.sets)])
	clear(sc.rows[:cap(sc.rows)])
	sweepScratchPool.Put(sc)
}

// row is shape si's row for layer count li: its staircase, as positions
// in the layer count's knob set, and the priced entries at them.
func (sc *sweepScratch) row(si, li int) schedule.Row {
	return sc.rows[si*len(sc.sets)+li]
}

// candidate materialises a point of layer count li.
func (sc *sweepScratch) candidate(li int, p point) candidate {
	return candidate{
		Shape: sc.shapes[p.shape], Knobs: sc.sets[li].Knobs()[p.knob],
		T: p.T, D: p.D,
	}
}

// shapeOut is one shape's pricing outcome: the rows' hits and misses
// for its window (both 0 when the shape was never claimed or errored),
// and any error.
type shapeOut struct {
	hits, misses int
	err          error
}

// intraStage enumerates and prices every (b, DP, TP, ZeRO, CKPT, WO, GO,
// OO, AO) combination for one pipeline stage position, under every layer
// count of the stage's window at once: each stage shape goes to the
// analyzer's rows one time with the window's knob sets, so what a shape's
// price owes to the offload tuple alone is computed once, not once per
// layer count.
// This is the paper's brute-force intra-stage sweep (§5.3: "querying
// single datapoints is extremely fast ... we simply search in a
// brute-force way").
//
// The priced rows are left in sc (row(si, li) for shapes[si] and
// layers[li]) and are only valid until the next intraStage call on the
// same scratch; a row holds only steps that fit the plan budget. The
// returned counts are exact — the hits plus misses of every shape whose
// window priced, including shapes that completed after another shape
// failed. A canceled ctx stops the sweep between shapes.
func (t *Tuner) intraStage(ctx context.Context, s, g, stageIdx, devPerStage int, layers []int, sc *sweepScratch) (counts, error) {
	sets := sc.sets[:0]
	for _, l := range layers {
		sets = append(sets, t.knobSet(l))
	}
	sc.sets = sets

	// Enumerate the stage shapes, then price them on a bounded worker
	// pool (the intra-stage counterpart of Tune's (S, G) fan-out).
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
	// Shape i's rows are the window-long run at i*len(sets), which its
	// worker hands the rows to fill: disjoint runs at positions fixed by
	// the enumeration, so workers write without synchronization and the
	// search stays deterministic regardless of scheduling.
	if need := len(shapes) * len(sets); cap(sc.rows) < need {
		sc.rows = make([]schedule.Row, need)
	} else {
		sc.rows = sc.rows[:need]
	}
	rows := sc.rows

	// Jobs are claimed off an atomic counter. The caller always prices
	// inline (progress without any token), and extra workers — at most
	// GOMAXPROCS-1, as it reads now — spawn only while the process-wide
	// intraSem has capacity: intraStage runs nested inside Tune's (S, G)
	// worker pool, so per-call GOMAXPROCS pools would multiply to ~P^2
	// runnable goroutines.
	pr := t.rows()
	var next atomic.Int64
	drain := func() {
		cs := evalScratchPool.Get().(*schedule.EvalScratch)
		defer evalScratchPool.Put(cs)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(shapes) {
				return
			}
			// Per-request deadlines land here: a canceled search stops
			// between shapes instead of pricing out the sweep.
			if err := ctx.Err(); err != nil {
				outs[i].err = err
				return
			}
			o := &outs[i]
			o.hits, o.misses, o.err = pr.EvaluateSets(shapes[i], sets, rows[i*len(sets):(i+1)*len(sets)], cs)
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

	// Tally the exact traffic before surfacing any error: out-of-order
	// workers may have priced shapes beyond the first failure.
	var n counts
	var firstErr error
	for i := range outs {
		n.hits += outs[i].hits
		n.misses += outs[i].misses
		if firstErr == nil && outs[i].err != nil {
			firstErr = outs[i].err
		}
	}
	n.evaluated = n.hits + n.misses
	return n, firstErr
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

// paretoSample reduces layer count li's feasible candidates (see
// paretoFrontier) to K points on their (t, d) Pareto frontier using the
// paper's dual-objective sweep (Eq. 4): for uniformly sampled α in
// [0, 1], keep argmin α·G·t + (1−α)·d. With K == 1 the single sample uses
// α = 1 (pure stable-time minimization — the point a throughput-greedy
// planner would keep; α = 0/0 would be NaN). The returned slice is backed
// by sc and valid until its next use.
func paretoSample(sc *sweepScratch, li, g, k int) []point {
	front := paretoFrontier(sc, li)
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

// paretoFrontier keeps the non-dominated points among layer count li's
// feasible candidates: the entries its rows were priced over, in
// enumeration order (shape-major, knob-minor), that fit the analyzer's
// plan budget. c dominates c' when c.T <= c'.T and c.D <= c'.D with at
// least one strict, and of exact (T, D) duplicates the first in that
// order wins — the frontier is the set of minima under the total order
// (T, D, position), returned by ascending T. The returned slice is backed
// by sc and valid until its next use.
func paretoFrontier(sc *sweepScratch, li int) []point {
	// The frontier is a staircase, T strictly ascending and D strictly
	// descending. It is merged from the rows' own staircases
	// (schedule.AppendStaircase), shape by shape: every other fitting
	// entry is dominated within its row or duplicates an earlier entry of
	// it, and of a duplicate across rows the earlier shape's is fed first.
	// A step lands behind the last step with T <= its own, is dropped when
	// that step's D is already <= its own (so a later duplicate never
	// displaces an earlier one), and otherwise replaces every step it
	// dominates.
	stair := sc.stair[:0]
	for si := range sc.shapes {
		row := sc.row(si, li)
		for k, j := range row.Stair {
			t, d := row.Steps[k].Stable, row.Steps[k].Delta
			lo, hi := 0, len(stair)
			for lo < hi { // hi = first step with T > t
				if mid := int(uint(lo+hi) >> 1); stair[mid].T > t {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			if hi > 0 && stair[hi-1].D <= d {
				continue // dominated, or a duplicate of an earlier entry
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
			p := point{T: t, D: d, shape: int32(si), knob: int32(j)}
			if lo == hi {
				stair = append(stair, point{})
				copy(stair[lo+1:], stair[lo:])
				stair[lo] = p
			} else {
				stair[lo] = p
				stair = append(stair[:lo+1], stair[hi:]...)
			}
		}
	}
	sc.stair = stair
	return stair
}
