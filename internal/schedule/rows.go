package schedule

// This file is the analyzer's row store (Analyzer.Rows), the memo every
// search prices through. The tuner prices the same stage shape under the
// same knob grid many times — middle pipeline stages with equal in-flight
// depth enumerate identical grids, heterogeneous device search re-sweeps
// the same meshes per stage, and a re-tune repeats a whole search — so
// rows kept for the analyzer's lifetime turn that repetition into
// lookups.
//
// A row is what the search reads of one canonical stage shape under one
// whole knob Batch: its staircase (AppendStaircase), the positions of
// the entries that fit the analyzer's plan budget and are (T, D)-minimal,
// and the results at them. The stage's (t, d) frontier is all the
// inter-stage step takes from a row (§5.3), and a full row is about
// eighty times its steps, so a missed set is priced into the caller's
// EvalScratch and only its steps are kept. The budget is one number per
// analyzer (PlanBudget), so the staircase is a function of the set
// alone. Rows are immutable once published and handed out by reference:
// the sweep reads the stored steps in place.
//
// A stage's layer window is priced at once (Rows.EvaluateSets), but rows
// are keyed per batch, not per window: under heterogeneous device
// assignment one canonical shape meets overlapping windows, and only
// per-batch rows serve the layer counts they share. Keys are (canonical
// shape, *Batch): StageShape.Canonical collapses shapes that provably
// evaluate identically, and a batch is identified by its pointer. The
// tuner's batches are the analyzer's knob grids (KnobGrid), so the
// pointer is the content; a batch a caller builds itself (NewBatch) hits
// only through that same pointer.
//
// One sync.RWMutex guards the store; lock traffic is per window, so the
// tuner's nested (S, G) × intra-stage fan-out does not serialize on it.
// The store keeps rows, not traffic: each call returns its hits and
// misses and the caller sums them, so a search's counts are its own
// however many searches share the rows.

import (
	"fmt"
	"math"
	"sync"
)

// Row is one stored row: the staircase (see AppendStaircase) of one
// canonical shape under one knob set, as positions in the set, and the
// results at them, Steps[k] at Stair[k]. Both are shared with every other
// caller and must not be written; a published row's slices are never
// nil, empty staircase or not.
type Row struct {
	Stair []uint16
	Steps []Result
}

// maxRowLen is the longest set a row can hold: staircase positions are
// uint16.
const maxRowLen = math.MaxUint16 + 1

// AppendStaircase appends to dst the staircase of row under budget and
// returns the extended slice: the positions, by ascending T, of the
// entries that fit the budget and that no other fitting entry dominates
// (T and D both <= its own, one strictly), and of exact (T, D) duplicates
// only the first. T strictly ascends and D strictly descends along it.
// Every other fitting entry of the row is dominated by a step or
// duplicates one, so the frontier of many rows is the frontier of their
// staircases. dst[len(dst):cap(dst)] is the working space; len(row) must
// not exceed 1<<16.
func AppendStaircase(dst []uint16, row []Result, budget float64) []uint16 {
	// Entries are fed in row order: one lands behind the last step with
	// T <= its own, is dropped when that step's D is already <= its own
	// (so a later duplicate never displaces an earlier one), and otherwise
	// replaces every step it dominates.
	base := len(dst)
	for j := range row {
		r := &row[j]
		if !r.Fits(budget) {
			continue
		}
		t, d := r.Stable, r.Delta
		stair := dst[base:]
		lo, hi := 0, len(stair)
		for lo < hi { // hi = first step with T > t
			if mid := int(uint(lo+hi) >> 1); row[stair[mid]].Stable > t {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if hi > 0 && row[stair[hi-1]].Delta <= d {
			continue // dominated, or a duplicate of an earlier entry
		}
		// Dominated steps are contiguous: an equal-T predecessor (its D is
		// larger) and the successors whose D has not dropped below d.
		lo = hi
		if lo > 0 && row[stair[lo-1]].Stable == t {
			lo--
		}
		for hi < len(stair) && row[stair[hi]].Delta >= d {
			hi++
		}
		if lo == hi {
			dst = append(dst, 0)
			stair = dst[base:]
			copy(stair[lo+1:], stair[lo:])
		} else {
			dst = append(dst[:base+lo+1], stair[hi:]...)
		}
		dst[base+lo] = uint16(j)
	}
	return dst
}

// rowKey identifies one stored row: the canonical shape, its fields
// narrowed to int32, and the set. Rows of the small spaces hold a few
// entries, so the map slot is most of what such a row costs, and at full
// width the shape alone is 64 bytes.
type rowKey struct {
	b, dp, tp, zero, stages, idx, accum int32
	pre, post                           bool
	set                                 *Batch
}

// keyOf is the key of shape's rows (set left nil), and false when a field
// of the canonical shape does not fit an int32, where two shapes could
// share a key.
func keyOf(shape StageShape) (rowKey, bool) {
	c := shape.Canonical()
	k := rowKey{
		b: int32(c.B), dp: int32(c.DP), tp: int32(c.TP), zero: int32(c.ZeRO),
		stages: int32(c.NumStages), idx: int32(c.StageIdx), accum: int32(c.GradAccum),
		pre: c.HasPre, post: c.HasPost,
	}
	fits := func(v int) bool { return v == int(int32(v)) }
	return k, fits(c.B) && fits(c.DP) && fits(c.TP) && fits(c.ZeRO) &&
		fits(c.NumStages) && fits(c.StageIdx) && fits(c.GradAccum)
}

// Rows is a memoizing, concurrency-safe row store over one analyzer
// (model, sequence, cluster, interference fit, Serialize flag: set
// Serialize before the first pricing through a store, whose rows answer
// for the flag they were priced under).
type Rows struct {
	an *Analyzer

	mu   sync.RWMutex
	rows map[rowKey]Row // immutable once published
	held int            // priced points across all rows: each row's set.Len()
}

// NewRows builds an empty store over an analyzer. Every search prices
// through the analyzer's own (Analyzer.Rows); a second store shares
// nothing with it, which is what a measurement of cold pricing wants.
func NewRows(an *Analyzer) *Rows {
	return &Rows{an: an, rows: make(map[rowKey]Row)}
}

// Rows is the analyzer's row store, built with it: every search on the
// analyzer prices through it, so one search's rows answer the next's, and
// they live exactly as long as the analyzer.
func (a *Analyzer) Rows() *Rows { return a.rows }

// Len reports the number of points the stored rows were priced over, a
// point once per row it is in: a row counts its whole set, though it
// keeps only the steps.
func (r *Rows) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.held
}

// Evaluate prices one candidate on the analyzer and stores nothing, so to
// a caller that counts it is a miss: the points a search asks for one at a
// time — the uniform heuristic's stage replicas — rarely repeat, and a row
// of one would cost far more than the 24-byte result it holds.
func (r *Rows) Evaluate(shape StageShape, k Knobs) (Result, error) {
	return r.an.Evaluate(shape, k)
}

// EvaluateSet is EvaluateSets over a list of one that returns the set's
// full results, priced on this call, in dst (reused when its capacity
// suffices): the returned slice is the caller's to write. A miss copies
// the pricing that published the row, a hit prices the set again (the
// row keeps only its steps), so either way the set is priced once.
func (r *Rows) EvaluateSet(shape StageShape, set *Batch, dst []Result, sc *EvalScratch) ([]Result, error) {
	sets, rows := [1]*Batch{set}, [1]Row{}
	_, misses, err := r.EvaluateSets(shape, sets[:], rows[:], sc)
	if err != nil {
		return nil, err
	}
	if misses > 0 {
		return append(dst[:0], sc.fresh[0]...), nil
	}
	dsts := [1][]Result{dst}
	if err := r.an.evaluateSets(shape, sets[:], dsts[:], sc); err != nil {
		return nil, err
	}
	return dsts[0], nil
}

// EvaluateSets sets out[i] to the stored row of sets[i] under shape
// (len(out) == len(sets)) and reports how many of the points were hits
// and how many misses: a row counts its set's length either way. The
// rows are shared with every other caller and must not be written. One
// lock hold probes the rows of all the sets; the missed sets — only
// those — go to the analyzer in one call, which shares work across them
// and prices into sc (sc.fresh[k] holds the k-th missed set's results
// until sc's next use). Their staircases are taken there, and the
// positions and the results at them are copied out, each into one slab
// for the call, and published before they are returned. Rows stay keyed
// per (canonical shape, set): a set hits wherever it was first priced,
// whatever list it came in then. sc's buffers persist across calls. This
// is the tuner's hot path: an all-hit call allocates nothing, a miss
// allocates its two slabs. Two callers missing one row both price it and
// both count misses; the first to publish wins, and both get its row.
// The counts are returned once the whole call has succeeded; on an error
// out is undefined.
func (r *Rows) EvaluateSets(shape StageShape, sets []*Batch, out []Row, sc *EvalScratch) (hits, misses int, err error) {
	key, ok := keyOf(shape)
	if !ok {
		return 0, 0, fmt.Errorf("schedule: stage shape %+v out of a row key's range", shape)
	}
	nMissed := 0
	r.mu.RLock()
	for i, set := range sets {
		key.set = set
		out[i] = r.rows[key] // zero while missing
		if out[i].Steps == nil {
			nMissed++
		} else {
			hits += set.Len()
		}
	}
	r.mu.RUnlock()
	if nMissed == 0 {
		return hits, 0, nil
	}

	// A window is at most five sets: the lists live on the stack.
	var missedBuf [8]*Batch
	var endBuf [8]int
	missed, ends := missedBuf[:0], endBuf[:0]
	for i, set := range sets {
		if out[i].Steps == nil {
			if set.Len() > maxRowLen {
				return 0, 0, fmt.Errorf("schedule: a set of %d knobs exceeds a row's %d", set.Len(), maxRowLen)
			}
			missed = append(missed, set)
		}
	}
	if len(sc.fresh) < len(missed) {
		sc.fresh = append(sc.fresh, make([][]Result, len(missed)-len(sc.fresh))...)
	}
	fresh := sc.fresh[:len(missed)]
	if err = r.an.evaluateSets(shape, missed, fresh, sc); err != nil {
		return 0, 0, err
	}
	budget := r.an.PlanBudget()
	stair := sc.stair[:0]
	for _, row := range fresh {
		stair = AppendStaircase(stair, row, budget)
		ends = append(ends, len(stair))
	}
	sc.stair = stair
	// Never nil, even when every staircase is empty: a nil Steps is a miss.
	positions, steps := make([]uint16, len(stair)), make([]Result, len(stair))
	copy(positions, stair)
	start := 0
	for k, row := range fresh {
		for m := start; m < ends[k]; m++ {
			steps[m] = row[stair[m]]
		}
		start = ends[k]
	}

	r.mu.Lock()
	k, start := 0, 0
	for i, set := range sets {
		if out[i].Steps != nil {
			continue
		}
		key.set = set
		if won, raced := r.rows[key]; raced { // first publish wins; the loser's row is identical
			out[i] = won
		} else {
			end := ends[k]
			out[i] = Row{Stair: positions[start:end:end], Steps: steps[start:end:end]}
			r.rows[key] = out[i]
			r.held += set.Len()
		}
		start = ends[k]
		k++
		misses += set.Len()
	}
	r.mu.Unlock()
	return hits, misses, nil
}
