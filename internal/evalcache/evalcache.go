// Package evalcache memoizes schedule.Analyzer evaluations behind a
// concurrency-safe row store, and is the only way a search prices. The
// hierarchical tuner prices the same stage shape under the same knob grid
// many times — middle pipeline stages with equal in-flight depth
// enumerate identical candidate grids, heterogeneous device search
// re-sweeps the same meshes per stage, and a re-tune of a known workload
// repeats a whole search — so a shared cache converts that repetition
// into lookups.
//
// The unit of storage is a row: the results of one canonical stage shape
// under one whole KnobSet, in set order. The tuner prices a stage shape
// under the knob sets of its whole layer window at once (EvaluateSets):
// one lock hold probes the window's rows, and the missed sets are priced
// by the analyzer in one pass that shares work across them
// (schedule.Analyzer.EvaluateSets), into fresh rows that are published
// before they are handed out. A row is immutable once published and is
// handed out by reference: the sweep reads the stored rows in place.
// Rows are keyed per set, not per window: under heterogeneous device
// assignment one canonical shape meets overlapping windows, and only
// per-set rows serve the layer counts they share.
//
// A row carries its staircase, computed once before it is published: the
// positions of the entries that fit the analyzer's plan budget and are
// (T, D)-minimal (AppendStaircase). The budget is one number per analyzer
// (schedule.Analyzer.PlanBudget), so the staircase is a function of the
// row alone, and a re-tune merges a few dozen steps per row instead of
// walking every entry of it.
//
// Keys are (canonical shape, *KnobSet): schedule.StageShape.Canonical
// collapses shapes that provably evaluate identically (ZeRO under DP = 1;
// stage position, depth and accumulation combinations with the same
// in-flight count), and a set is identified by its pointer. The tuner's
// sets are its analyzer's knob grids (schedule.Analyzer.KnobGrid), one
// *KnobSet per grid for the analyzer's lifetime, and a cache answers for
// one analyzer, so for every tuner the pointer is the content. A set a
// caller builds itself (NewKnobSet) hits only through that same pointer.
//
// A single candidate (Evaluate) is priced on the analyzer and stored
// nowhere: the points a search asks for one at a time — the uniform
// heuristic's stage replicas — rarely repeat, and a row of one would cost
// far more than the 24-byte result it holds.
//
// One sync.RWMutex guards the store. A cold full-space search publishes
// tens to thousands of rows (405 points each), so lock traffic is per
// window and the tuner's nested (S, G) × intra-stage worker fan-out does
// not serialize on it. Two workers missing the same row both price it and
// both count misses; the first to publish wins, and both get its row.
// Len counts results held, a point once per row it appears in.
//
// The cache keeps rows, not traffic: EvaluateSets returns each call's
// hits and misses, once the pricing they describe has succeeded, and the
// caller sums them (a search's counts are its own, however many searches
// share the cache). A row whose analyzer call errors is not stored and
// counts nothing, so on an error-free search the sums reconcile exactly
// with the candidates the caller priced.
package evalcache

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/schedule"
)

// KnobSet, the unit the cache stores, is the analyzer's own prepared
// batch under the name this package's callers know it by.
type KnobSet = schedule.Batch

// Scratch is the reusable buffers of one pricing stream (one goroutine at
// a time; the zero value is ready to use): the analyzer's scratch and the
// staircases of the rows a call publishes, before they move to their slab.
type Scratch struct {
	eval  schedule.EvalScratch
	stair []uint16
}

// Row is one stored row: the results of one canonical shape under one
// knob set, in set order, feasible or not, and its staircase (see
// AppendStaircase) as positions in Results. Both are shared with every
// other caller and must not be written.
type Row struct {
	Results []schedule.Result
	Stair   []uint16
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
func AppendStaircase(dst []uint16, row []schedule.Result, budget float64) []uint16 {
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

// NewKnobSet copies ks into an immutable set.
func NewKnobSet(ks []schedule.Knobs) *KnobSet { return schedule.NewBatch(ks) }

// rowKey identifies one stored row: the canonical shape, its fields
// narrowed to int32, and the set. Rows of the small spaces hold a few
// entries, so the map slot is most of what such a row costs, and at full
// width the shape alone is 64 bytes.
type rowKey struct {
	b, dp, tp, zero, stages, idx, accum int32
	pre, post                           bool
	set                                 *KnobSet
}

// keyOf is the key of shape's rows (set left nil), and false when a field
// of the canonical shape does not fit an int32, where two shapes could
// share a key.
func keyOf(shape schedule.StageShape) (rowKey, bool) {
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

// Cache is a memoizing, concurrency-safe row store over one analyzer
// (model, sequence, cluster, interference fit, Serialize flag).
type Cache struct {
	an *schedule.Analyzer

	mu   sync.RWMutex
	rows map[rowKey]Row // immutable once published
	held int            // results across all rows
}

// New builds an empty cache over an analyzer.
func New(an *schedule.Analyzer) *Cache {
	return &Cache{an: an, rows: make(map[rowKey]Row)}
}

// Backend is the analyzer the cache prices on. core.NewShared uses it to
// reject a cache paired with another analyzer: its rows would be answers
// to different questions.
func (c *Cache) Backend() *schedule.Analyzer { return c.an }

// Len reports the number of results held across all rows.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.held
}

// Evaluate prices one candidate on the analyzer; nothing is stored (see
// the package comment), so to a caller that counts it is a miss.
func (c *Cache) Evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	return c.an.Evaluate(shape, k)
}

// EvaluateSet is EvaluateSets over a list of one, with the row's results
// copied into dst (reused when its capacity suffices): the returned slice
// is the caller's to write.
func (c *Cache) EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	sets, rows := [1]*KnobSet{set}, [1]Row{}
	if _, _, err := c.EvaluateSets(shape, sets[:], rows[:], sc); err != nil {
		return nil, err
	}
	return append(dst[:0], rows[0].Results...), nil
}

// EvaluateSets sets out[i] to the stored row of sets[i] under shape
// (len(out) == len(sets)) and reports how many of the points were hits
// and how many misses. The rows are shared with every other caller and
// must not be written. One lock hold probes the rows of all the sets; the
// missed sets — only those — go to the analyzer in one call, which shares
// work across them, and their fresh rows get their staircases, in one
// slab for the call, and are published before they are returned. Rows
// stay keyed per (canonical shape, set): a set hits wherever it was first
// priced, whatever list it came in then. sc's buffers persist across
// calls. This is the tuner's hot path: an all-hit call allocates nothing,
// a miss allocates the rows it publishes and their slab. The counts are
// returned once the whole call has succeeded; on an error out is
// undefined.
func (c *Cache) EvaluateSets(shape schedule.StageShape, sets []*KnobSet, out []Row, sc *Scratch) (hits, misses int, err error) {
	key, ok := keyOf(shape)
	if !ok {
		return 0, 0, fmt.Errorf("evalcache: stage shape %+v out of a row key's range", shape)
	}
	nMissed := 0
	c.mu.RLock()
	for i, set := range sets {
		key.set = set
		out[i] = c.rows[key] // zero while missing
		if out[i].Results == nil {
			nMissed++
		}
		hits += len(out[i].Results)
	}
	c.mu.RUnlock()
	if nMissed == 0 {
		return hits, 0, nil
	}

	// A window is at most five sets: the lists live on the stack.
	var missedBuf [8]*KnobSet
	var freshBuf [8][]schedule.Result
	var endBuf [8]int
	missed, fresh, ends := missedBuf[:0], freshBuf[:0], endBuf[:0]
	for i, set := range sets {
		if out[i].Results == nil {
			if set.Len() > maxRowLen {
				return 0, 0, fmt.Errorf("evalcache: a set of %d knobs exceeds a row's %d", set.Len(), maxRowLen)
			}
			missed = append(missed, set)
			fresh = append(fresh, make([]schedule.Result, set.Len())) // exactly sized, never nil
		}
	}
	if err = c.an.EvaluateSets(shape, missed, fresh, &sc.eval); err != nil {
		return 0, 0, err
	}
	budget := c.an.PlanBudget()
	stair := sc.stair[:0]
	for _, row := range fresh {
		stair = AppendStaircase(stair, row, budget)
		ends = append(ends, len(stair))
	}
	sc.stair = stair
	slab := make([]uint16, len(stair))
	copy(slab, stair)

	c.mu.Lock()
	k, start := 0, 0
	for i, set := range sets {
		if out[i].Results != nil {
			continue
		}
		key.set = set
		if won, raced := c.rows[key]; raced { // first publish wins; the loser's row is identical
			out[i] = won
		} else {
			out[i] = Row{Results: fresh[k], Stair: slab[start:ends[k]:ends[k]]}
			c.rows[key] = out[i]
			c.held += len(fresh[k])
		}
		start = ends[k]
		k++
		misses += set.Len()
	}
	c.mu.Unlock()
	return hits, misses, nil
}
