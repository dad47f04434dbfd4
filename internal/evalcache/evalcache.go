// Package evalcache memoizes schedule.Analyzer evaluations behind a
// concurrency-safe row store. The hierarchical tuner prices the same
// stage shape under the same knob grid many times — middle pipeline
// stages with equal in-flight depth enumerate identical candidate grids,
// heterogeneous device search re-sweeps the same meshes per stage, and a
// re-tune of a known workload repeats a whole search — so a shared cache
// converts that repetition into lookups.
//
// The unit of storage is a row: the results of one canonical stage shape
// under one whole KnobSet, in set order. The tuner prices a stage shape
// under the knob sets of its whole layer window at once (EvaluateSets):
// one lock hold probes the window's rows, stored rows are served with a
// copy each, and the missed sets are priced by the analyzer in one pass
// that shares work across them (schedule.Analyzer.EvaluateSets). Rows are
// keyed per set, not per window: under heterogeneous device assignment
// one canonical shape meets overlapping windows, and only per-set rows
// serve the layer counts they share.
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
// A single candidate (Evaluate) is priced on the backend and stored
// nowhere: the points a search asks for one at a time — the uniform
// heuristic's stage replicas, a plan's re-pricing — rarely repeat, and a
// row of one would cost far more than the 24-byte result it holds.
//
// One sync.RWMutex guards the store. A cold full-space search publishes
// tens to thousands of rows (405 points each), so lock traffic is per
// window and the tuner's nested (S, G) × intra-stage worker fan-out does
// not serialize on it. Two workers missing the same row both price it and
// both count misses; the first to publish wins. Len counts results held,
// a point once per row it appears in.
//
// Counter discipline: Hits and Misses are incremented only after the
// pricing they describe has succeeded. A row whose underlying evaluator
// call errors is not stored and contributes nothing, so on an error-free
// search the counters reconcile exactly with the candidates the caller
// priced.
//
// The cache is scoped to one analyzer configuration (model, sequence,
// cluster, interference fit, Serialize flag): callers must not share a
// Cache across evaluators with different contexts.
package evalcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
)

// Evaluator is the tuner's pricing backend, and the only interface that
// names it: one set-pricing method plus the single-point Evaluate. The
// bare *schedule.Analyzer and the memoizing *Cache both satisfy it (and
// a Cache wraps one), so core.Tuner holds one Evaluator, chosen when the
// tuner is built.
type Evaluator interface {
	Evaluate(schedule.StageShape, schedule.Knobs) (schedule.Result, error)
	// EvaluateSets prices every entry of each set under shape: on return
	// dsts[i] holds sets[i]'s results in set order (len(dsts) ==
	// len(sets)). dsts[i] is reused when its capacity suffices and
	// replaced otherwise; sc's buffers persist across calls. The tuner
	// passes the knob sets of one stage's layer window, so that a backend
	// can share across them what does not depend on the layer count.
	EvaluateSets(shape schedule.StageShape, sets []*KnobSet, dsts [][]schedule.Result, sc *Scratch) error
}

var (
	_ Evaluator = (*schedule.Analyzer)(nil)
	_ Evaluator = (*Cache)(nil)
)

// KnobSet, the unit the cache stores, and Scratch, the reusable buffers
// of one pricing stream (one goroutine at a time; the zero value is ready
// to use), are the analyzer's own prepared batch and scratch under the
// names this package's callers know them by.
type (
	KnobSet = schedule.Batch
	Scratch = schedule.EvalScratch
)

// NewKnobSet copies ks into an immutable set.
func NewKnobSet(ks []schedule.Knobs) *KnobSet { return schedule.NewBatch(ks) }

// rowKey identifies one stored row.
type rowKey struct {
	shape schedule.StageShape // canonical
	set   *KnobSet
}

// Cache is a memoizing, concurrency-safe Evaluator decorator.
type Cache struct {
	ev Evaluator

	mu   sync.RWMutex
	rows map[rowKey][]schedule.Result // immutable once published
	held int                          // results across all rows

	hits   atomic.Uint64
	misses atomic.Uint64
}

// New wraps an evaluator with a fresh cache.
func New(ev Evaluator) *Cache {
	return &Cache{ev: ev, rows: make(map[rowKey][]schedule.Result)}
}

// Backend exposes the wrapped evaluator. The serving layer's cache
// registry uses it to verify a persisted cache and the shared analyzer
// it hands out stay paired (a cache answers only for the evaluator
// configuration it was built over).
func (c *Cache) Backend() Evaluator { return c.ev }

// Stats is a point-in-time snapshot of the hit/miss counters.
type Stats struct {
	Hits, Misses uint64
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len reports the number of results held across all rows.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.held
}

// Evaluate prices one candidate on the backend and counts one miss once
// it has priced; nothing is stored (see the package comment).
func (c *Cache) Evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	r, err := c.ev.Evaluate(shape, k)
	if err == nil {
		c.misses.Add(1)
	}
	return r, err
}

// EvaluateSet is EvaluateSets over a list of one; the returned slice
// aliases dst when its capacity suffices.
func (c *Cache) EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	sets, dsts := [1]*KnobSet{set}, [1][]schedule.Result{dst}
	if err := c.EvaluateSets(shape, sets[:], dsts[:], sc); err != nil {
		return nil, err
	}
	return dsts[0], nil
}

// EvaluateSets prices every entry of each KnobSet under one shape: one
// lock hold probes the rows of all the sets, and the missed sets — only
// those — go to the backend in one call, which shares work across them
// (schedule.Analyzer.EvaluateSets). Rows stay keyed per (canonical shape,
// set): a set hits wherever it was first priced, whatever list it came in
// then. dsts[i] is reused when its capacity suffices and replaced
// otherwise — it is the caller's, never the stored row — and sc's buffers
// persist across calls. This is the tuner's hot path: an all-hit call
// allocates nothing once dsts have grown, a miss allocates the rows it
// publishes. The counters move per set, once the whole call has
// succeeded.
func (c *Cache) EvaluateSets(shape schedule.StageShape, sets []*KnobSet, dsts [][]schedule.Result, sc *Scratch) error {
	key := rowKey{shape: shape.Canonical()}
	var rowBuf [8][]schedule.Result // a layer window is five sets: on the stack
	rows := rowBuf[:0]              // rows[i]: the stored or freshly priced row, nil while missing
	var hits, misses uint64
	nMissed := 0
	c.mu.RLock()
	for _, set := range sets {
		key.set = set
		row := c.rows[key]
		if row == nil {
			nMissed++
		}
		hits += uint64(len(row))
		rows = append(rows, row)
	}
	c.mu.RUnlock()

	if nMissed > 0 {
		missed := make([]*KnobSet, 0, nMissed)
		fresh := make([][]schedule.Result, 0, nMissed) // exactly-sized rows (never nil) for the missed sets
		for i, set := range sets {
			if rows[i] == nil {
				missed = append(missed, set)
				fresh = append(fresh, make([]schedule.Result, set.Len()))
			}
		}
		if err := c.ev.EvaluateSets(shape, missed, fresh, sc); err != nil {
			return err
		}
		c.mu.Lock()
		for i, set := range sets {
			if rows[i] != nil {
				continue
			}
			rows[i], fresh = fresh[0], fresh[1:]
			key.set = set
			if _, raced := c.rows[key]; !raced { // first publish wins; the loser's row is identical
				c.rows[key] = rows[i]
				c.held += len(rows[i])
			}
			misses += uint64(set.Len())
		}
		c.mu.Unlock()
	}
	for i, row := range rows {
		dsts[i] = append(dsts[i][:0], row...)
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
	return nil
}
