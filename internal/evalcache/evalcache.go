// Package evalcache memoizes schedule.Analyzer evaluations behind a
// concurrency-safe row store. The hierarchical tuner prices the same
// stage shape under the same knob grid many times — middle pipeline
// stages with equal in-flight depth enumerate identical candidate grids,
// the uniform heuristic replicates one configuration across every stage,
// and heterogeneous device search re-sweeps the same meshes per stage —
// so a shared cache converts that repetition into lookups.
//
// The unit of storage is a row: the results of one canonical stage shape
// under one whole KnobSet, in set order. The tuner only ever prices whole
// sets (one per layer count), so a row is found with a single map probe
// and served with a single copy, and a missed row is priced by the
// analyzer in one batch that shares work across the set (see
// schedule.Analyzer.EvaluateSet). A single candidate is a row of one
// through the same store.
//
// Keys are canonical: schedule.StageShape.Canonical collapses shapes
// that provably evaluate identically (ZeRO under DP = 1; stage position,
// depth and accumulation combinations with the same in-flight count),
// and a KnobSet is identified by its exact ordered content, interned to a
// small id on the set's first use with a cache — content is compared in
// full, a colliding hash never aliases two sets.
//
// One sync.RWMutex guards the store. A cold full-space search publishes
// a few hundred rows (against ~180 k points), so lock traffic is per row
// and the tuner's nested (S, G) × intra-stage worker fan-out does not
// serialize on it. Two workers missing the same row both price it and
// both count misses; the first to publish wins.
//
// What row granularity gives up: a point is found only through a set
// with identical content, so two knob sets that overlap partially share
// nothing (the serving layer lets search spaces share a cache; a
// one-knob baseline row does not hit the full-space row containing that
// point), and Len counts results held, a point once per row it appears
// in. Sets reaching one cache from one search space are identical or
// disjoint — knob content includes the layer count — so no tuner traffic
// loses a hit.
//
// Counter discipline: Hits and Misses are incremented only after the
// pricing they describe has succeeded. A row whose underlying evaluator
// call errors is not stored and contributes nothing — not the duplicate
// hits it would have served, not the misses it attempted — so on an
// error-free search the counters reconcile exactly with the candidates
// the caller priced.
//
// The cache is scoped to one analyzer configuration (model, sequence,
// cluster, interference fit, Serialize flag): callers must not share a
// Cache across evaluators with different contexts.
package evalcache

import (
	"slices"
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
	// EvaluateSet prices every entry of set under shape, in set order.
	// dst is reused when its capacity suffices and the returned slice
	// aliases it; sc's buffers persist across calls.
	EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error)
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
	set   uint32              // interned KnobSet content
}

// internedSet is one entry of the content-interning table. knobs is the
// first-resolved set's (immutable) backing slice, kept so later sets are
// matched on exact content.
type internedSet struct {
	knobs []schedule.Knobs
	id    uint32
}

// Cache is a memoizing, concurrency-safe Evaluator decorator.
type Cache struct {
	ev Evaluator

	mu    sync.RWMutex
	sets  map[uint64][]internedSet // KnobSet.hash -> the contents sharing it
	nsets uint32
	rows  map[rowKey][]schedule.Result // immutable once published
	held  int                          // results across all rows

	hits   atomic.Uint64
	misses atomic.Uint64
}

// New wraps an evaluator with a fresh cache.
func New(ev Evaluator) *Cache {
	return &Cache{
		ev:   ev,
		sets: make(map[uint64][]internedSet),
		rows: make(map[rowKey][]schedule.Result),
	}
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

// setID returns the set's interned content id against this cache,
// resolving it on the set's first use here and memoizing it on the set.
// Resolution is deterministic per cache (each content gets one stable
// id), so a racing re-resolution publishes an identical value and
// last-write-wins is safe. A set alternating between caches (which no
// current caller does) would re-resolve on each switch — correct, just
// unmemoized.
func (c *Cache) setID(s *KnobSet) uint32 {
	if m := s.Memo.Load(); m != nil && m.Owner == c {
		return m.ID
	}
	c.mu.Lock()
	id, known := uint32(0), false
	for _, e := range c.sets[s.Hash()] {
		if slices.Equal(e.knobs, s.Knobs()) {
			id, known = e.id, true
			break
		}
	}
	if !known {
		id = c.nsets
		c.nsets++
		c.sets[s.Hash()] = append(c.sets[s.Hash()], internedSet{knobs: s.Knobs(), id: id})
	}
	c.mu.Unlock()
	s.Memo.Store(&schedule.BatchMemo{Owner: c, ID: id})
	return id
}

// Evaluate prices one candidate as a row of one. Errors are not cached
// or counted: an invalid point re-queries the analyzer (cheap — it fails
// validation before any pricing).
func (c *Cache) Evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	var sc Scratch
	rs, err := c.EvaluateSet(shape, NewKnobSet([]schedule.Knobs{k}), nil, &sc)
	if err != nil {
		return schedule.Result{}, err
	}
	return rs[0], nil
}

// EvaluateSet prices every entry of a KnobSet under one shape: one probe
// of the row store, then either a copy of the stored row or one backend
// batch over the set's distinct entries. dst is reused when its capacity
// suffices and the returned slice aliases it — it is the caller's, never
// the stored row — and sc's buffers persist across calls. This is the
// tuner's hot path: a hit allocates nothing once dst has grown, a miss
// allocates the row it publishes.
func (c *Cache) EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	n := set.Len()
	if cap(dst) < n {
		dst = make([]schedule.Result, n)
	}
	dst = dst[:n]
	key := rowKey{shape: shape.Canonical(), set: c.setID(set)}
	c.mu.RLock()
	row, ok := c.rows[key]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(uint64(n))
		copy(dst, row)
		return dst, nil
	}
	// A fresh, exactly-sized row for the missed (shape, set).
	row, err := c.ev.EvaluateSet(shape, set, make([]schedule.Result, n), sc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, raced := c.rows[key]; !raced { // first publish wins; the loser's row is identical
		c.rows[key] = row
		c.held += n
	}
	c.mu.Unlock()
	uniq := set.Distinct()
	c.misses.Add(uint64(uniq))
	c.hits.Add(uint64(n - uniq))
	copy(dst, row)
	return dst, nil
}
