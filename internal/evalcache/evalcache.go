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
// schedule.Analyzer.EvaluatePreparedInto). Single candidates and ad-hoc
// batches are rows of one and of the batch's length through the same
// store.
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
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
)

// Evaluator is the pricing interface the cache wraps and implements;
// *schedule.Analyzer satisfies it.
type Evaluator interface {
	Evaluate(schedule.StageShape, schedule.Knobs) (schedule.Result, error)
	EvaluateBatch(schedule.StageShape, []schedule.Knobs) ([]schedule.Result, error)
}

// preparedInto is the optional prepared-batch interface
// (*schedule.Analyzer implements it); the cache prefers it for pricing a
// missed row, so the sweep reuses the set's tuple partition and writes
// straight into the row.
type preparedInto interface {
	EvaluatePreparedInto(dst []schedule.Result, shape schedule.StageShape, b *schedule.Batch, sc *schedule.EvalScratch) ([]schedule.Result, error)
}

// KnobSet is an immutable, order-preserving batch of knobs: one stage
// shape's whole knob grid, the unit the cache stores and the analyzer
// prices. The tuner builds one per distinct layer count per search (the
// knob grid depends only on the layer count) and reuses it across every
// (stage, shape) sweep.
type KnobSet struct {
	knobs []schedule.Knobs
	hash  uint64 // of the ordered content; buckets the cache's set table

	// uniq holds the set's distinct entries in first-occurrence order,
	// prepared for row pricing; uniqOf[i] is entry i's position in it
	// (<= i), nil when every entry is distinct. In-set duplicates are
	// priced once and served as hits.
	uniq   *schedule.Batch
	uniqOf []int32

	// res memoizes the set's interned id against the last cache that
	// resolved it. The memo lives on the (request-scoped) set, not the
	// (process-lifetime) cache. Resolution is deterministic per cache
	// (each content gets one stable id), so a racing re-resolution
	// publishes an identical value and last-write-wins is safe.
	res atomic.Pointer[setResolution]
}

// setResolution pairs a set's interned id with the cache that issued it.
type setResolution struct {
	cache *Cache
	id    uint32
}

// NewKnobSet copies ks into an immutable set.
func NewKnobSet(ks []schedule.Knobs) *KnobSet {
	s := &KnobSet{
		knobs:  append([]schedule.Knobs(nil), ks...),
		uniqOf: make([]int32, len(ks)),
	}
	uniq := make([]schedule.Knobs, 0, len(ks))
	seen := make(map[schedule.Knobs]int32, len(ks))
	var h uint64
	mix := func(x uint64) { h = (h ^ x) * 1099511628211 } // FNV-1a over words
	for i, k := range s.knobs {
		mix(uint64(k.Layers))
		mix(uint64(k.Ckpt))
		mix(math.Float64bits(k.WO))
		mix(math.Float64bits(k.GO))
		mix(math.Float64bits(k.OO))
		mix(math.Float64bits(k.AO))
		first, dup := seen[k]
		if !dup {
			first = int32(len(uniq))
			seen[k] = first
			uniq = append(uniq, k)
		}
		s.uniqOf[i] = first
	}
	if len(uniq) == len(s.knobs) { // no duplicates: one backing array, no index
		uniq, s.uniqOf = s.knobs, nil
	}
	s.hash = h
	s.uniq = schedule.NewBatch(uniq)
	return s
}

// Knobs returns the set's backing slice; callers must not mutate it.
func (s *KnobSet) Knobs() []schedule.Knobs { return s.knobs }

// Len reports the number of entries (including in-set duplicates).
func (s *KnobSet) Len() int { return len(s.knobs) }

// Scratch holds the reusable buffers of one pricing stream. One Scratch
// belongs to one goroutine at a time; the zero value is ready to use.
type Scratch struct {
	// Eval is the underlying analyzer's buffer set, exported so callers
	// bypassing the cache (NoCache benchmarking) can reuse the same
	// scratch against schedule.Analyzer directly.
	Eval schedule.EvalScratch
}

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
// A set alternating between caches (which no current caller does) would
// re-resolve on each switch — correct, just unmemoized.
func (c *Cache) setID(s *KnobSet) uint32 {
	if r := s.res.Load(); r != nil && r.cache == c {
		return r.id
	}
	c.mu.Lock()
	id, known := uint32(0), false
	for _, e := range c.sets[s.hash] {
		if slices.Equal(e.knobs, s.knobs) {
			id, known = e.id, true
			break
		}
	}
	if !known {
		id = c.nsets
		c.nsets++
		c.sets[s.hash] = append(c.sets[s.hash], internedSet{knobs: s.knobs, id: id})
	}
	c.mu.Unlock()
	s.res.Store(&setResolution{cache: c, id: id})
	return id
}

// Evaluate prices one candidate as a row of one. Errors are not cached
// or counted: an invalid point re-queries the analyzer (cheap — it fails
// validation before any pricing).
func (c *Cache) Evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	rs, err := c.EvaluateBatch(shape, []schedule.Knobs{k})
	if err != nil {
		return schedule.Result{}, err
	}
	return rs[0], nil
}

// EvaluateBatch prices an ad-hoc knob slice under one shape as a row of
// its own. Repeated batches should build a KnobSet once and use
// EvaluateSet.
func (c *Cache) EvaluateBatch(shape schedule.StageShape, ks []schedule.Knobs) ([]schedule.Result, error) {
	var sc Scratch
	return c.EvaluateSet(shape, NewKnobSet(ks), nil, &sc)
}

// EvaluateSet prices every entry of a KnobSet under one shape: one probe
// of the row store, then either a copy of the stored row or one analyzer
// batch over the set's distinct entries. dst is reused when its capacity
// suffices and the returned slice aliases it — it is the caller's, never
// the stored row — and sc's buffers persist across calls. This is the
// tuner's hot path: a hit allocates nothing once dst has grown, a miss
// allocates the row it publishes.
func (c *Cache) EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	n := len(set.knobs)
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
	row, err := c.price(shape, set, sc)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, raced := c.rows[key]; !raced { // first publish wins; the loser's row is identical
		c.rows[key] = row
		c.held += n
	}
	c.mu.Unlock()
	uniq := len(set.uniq.Knobs())
	c.misses.Add(uint64(uniq))
	c.hits.Add(uint64(n - uniq))
	copy(dst, row)
	return dst, nil
}

// price builds a fresh, exactly-sized row for a missed (shape, set).
func (c *Cache) price(shape schedule.StageShape, set *KnobSet, sc *Scratch) ([]schedule.Result, error) {
	row := make([]schedule.Result, len(set.knobs))
	uniq := set.uniq.Knobs()
	if pi, ok := c.ev.(preparedInto); ok {
		if _, err := pi.EvaluatePreparedInto(row, shape, set.uniq, &sc.Eval); err != nil {
			return nil, err
		}
	} else {
		priced, err := c.ev.EvaluateBatch(shape, uniq)
		if err != nil {
			return nil, err
		}
		copy(row, priced)
	}
	if len(uniq) < len(row) {
		// The distinct entries' results sit in the row's prefix; spread
		// them to set order back to front (uniqOf[i] <= i, so no source
		// is overwritten before it is read).
		for i := len(row) - 1; i >= 0; i-- {
			row[i] = row[set.uniqOf[i]]
		}
	}
	return row, nil
}
