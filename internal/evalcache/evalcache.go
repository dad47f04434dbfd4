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
// Counter discipline: hits and misses are counted, and returned to the
// caller, only after the pricing they describe has succeeded. A row whose
// analyzer call errors is not stored and contributes nothing, so on an
// error-free search the counts reconcile exactly with the candidates the
// caller priced.
package evalcache

import (
	"sync"
	"sync/atomic"

	"repro/internal/schedule"
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

// Cache is a memoizing, concurrency-safe row store over one analyzer
// (model, sequence, cluster, interference fit, Serialize flag).
type Cache struct {
	an *schedule.Analyzer

	mu   sync.RWMutex
	rows map[rowKey][]schedule.Result // immutable once published
	held int                          // results across all rows

	hits   atomic.Uint64
	misses atomic.Uint64
}

// New builds an empty cache over an analyzer.
func New(an *schedule.Analyzer) *Cache {
	return &Cache{an: an, rows: make(map[rowKey][]schedule.Result)}
}

// Backend is the analyzer the cache prices on. core.NewShared uses it to
// reject a cache paired with another analyzer: its rows would be answers
// to different questions.
func (c *Cache) Backend() *schedule.Analyzer { return c.an }

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

// Evaluate prices one candidate on the analyzer and counts one miss once
// it has priced; nothing is stored (see the package comment).
func (c *Cache) Evaluate(shape schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	r, err := c.an.Evaluate(shape, k)
	if err == nil {
		c.misses.Add(1)
	}
	return r, err
}

// EvaluateSet is EvaluateSets over a list of one, with the row copied
// into dst (reused when its capacity suffices): the returned slice is the
// caller's to write.
func (c *Cache) EvaluateSet(shape schedule.StageShape, set *KnobSet, dst []schedule.Result, sc *Scratch) ([]schedule.Result, error) {
	sets, rows := [1]*KnobSet{set}, [1][]schedule.Result{}
	if _, _, err := c.EvaluateSets(shape, sets[:], rows[:], sc); err != nil {
		return nil, err
	}
	return append(dst[:0], rows[0]...), nil
}

// EvaluateSets sets out[i] to the stored row of sets[i] under shape
// (len(out) == len(sets)) and reports how many of the points were hits
// and how many misses. The rows are shared with every other caller and
// must not be written. One lock hold probes the rows of all the sets; the
// missed sets — only those — go to the analyzer in one call, which shares
// work across them, and their fresh rows are published before they are
// returned. Rows stay keyed per (canonical shape, set): a set hits
// wherever it was first priced, whatever list it came in then. sc's
// buffers persist across calls. This is the tuner's hot path: an all-hit
// call allocates nothing, a miss allocates the rows it publishes. The
// counters move and the counts are returned once the whole call has
// succeeded; on an error out is undefined.
func (c *Cache) EvaluateSets(shape schedule.StageShape, sets []*KnobSet, out [][]schedule.Result, sc *Scratch) (hits, misses int, err error) {
	key := rowKey{shape: shape.Canonical()}
	nMissed := 0
	c.mu.RLock()
	for i, set := range sets {
		key.set = set
		out[i] = c.rows[key] // nil while missing
		if out[i] == nil {
			nMissed++
		}
		hits += len(out[i])
	}
	c.mu.RUnlock()

	if nMissed > 0 {
		missed := make([]*KnobSet, 0, nMissed)
		fresh := make([][]schedule.Result, 0, nMissed) // exactly-sized rows (never nil) for the missed sets
		for i, set := range sets {
			if out[i] == nil {
				missed = append(missed, set)
				fresh = append(fresh, make([]schedule.Result, set.Len()))
			}
		}
		if err = c.an.EvaluateSets(shape, missed, fresh, sc); err != nil {
			return 0, 0, err
		}
		c.mu.Lock()
		for i, set := range sets {
			if out[i] != nil {
				continue
			}
			key.set = set
			if won, raced := c.rows[key]; raced { // first publish wins; the loser's row is identical
				out[i] = won
			} else {
				out[i] = fresh[0]
				c.rows[key] = out[i]
				c.held += len(out[i])
			}
			fresh = fresh[1:]
			misses += set.Len()
		}
		c.mu.Unlock()
	}
	c.hits.Add(uint64(hits))
	c.misses.Add(uint64(misses))
	return hits, misses, nil
}
