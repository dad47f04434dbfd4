package serve

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/schedule"
)

// This file is the cross-request evaluation-cache registry. A single
// tuner run prices thousands to over a million (stage shape, knobs)
// points (5 265 for gpt3-2.7b on 8 L4s, 1 570 104 for gpt3-22b on 32);
// those pricings depend only on the analyzer configuration, not on the
// request, so a fresh analyzer per search throws the work away. The
// registry keeps one calibrated analyzer, and with it its rows
// (schedule.Analyzer.Rows), per analyzer-config fingerprint for the life
// of the process: a re-search
// of a known fingerprint (after plan-cache eviction, or for a different
// global batch over the same model/platform) starts ~fully warm.
//
// The registry is bounded by total cached points, not entries: one
// fingerprint's rows hold a few hundred thousand points while another's
// hold a few thousand, so entry-count capacity would be meaningless. When
// the total exceeds the cap, least-recently-used entries are dropped
// whole (their analyzer too); a dropped fingerprint simply re-prices on
// its next search, exactly like the first request of a process. Every
// entry is also charged a fixed overhead on top of its points — the
// fingerprint space is user-controlled (Seq, GPUs), so simulate-only
// entries that calibrate an analyzer but memoize ~0 points must still
// accumulate toward the cap and age out, or diverse /simulate traffic
// would grow the registry without bound. The cap is therefore enforced
// on the analyzer-only path too, whenever it creates an entry, not just
// after searches. The registry is the one owner of a fingerprint's
// analyzer: the plan cache keeps none, so an evicted analyzer outlives
// only the searches still running on it, and /simulate prices on the
// live entry.

// The registry charges points, and the constants below are sized in
// bytes from one measurement: the heap an entry retains after one search
// of its spec, process tables already warm. An entry with few points
// retains ~16 KB (15 points, gpt3-1.3b on 2 L4s in the DeepSpeed space;
// 38 KB at 5 265 points, gpt3-2.7b on 8), and at scale a point retains
// ~1.4 B (2.3 MB at 1 570 104 points, gpt3-22b on 32): a row keeps only
// its staircase steps.

// defaultEvalCachePoints bounds the registry's total charge. A point is
// one priced entry of a knob-grid row (single candidates are never
// stored). At ~1.4 B a point the cap is ~6 MB of rows, about two and a
// half paper-scale searches.
const defaultEvalCachePoints = 4 << 20

// entryOverheadPoints is the fixed charge of each registry entry, an
// entry's ~16 KB at ~1.4 B a point: the analyzer, its per-(TP, b) layer
// compute, and the section costs and coefficient fills of the shapes it
// priced are real memory even when the entry has memoized no points.
// (The interference fit, the model trace and the compiled stage programs
// are the process's, shared across entries.) Charging it makes
// point-light entries evictable by the same LRU sweep and bounds the
// entry count at capPoints/entryOverheadPoints (372 at the default cap).
const entryOverheadPoints = 11 << 10

// evalKey is the analyzer-config fingerprint: everything the analyzer's
// answers depend on, and nothing more. The global batch is deliberately
// absent — shapes carry their own microbatch size — so workloads that
// differ only in batch share one cache. The search space collapses to
// its Serialize flag for the same reason: spaces restrict which points
// the tuner asks about, not what any point costs.
// Its bytes are model|platform|gpus|seq|flash=<bool>|serialize=<bool>,
// model and platform lower-cased.
func evalKey(ws WorkloadSpec, space core.Space) string {
	model, platform := strings.ToLower(ws.Model), strings.ToLower(ws.Platform)
	b := make([]byte, 0, len(model)+len(platform)+48)
	b = append(append(b, model...), '|')
	b = append(append(b, platform...), '|')
	b = append(strconv.AppendInt(b, int64(ws.GPUs), 10), '|')
	b = append(strconv.AppendInt(b, int64(ws.Seq), 10), "|flash="...)
	b = append(strconv.AppendBool(b, !ws.NoFlash), "|serialize="...)
	return string(strconv.AppendBool(b, !space.OverlapAware))
}

// evalEntry is one registry slot. ready closes when calibration
// finishes, so concurrent first requests for a fingerprint build the
// analyzer once and everyone else waits (calibration is milliseconds,
// bounded by the interference fit).
type evalEntry struct {
	ready    chan struct{}
	an       *schedule.Analyzer
	err      error
	lastUsed atomic.Int64 // registry sequence number, not wall time
}

type evalRegistry struct {
	capPoints int

	mu      sync.Mutex
	entries map[string]*evalEntry

	seq       atomic.Int64
	evictions *metrics.Counter // whole caches dropped by the cap
	retired   *metrics.Counter // points those caches held when dropped
}

// newEvalRegistry builds a registry whose eviction counters are series
// of reg.
func newEvalRegistry(capPoints int, reg *metrics.Registry) *evalRegistry {
	return &evalRegistry{
		capPoints: capPoints,
		entries:   map[string]*evalEntry{},
		evictions: reg.Counter("mist_eval_cache_evictions_total", nil),
		retired:   reg.Counter("mist_eval_cache_points_retired_total", nil),
	}
}

// acquire returns the shared analyzer for a normalized spec,
// calibrating it on first use. reused reports whether the entry predates
// this call (the search will start warm).
func (r *evalRegistry) acquire(ws WorkloadSpec, w plan.Workload, cl *hardware.Cluster, space core.Space) (an *schedule.Analyzer, reused bool, err error) {
	key := evalKey(ws, space)
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &evalEntry{ready: make(chan struct{})}
		r.entries[key] = e
		r.mu.Unlock()
		an, err := core.CalibratedAnalyzer(w, cl, space)
		if err != nil {
			// Failed builds are not cached: drop the slot so a later
			// (possibly corrected) request retries.
			e.err = err
			close(e.ready)
			r.mu.Lock()
			delete(r.entries, key)
			r.mu.Unlock()
			return nil, false, err
		}
		e.an = an
		close(e.ready)
		e.lastUsed.Store(r.seq.Add(1))
		return e.an, false, nil
	}
	r.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return nil, false, e.err
	}
	e.lastUsed.Store(r.seq.Add(1))
	return e.an, true, nil
}

// analyzer returns the calibrated analyzer for a spec (shared with any
// searches of the same fingerprint), for callers that only need pricing,
// not a tuner — /simulate's measurement path. A new entry is charged
// against the cap like a search's growth is: fingerprints are
// user-controlled, so analyzer-only traffic must not grow the registry
// without bound. A reused entry's charge did not move, so it checks
// nothing.
func (r *evalRegistry) analyzer(ws WorkloadSpec, w plan.Workload, cl *hardware.Cluster, space core.Space) (*schedule.Analyzer, error) {
	an, reused, err := r.acquire(ws, w, cl, space)
	if err != nil {
		return nil, err
	}
	if !reused {
		r.enforceCap(evalKey(ws, space))
	}
	return an, nil
}

// points is an entry's memoized points; ok is false while it is still
// calibrating (empty, nothing to count) or when its build failed.
func (e *evalEntry) points() (pts int, ok bool) {
	select {
	case <-e.ready:
	default:
		return 0, false
	}
	if e.err != nil {
		return 0, false
	}
	return e.an.Rows().Len(), true
}

// enforceCap drops least-recently-used entries until the total charge —
// cached points plus a fixed per-entry overhead — fits the cap. keep
// names the entry the caller just used; it is never evicted, so a
// single over-budget fingerprint keeps its (still useful) cache rather
// than thrashing on every request. It runs after every search and
// nearly always finds the total under the cap, so it builds the victim
// list only past the cap.
func (r *evalRegistry) enforceCap(keep string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, e := range r.entries {
		if pts, ok := e.points(); ok {
			total += entryOverheadPoints + pts
		}
	}
	if total <= r.capPoints {
		return
	}
	type sized struct {
		key string
		e   *evalEntry
		n   int // charged size: points + per-entry overhead
		pts int // actual memoized points (the retired counter counts these)
	}
	// Running searches may have grown a row store since the sum above,
	// so the list re-reads every charge and the total follows it.
	total = 0
	all := make([]sized, 0, len(r.entries))
	for k, e := range r.entries {
		if pts, ok := e.points(); ok {
			n := entryOverheadPoints + pts
			total += n
			all = append(all, sized{key: k, e: e, n: n, pts: pts})
		}
	}
	for total > r.capPoints {
		victim := -1
		for i := range all {
			if all[i].key == keep {
				continue
			}
			if victim < 0 || all[i].e.lastUsed.Load() < all[victim].e.lastUsed.Load() {
				victim = i
			}
		}
		if victim < 0 {
			return // only the protected entry remains
		}
		delete(r.entries, all[victim].key)
		r.evictions.Inc()
		r.retired.Add(uint64(all[victim].pts))
		total -= all[victim].n
		all[victim] = all[len(all)-1]
		all = all[:len(all)-1]
	}
}

// snapshot reports the registry gauges: live entries and total cached
// points across them.
func (r *evalRegistry) snapshot() (entries, points int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.entries {
		if pts, ok := e.points(); ok {
			entries++
			points += pts
		}
	}
	return entries, points
}
