package slo

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// MetricsSource is what the engine reads — *metrics.Registry satisfies
// it, and tests substitute fakes to script counter resets.
type MetricsSource interface {
	Gather() ([]metrics.CounterPoint, []metrics.HistogramPoint)
}

// Alert states, ordered by severity.
const (
	StateOK      = "ok"
	StateWarning = "warning"
	StatePage    = "page"
)

// Transition is one alert state change, delivered through the
// OnTransition hook (outside the engine lock) so the serving layer can
// append it to the cluster event timeline.
type Transition struct {
	Objective string
	From, To  string
	// Reason carries the burn numbers that justified the change.
	Reason string
	At     time.Time
}

// WindowStat is one window's tally within an ObjectiveStatus. Good/Bad
// are float64 because latency objectives split the bucket straddling the
// bound fractionally.
type WindowStat struct {
	Seconds     int     `json:"seconds"`
	Good        float64 `json:"good"`
	Bad         float64 `json:"bad"`
	BadFraction float64 `json:"badFraction"`
	Burn        float64 `json:"burn"`
}

// Window indices within ObjectiveStatus.Windows.
const (
	WinFast    = 0
	WinConfirm = 1
	WinBudget  = 2
)

// ObjectiveStatus is one objective's evaluated state — the unit of the
// /slo wire payload and of fleet merging. LatencyBuckets carries the
// budget-window histogram deltas so the fleet fold can merge buckets
// and recompute quantiles instead of averaging them.
type ObjectiveStatus struct {
	Name     string  `json:"name"`
	Type     string  `json:"type"`
	Endpoint string  `json:"endpoint,omitempty"`
	Target   float64 `json:"target"`
	Bound    float64 `json:"bound,omitempty"`
	FastBurn float64 `json:"fastBurn"`
	SlowBurn float64 `json:"slowBurn"`

	State string `json:"state"`
	// Windows holds the fast / confirm / budget tallies (see Win*).
	Windows [3]WindowStat `json:"windows"`
	// BurnFast / BurnSlow are the corroborated pair burns: the minimum
	// of (fast, confirm) and of (confirm, budget) respectively — the
	// value actually compared against FastBurn / SlowBurn.
	BurnFast float64 `json:"burnFast"`
	BurnSlow float64 `json:"burnSlow"`
	// BudgetRemaining is the unspent fraction of the error budget over
	// the budget window: 1 at zero bad events, 0 at exact exhaustion,
	// negative past it.
	BudgetRemaining float64 `json:"budgetRemaining"`

	// Latency-only extras: the budget-window p99 (from merged bucket
	// deltas), the observed max, the raw bucket deltas for fleet
	// merging, and the trace exemplar of the slowest occupied bucket
	// above the bound (links a p99 breach to /debug/traces).
	P99Ms          float64  `json:"p99Ms,omitempty"`
	MaxMs          float64  `json:"maxMs,omitempty"`
	LatencyBuckets []uint64 `json:"latencyBuckets,omitempty"`
	ExemplarTrace  string   `json:"exemplarTrace,omitempty"`
}

// epDelta is one endpoint's activity during one evaluation tick.
type epDelta struct {
	total uint64 // requests by status code family
	c429  uint64
	c5xx  uint64
	hb    [metrics.NumHistBuckets]uint64 // latency histogram deltas
}

// tickBucket is one ring slot: everything that happened fleet-side in
// one evaluation interval.
type tickBucket struct {
	eps        map[string]*epDelta
	queueDepth float64
	queueOK    bool // sampler ran this tick
}

// objectiveRt is an objective's precomputed runtime: window widths in
// buckets and the latency-bound bucket split.
type objectiveRt struct {
	spec     Objective
	fastN    int
	confirmN int
	budgetN  int
	// Latency: observations in buckets < boundIdx are good, buckets >
	// boundIdx bad, and the straddling bucket boundIdx splits
	// fracAbove bad / (1-fracAbove) good by linear interpolation.
	boundIdx  int
	fracAbove float64
}

// Options configures NewEngine beyond the declarative spec.
type Options struct {
	// Clock defaults to clock.System.
	Clock clock.Clock
	// CounterFamily / HistFamily name the request series to read
	// (defaults: the serving layer's mist_http_requests_total /
	// mist_http_request_seconds; mistload scores its client-side
	// load_requests_total / load_request_seconds instead).
	CounterFamily string
	HistFamily    string
	// QueueDepth, when set, is sampled once per tick for queueDepth
	// objectives (the serving layer wires its admission queue here).
	QueueDepth func() float64
	// OnTransition receives alert state changes, invoked outside the
	// engine lock.
	OnTransition func(Transition)
}

// Engine evaluates a validated Config against a metrics source. Tick
// advances the ring (and the alert state machine); Evaluate is a pure,
// allocation-free read of the current statuses.
type Engine struct {
	cfg      Config
	src      MetricsSource
	clock    clock.Clock
	counterF string
	histF    string
	queue    func() float64
	onTrans  func(Transition)
	interval time.Duration

	mu   sync.Mutex
	objs []objectiveRt
	ring []tickBucket
	head int // next slot to write
	len  int // filled slots, caps at len(ring)

	// Cumulative baselines for snapshot-diffing, keyed endpoint\x00code
	// (counters) and endpoint (histograms).
	prevCounters map[string]uint64
	prevHists    map[string][metrics.NumHistBuckets]uint64

	// Latest cumulative per-endpoint latency max and bucket exemplars,
	// refreshed each Tick (cumulative, not windowed: a window max is
	// not recoverable from counter deltas, so the reported max is the
	// process-lifetime max — conservative for budget math, which never
	// uses it).
	lastMax   map[string]time.Duration
	exemplars map[string]*[metrics.NumHistBuckets]string

	// Alert state machine, advanced only by Tick.
	states      []string
	cleanStreak []int

	// statuses is the preallocated Evaluate output; rewritten in place
	// every call (callers must not retain it across calls — Snapshot
	// deep-copies for wire use).
	statuses []ObjectiveStatus
}

// NewEngine builds an engine for a spec that already passed Validate.
func NewEngine(cfg Config, src MetricsSource, opts Options) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("slo: nil metrics source")
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.System
	}
	counterF := opts.CounterFamily
	if counterF == "" {
		counterF = "mist_http_requests_total"
	}
	histF := opts.HistFamily
	if histF == "" {
		histF = "mist_http_request_seconds"
	}
	e := &Engine{
		cfg:          cfg,
		src:          src,
		clock:        clk,
		counterF:     counterF,
		histF:        histF,
		queue:        opts.QueueDepth,
		onTrans:      opts.OnTransition,
		interval:     time.Duration(cfg.IntervalMs) * time.Millisecond,
		prevCounters: map[string]uint64{},
		prevHists:    map[string][metrics.NumHistBuckets]uint64{},
		lastMax:      map[string]time.Duration{},
		exemplars:    map[string]*[metrics.NumHistBuckets]string{},
	}
	ringLen := 1
	for _, o := range cfg.Objectives {
		rt := objectiveRt{
			spec:     o,
			fastN:    bucketsFor(time.Duration(o.FastS)*time.Second, e.interval),
			confirmN: bucketsFor(time.Duration(o.ConfirmS)*time.Second, e.interval),
			budgetN:  bucketsFor(time.Duration(o.WindowS)*time.Second, e.interval),
		}
		if o.Type == TypeLatency {
			rt.boundIdx, rt.fracAbove = latencySplit(o.Bound)
		}
		e.objs = append(e.objs, rt)
		if rt.budgetN > ringLen {
			ringLen = rt.budgetN
		}
	}
	e.ring = make([]tickBucket, ringLen)
	e.states = make([]string, len(e.objs))
	e.cleanStreak = make([]int, len(e.objs))
	e.statuses = make([]ObjectiveStatus, len(e.objs))
	for i := range e.states {
		e.states[i] = StateOK
	}
	for i, o := range e.objs {
		st := &e.statuses[i]
		st.Name = o.spec.Name
		st.Type = o.spec.Type
		st.Endpoint = o.spec.Endpoint
		st.Target = o.spec.Target
		st.Bound = o.spec.Bound
		st.FastBurn = o.spec.FastBurn
		st.SlowBurn = o.spec.SlowBurn
		st.State = StateOK
		st.Windows[WinFast].Seconds = o.spec.FastS
		st.Windows[WinConfirm].Seconds = o.spec.ConfirmS
		st.Windows[WinBudget].Seconds = o.spec.WindowS
		if o.spec.Type == TypeLatency {
			st.LatencyBuckets = make([]uint64, metrics.NumHistBuckets)
		}
	}
	return e, nil
}

// latencySplit resolves a millisecond bound into its histogram bucket
// and the fraction of that bucket's observations interpolated above the
// bound.
func latencySplit(boundMs float64) (int, float64) {
	bound := time.Duration(boundMs * float64(time.Millisecond))
	for i := 0; i < metrics.NumHistBuckets-1; i++ {
		hi := metrics.BucketUpperBound(i)
		if bound <= hi {
			lo := time.Duration(0)
			if i > 0 {
				lo = metrics.BucketUpperBound(i - 1)
			}
			frac := 0.0
			if hi > lo {
				frac = float64(hi-bound) / float64(hi-lo)
			}
			if frac < 0 {
				frac = 0
			}
			return i, frac
		}
	}
	// Bound beyond the last finite bucket: only overflow observations
	// can breach it, and those all count bad (their true latency is
	// unknown past the bound).
	return metrics.NumHistBuckets - 1, 1
}

// Interval returns the evaluation cadence.
func (e *Engine) Interval() time.Duration { return e.interval }

// Config returns the validated spec the engine runs.
func (e *Engine) Config() Config { return e.cfg }

// Tick ingests one evaluation interval: snapshot-diff the metrics
// source into a ring bucket, advance the alert state machine, and fire
// transitions. The serving layer calls it on the engine cadence; tests
// call it directly under a virtual clock.
func (e *Engine) Tick() {
	counters, hists := e.src.Gather()
	now := e.clock.Now()

	e.mu.Lock()
	b := &e.ring[e.head]
	e.head = (e.head + 1) % len(e.ring)
	if e.len < len(e.ring) {
		e.len++
	}
	if b.eps == nil {
		b.eps = map[string]*epDelta{}
	} else {
		clear(b.eps)
	}
	b.queueOK = false
	if e.queue != nil {
		b.queueDepth = e.queue()
		b.queueOK = true
	}
	getEp := func(ep string) *epDelta {
		d, ok := b.eps[ep]
		if !ok {
			d = &epDelta{}
			b.eps[ep] = d
		}
		return d
	}
	for _, c := range counters {
		if c.Name != e.counterF {
			continue
		}
		ep := c.Labels["endpoint"]
		code := c.Labels["code"]
		key := ep + "\x00" + code
		prev := e.prevCounters[key]
		e.prevCounters[key] = c.Value
		delta := c.Value - prev
		if c.Value < prev {
			// Counter reset (process restart behind the same source):
			// the new cumulative value IS the delta since we last saw it.
			delta = c.Value
		}
		if delta == 0 {
			continue
		}
		d := getEp(ep)
		d.total += delta
		switch {
		case code == "429":
			d.c429 += delta
		case len(code) > 0 && code[0] == '5':
			d.c5xx += delta
		}
	}
	for _, h := range hists {
		if h.Name != e.histF {
			continue
		}
		ep := h.Labels["endpoint"]
		prev := e.prevHists[ep]
		e.prevHists[ep] = h.Snap.Buckets
		d := getEp(ep)
		for i, cur := range h.Snap.Buckets {
			delta := cur - prev[i]
			if cur < prev[i] {
				delta = cur
			}
			d.hb[i] += delta
		}
		if h.Snap.Max > e.lastMax[ep] {
			e.lastMax[ep] = h.Snap.Max
		}
		ex := e.exemplars[ep]
		if ex == nil {
			ex = &[metrics.NumHistBuckets]string{}
			e.exemplars[ep] = ex
		}
		for i, id := range h.Snap.Exemplars {
			if id != "" {
				ex[i] = id
			}
		}
	}

	e.evaluateLocked()
	trans := e.advanceLocked(now)
	e.mu.Unlock()

	if e.onTrans != nil {
		for _, t := range trans {
			e.onTrans(t)
		}
	}
}

// CachedStatus returns one objective's status as of the last Tick or
// Evaluate, without recomputing — the /metrics gauge path, where a
// scrape must not force a re-evaluation per gauge.
func (e *Engine) CachedStatus(name string) (ObjectiveStatus, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.statuses {
		if e.statuses[i].Name == name {
			return e.statuses[i], true
		}
	}
	return ObjectiveStatus{}, false
}

// Evaluate recomputes every objective's status from the ring and
// returns the engine's internal status slice. It is a pure read — the
// alert state machine only advances in Tick — and allocation-free
// (BenchmarkSLOEvaluate pins 0 allocs/op); callers must not retain the
// slice across calls. Wire consumers use Snapshot.
func (e *Engine) Evaluate() []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evaluateLocked()
	return e.statuses
}

// evaluateLocked rewrites e.statuses in place from the ring. Must not
// allocate: preallocated statuses, stack accumulators, map iteration.
func (e *Engine) evaluateLocked() {
	for oi := range e.objs {
		o := &e.objs[oi]
		st := &e.statuses[oi]
		var good, bad [3]float64
		var maxD time.Duration
		exemplar := ""
		exemplarIdx := -1
		if st.LatencyBuckets != nil {
			for i := range st.LatencyBuckets {
				st.LatencyBuckets[i] = 0
			}
		}
		// Walk buckets newest-first: age 1 is the slot just written.
		for age := 1; age <= o.budgetN && age <= e.len; age++ {
			slot := e.head - age
			if slot < 0 {
				slot += len(e.ring)
			}
			b := &e.ring[slot]
			var g, bd float64
			switch o.spec.Type {
			case TypeQueueDepth:
				if b.queueOK {
					if b.queueDepth > o.spec.Bound {
						bd = 1
					} else {
						g = 1
					}
				}
			default:
				for ep, d := range b.eps {
					if o.spec.Endpoint != "" && ep != o.spec.Endpoint {
						continue
					}
					switch o.spec.Type {
					case TypeAvailability:
						denom := d.total - d.c429
						if denom > d.total { // underflow guard
							denom = 0
						}
						b5 := d.c5xx
						if b5 > denom {
							b5 = denom
						}
						bd += float64(b5)
						g += float64(denom - b5)
					case TypeRate429:
						bd += float64(d.c429)
						g += float64(d.total - d.c429)
					case TypeLatency:
						for i, n := range d.hb {
							if n == 0 {
								continue
							}
							st.LatencyBuckets[i] += n
							switch {
							case i < o.boundIdx:
								g += float64(n)
							case i > o.boundIdx:
								bd += float64(n)
							default:
								bd += float64(n) * o.fracAbove
								g += float64(n) * (1 - o.fracAbove)
							}
							if i > exemplarIdx && i >= o.boundIdx {
								if ex := e.exemplars[ep]; ex != nil && ex[i] != "" {
									exemplar = ex[i]
									exemplarIdx = i
								}
							}
						}
						if m := e.lastMax[ep]; m > maxD {
							maxD = m
						}
					}
				}
			}
			good[WinBudget] += g
			bad[WinBudget] += bd
			if age <= o.confirmN {
				good[WinConfirm] += g
				bad[WinConfirm] += bd
			}
			if age <= o.fastN {
				good[WinFast] += g
				bad[WinFast] += bd
			}
		}
		budget := 1 - o.spec.Target
		for w := 0; w < 3; w++ {
			ws := &st.Windows[w]
			total := good[w] + bad[w]
			ws.Good = good[w]
			ws.Bad = bad[w]
			if total > 0 {
				ws.BadFraction = bad[w] / total
			} else {
				ws.BadFraction = 0
			}
			if budget > 0 {
				ws.Burn = ws.BadFraction / budget
			} else {
				ws.Burn = 0
			}
		}
		st.BurnFast = minF(st.Windows[WinFast].Burn, st.Windows[WinConfirm].Burn)
		st.BurnSlow = minF(st.Windows[WinConfirm].Burn, st.Windows[WinBudget].Burn)
		st.BudgetRemaining = 1 - st.Windows[WinBudget].Burn
		if o.spec.Type == TypeLatency {
			st.MaxMs = float64(maxD) / float64(time.Millisecond)
			st.P99Ms = e.windowP99Ms(st, maxD)
			st.ExemplarTrace = exemplar
		}
		st.State = e.states[oi]
	}
}

// windowP99Ms estimates the budget-window p99 from the merged bucket
// deltas. The snapshot is built on the stack; with the cumulative max
// as the tightening cap the estimate never overshoots anything actually
// observed.
func (e *Engine) windowP99Ms(st *ObjectiveStatus, maxD time.Duration) float64 {
	var snap metrics.HistSnapshot
	count := uint64(0)
	for i, n := range st.LatencyBuckets {
		snap.Buckets[i] = n
		count += n
	}
	if count == 0 {
		return 0
	}
	snap.Count = count
	snap.Max = maxD
	return float64(snap.Quantile(0.99)) / float64(time.Millisecond)
}

// breaching reports the two alert conditions for objective oi from its
// just-evaluated status.
func (e *Engine) breaching(oi int) (page, warn bool) {
	st := &e.statuses[oi]
	o := &e.objs[oi]
	page = st.Windows[WinFast].Burn > o.spec.FastBurn && st.Windows[WinConfirm].Burn > o.spec.FastBurn
	warn = st.Windows[WinConfirm].Burn > o.spec.SlowBurn && st.Windows[WinBudget].Burn > o.spec.SlowBurn
	return page, warn || page
}

// advanceLocked moves the alert state machine after an evaluation:
// upgrades are immediate, downgrades only after ClearEvals consecutive
// clean evaluations (hysteresis — one boundary-straddling window cannot
// flap an alert). Returns the transitions to fire outside the lock.
func (e *Engine) advanceLocked(now time.Time) []Transition {
	var out []Transition
	for oi := range e.objs {
		st := &e.statuses[oi]
		page, warn := e.breaching(oi)
		cur := e.states[oi]
		next := cur
		switch {
		case page:
			e.cleanStreak[oi] = 0
			next = StatePage
		case warn:
			e.cleanStreak[oi] = 0
			// A page does not soften to warning while still breaching:
			// it either stays paged or fully resolves.
			if cur == StateOK {
				next = StateWarning
			}
		default:
			e.cleanStreak[oi]++
			if cur != StateOK && e.cleanStreak[oi] >= e.cfg.ClearEvals {
				next = StateOK
			}
		}
		if next != cur {
			e.states[oi] = next
			st.State = next
			out = append(out, Transition{
				Objective: e.objs[oi].spec.Name,
				From:      cur,
				To:        next,
				Reason: fmt.Sprintf("burn fast=%.2f slow=%.2f budgetRemaining=%.3f",
					st.BurnFast, st.BurnSlow, st.BudgetRemaining),
				At: now,
			})
		} else {
			st.State = cur
		}
	}
	return out
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
