package slo

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/metrics"
)

// newFakeClock starts every virtual-time test at the same instant.
func newFakeClock() *clock.Fake {
	return clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

// feed records count requests with the given code (and a latency) into
// the registry, the way the serving layer's middleware would.
func feed(reg *metrics.Registry, endpoint, code string, count int, lat time.Duration) {
	reg.Counter("reqs", metrics.Labels{"endpoint": endpoint, "code": code}).Add(uint64(count))
	h := reg.Histogram("lat", metrics.Labels{"endpoint": endpoint})
	for i := 0; i < count; i++ {
		h.Observe(lat)
	}
}

func testEngine(t *testing.T, cfg Config, reg *metrics.Registry, hook func(Transition)) (*Engine, *clock.Fake) {
	t.Helper()
	clock := newFakeClock()
	eng, err := NewEngine(cfg, reg, Options{
		Clock:         clock,
		CounterFamily: "reqs",
		HistFamily:    "lat",
		OnTransition:  hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, clock
}

func availabilityCfg(target float64, windowS, fastS, confirmS int) Config {
	return Config{
		IntervalMs: 1000,
		Objectives: []Objective{{
			Name: "avail", Type: TypeAvailability, Target: target,
			WindowS: windowS, FastS: fastS, ConfirmS: confirmS,
		}},
	}
}

// TestBudgetArithmetic pins the steady-state budget math: a constant
// bad fraction must map to an exact remaining budget.
func TestBudgetArithmetic(t *testing.T) {
	cases := []struct {
		name          string
		badPerTick    int // of 100 requests per tick
		wantRemaining float64
	}{
		{"clean", 0, 1},
		{"half budget", 5, 0.5},
		{"exact exhaustion", 10, 0},
		{"double overspend", 20, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			eng, clock := testEngine(t, availabilityCfg(0.9, 10, 1, 5), reg, nil)
			for i := 0; i < 10; i++ {
				feed(reg, "/tune", "200", 100-tc.badPerTick, time.Millisecond)
				if tc.badPerTick > 0 {
					feed(reg, "/tune", "500", tc.badPerTick, time.Millisecond)
				}
				clock.Advance(time.Second)
				eng.Tick()
			}
			st := eng.Evaluate()[0]
			if math.Abs(st.BudgetRemaining-tc.wantRemaining) > 1e-9 {
				t.Errorf("budgetRemaining = %v, want %v", st.BudgetRemaining, tc.wantRemaining)
			}
		})
	}
}

// TestExactExhaustionInstant drives the budget to zero at a computable
// tick: 5 clean ticks then pure-bad ticks against a 0.5 target — the
// k-th bad tick yields badFraction k/(5+k), hitting the 0.5 budget
// exactly at k=5.
func TestExactExhaustionInstant(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, availabilityCfg(0.5, 10, 1, 5), reg, nil)
	tick := func(code string) ObjectiveStatus {
		feed(reg, "/tune", code, 100, time.Millisecond)
		clock.Advance(time.Second)
		eng.Tick()
		return eng.Evaluate()[0]
	}
	for i := 0; i < 5; i++ {
		if st := tick("200"); st.BudgetRemaining != 1 {
			t.Fatalf("clean tick %d: remaining %v", i, st.BudgetRemaining)
		}
	}
	for k := 1; k <= 5; k++ {
		st := tick("500")
		want := 1 - (float64(k)/float64(5+k))/0.5
		if math.Abs(st.BudgetRemaining-want) > 1e-9 {
			t.Errorf("bad tick %d: remaining %v, want %v", k, st.BudgetRemaining, want)
		}
		if k < 5 && st.BudgetRemaining <= 0 {
			t.Errorf("bad tick %d: exhausted early (%v)", k, st.BudgetRemaining)
		}
	}
	if st := eng.Evaluate()[0]; math.Abs(st.BudgetRemaining) > 1e-9 {
		t.Errorf("exhaustion instant: remaining %v, want exactly 0", st.BudgetRemaining)
	}
}

// TestWindowRollover pins that a bad burst ages out of the budget
// window: once the ring advances past it, the budget fully restores.
func TestWindowRollover(t *testing.T) {
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, availabilityCfg(0.9, 4, 1, 2), reg, nil)
	feed(reg, "/tune", "500", 100, time.Millisecond)
	clock.Advance(time.Second)
	eng.Tick()
	if st := eng.Evaluate()[0]; st.BudgetRemaining >= 0 {
		t.Fatalf("after pure-bad tick: remaining %v, want deeply negative", st.BudgetRemaining)
	}
	// Four clean ticks roll the burst out of the 4s window.
	for i := 0; i < 4; i++ {
		feed(reg, "/tune", "200", 100, time.Millisecond)
		clock.Advance(time.Second)
		eng.Tick()
	}
	st := eng.Evaluate()[0]
	if st.BudgetRemaining != 1 {
		t.Errorf("after rollover: remaining %v, want 1", st.BudgetRemaining)
	}
	if st.Windows[WinBudget].Bad != 0 {
		t.Errorf("after rollover: %v bad events still in window", st.Windows[WinBudget].Bad)
	}
}

// scriptedSource scripts Gather replies directly, bypassing the
// registry — the only way to simulate a cumulative counter going
// backwards (a process restart behind the same scrape identity).
type scriptedSource struct {
	mu       sync.Mutex
	counters []metrics.CounterPoint
	hists    []metrics.HistogramPoint
}

func (s *scriptedSource) Gather() ([]metrics.CounterPoint, []metrics.HistogramPoint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]metrics.CounterPoint(nil), s.counters...), append([]metrics.HistogramPoint(nil), s.hists...)
}

func (s *scriptedSource) set(good, bad uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters = []metrics.CounterPoint{
		{Name: "reqs", Labels: metrics.Labels{"endpoint": "/tune", "code": "200"}, Value: good},
		{Name: "reqs", Labels: metrics.Labels{"endpoint": "/tune", "code": "500"}, Value: bad},
	}
}

// TestCounterResetTolerance pins restart behavior: when a cumulative
// counter drops, the new value is the delta — no underflow, no huge
// spurious burn.
func TestCounterResetTolerance(t *testing.T) {
	src := &scriptedSource{}
	clock := newFakeClock()
	eng, err := NewEngine(availabilityCfg(0.9, 10, 1, 5), src, Options{
		Clock: clock, CounterFamily: "reqs", HistFamily: "lat",
	})
	if err != nil {
		t.Fatal(err)
	}
	src.set(1000, 0)
	clock.Advance(time.Second)
	eng.Tick()
	// Restart: cumulative counters fall back, then grow again.
	src.set(40, 2)
	clock.Advance(time.Second)
	eng.Tick()
	st := eng.Evaluate()[0]
	total := st.Windows[WinBudget].Good + st.Windows[WinBudget].Bad
	if total != 1042 {
		t.Errorf("window total %v, want 1042 (1000 pre-reset + 42 post)", total)
	}
	if st.Windows[WinBudget].Bad != 2 {
		t.Errorf("window bad %v, want 2", st.Windows[WinBudget].Bad)
	}
}

// TestAlertHysteresis drives a page and pins that one boundary-
// straddling window cannot flap the alert: exactly one ok→page and one
// page→ok transition, the latter only after ClearEvals clean ticks.
func TestAlertHysteresis(t *testing.T) {
	var (
		transMu sync.Mutex
		trans   []Transition
	)
	hook := func(tr Transition) {
		transMu.Lock()
		trans = append(trans, tr)
		transMu.Unlock()
	}
	cfg := Config{
		IntervalMs: 1000,
		ClearEvals: 3,
		Objectives: []Objective{{
			Name: "avail", Type: TypeAvailability, Target: 0.99,
			WindowS: 10, FastS: 1, ConfirmS: 2, FastBurn: 10, SlowBurn: 30,
		}},
	}
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, cfg, reg, hook)
	tick := func(good, bad int) string {
		feed(reg, "/tune", "200", good, time.Millisecond)
		if bad > 0 {
			feed(reg, "/tune", "500", bad, time.Millisecond)
		}
		clock.Advance(time.Second)
		eng.Tick()
		return eng.Evaluate()[0].State
	}
	tick(100, 0)
	// Heavy burn: fast (1 tick) and confirm (2 ticks) both far above
	// FastBurn=10 (badFraction 0.5 / budget 0.01 = burn 50).
	if got := tick(50, 50); got != StatePage {
		t.Fatalf("after first bad tick: state %q, want page (fast burn 50, confirm burn 25, both above 10)", got)
	}
	_ = tick(50, 50)
	if got := eng.Evaluate()[0].State; got != StatePage {
		t.Fatalf("second bad tick: state %q, want page", got)
	}
	// Boundary straddle: clean ticks, but the confirm window still
	// holds one bad tick — the state must hold page, not flap.
	states := []string{}
	for i := 0; i < 4; i++ {
		states = append(states, tick(100, 0))
	}
	// ClearEvals=3: first clean evals hold page, the third resolves.
	if states[0] != StatePage || states[1] != StatePage {
		t.Errorf("hysteresis: states %v, want page to hold for 2 clean ticks", states)
	}
	if states[2] != StateOK {
		t.Errorf("hysteresis: states %v, want resolve on the 3rd clean tick", states)
	}
	transMu.Lock()
	defer transMu.Unlock()
	if len(trans) != 2 {
		t.Fatalf("transitions %+v, want exactly [ok→page, page→ok]", trans)
	}
	if trans[0].From != StateOK || trans[0].To != StatePage {
		t.Errorf("first transition %+v", trans[0])
	}
	if trans[1].From != StatePage || trans[1].To != StateOK {
		t.Errorf("second transition %+v", trans[1])
	}
}

// TestSlowBurnWarning pins the warning path: a sustained moderate burn
// trips confirm+budget without ever paging.
func TestSlowBurnWarning(t *testing.T) {
	var trans []Transition
	cfg := Config{
		IntervalMs: 1000,
		Objectives: []Objective{{
			Name: "avail", Type: TypeAvailability, Target: 0.99,
			WindowS: 10, FastS: 1, ConfirmS: 3, FastBurn: 14, SlowBurn: 3,
		}},
	}
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, cfg, reg, func(tr Transition) { trans = append(trans, tr) })
	// 5% bad: burn 5 — above SlowBurn=3, below FastBurn=14.
	for i := 0; i < 5; i++ {
		feed(reg, "/tune", "200", 95, time.Millisecond)
		feed(reg, "/tune", "500", 5, time.Millisecond)
		clock.Advance(time.Second)
		eng.Tick()
	}
	st := eng.Evaluate()[0]
	if st.State != StateWarning {
		t.Fatalf("state %q, want warning (burnSlow %v)", st.State, st.BurnSlow)
	}
	if len(trans) != 1 || trans[0].To != StateWarning {
		t.Errorf("transitions %+v, want one ok→warning", trans)
	}
}

// TestLatencyObjective pins the bucket-split bad counting and the p99 /
// exemplar surfacing.
func TestLatencyObjective(t *testing.T) {
	cfg := Config{
		IntervalMs: 1000,
		Objectives: []Objective{{
			Name: "p99", Type: TypeLatency, Target: 0.9, Bound: 100, // 100ms
			WindowS: 10, FastS: 1, ConfirmS: 5,
		}},
	}
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, cfg, reg, nil)
	h := reg.Histogram("lat", metrics.Labels{"endpoint": "/tune"})
	reg.Counter("reqs", metrics.Labels{"endpoint": "/tune", "code": "200"}).Add(100)
	for i := 0; i < 80; i++ {
		h.Observe(10 * time.Millisecond) // well under the bound
	}
	for i := 0; i < 20; i++ {
		h.ObserveTrace(500*time.Millisecond, "trace-slow") // breaching
	}
	clock.Advance(time.Second)
	eng.Tick()
	st := eng.Evaluate()[0]
	bad := st.Windows[WinBudget].Bad
	if bad < 19.9 || bad > 20.1 {
		t.Errorf("bad events %v, want ~20 (the breaching fifth)", bad)
	}
	// 20% above 100ms with a 10% budget: burn 2, half the budget gone.
	if math.Abs(st.BudgetRemaining-(-1)) > 0.02 {
		t.Errorf("budgetRemaining %v, want ~-1 (badFrac 0.2 / budget 0.1)", st.BudgetRemaining)
	}
	if st.P99Ms < 100 || st.P99Ms > 820 {
		t.Errorf("p99 %vms, want within the breaching bucket range", st.P99Ms)
	}
	if st.ExemplarTrace != "trace-slow" {
		t.Errorf("exemplar %q, want the slow bucket's trace id", st.ExemplarTrace)
	}
	if st.LatencyBuckets == nil {
		t.Error("latency buckets not exported for fleet merging")
	}
}

// TestQueueDepthObjective pins gauge-sampled saturation objectives.
func TestQueueDepthObjective(t *testing.T) {
	depth := 0.0
	cfg := Config{
		IntervalMs: 1000,
		Objectives: []Objective{{
			Name: "queue", Type: TypeQueueDepth, Target: 0.5, Bound: 8,
			WindowS: 4, FastS: 1, ConfirmS: 2,
		}},
	}
	clock := newFakeClock()
	eng, err := NewEngine(cfg, metrics.NewRegistry(), Options{
		Clock: clock, CounterFamily: "reqs", HistFamily: "lat",
		QueueDepth: func() float64 { return depth },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{2, 12, 12, 2} { // 2 of 4 ticks over bound 8
		depth = d
		clock.Advance(time.Second)
		eng.Tick()
	}
	st := eng.Evaluate()[0]
	if st.Windows[WinBudget].Bad != 2 || st.Windows[WinBudget].Good != 2 {
		t.Fatalf("queue tallies good=%v bad=%v, want 2/2", st.Windows[WinBudget].Good, st.Windows[WinBudget].Bad)
	}
	// badFraction 0.5 exactly spends the 0.5 budget.
	if math.Abs(st.BudgetRemaining) > 1e-9 {
		t.Errorf("budgetRemaining %v, want exactly 0", st.BudgetRemaining)
	}
}

// TestEndpointFilter pins that an endpoint-scoped objective ignores
// other endpoints' traffic.
func TestEndpointFilter(t *testing.T) {
	cfg := Config{
		IntervalMs: 1000,
		Objectives: []Objective{{
			Name: "tune-avail", Type: TypeAvailability, Target: 0.9, Endpoint: "/tune",
			WindowS: 10, FastS: 1, ConfirmS: 5,
		}},
	}
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, cfg, reg, nil)
	feed(reg, "/tune", "200", 100, time.Millisecond)
	feed(reg, "/simulate", "500", 100, time.Millisecond) // must not count
	clock.Advance(time.Second)
	eng.Tick()
	st := eng.Evaluate()[0]
	if st.Windows[WinBudget].Bad != 0 || st.Windows[WinBudget].Good != 100 {
		t.Errorf("filtered tallies good=%v bad=%v, want 100/0", st.Windows[WinBudget].Good, st.Windows[WinBudget].Bad)
	}
}

// TestAvailabilityExcludes429 pins the declared semantics: shed load is
// neither good nor bad for availability, but is bad for rate429.
func TestAvailabilityExcludes429(t *testing.T) {
	cfg := Config{
		IntervalMs: 1000,
		Objectives: []Objective{
			{Name: "avail", Type: TypeAvailability, Target: 0.9, WindowS: 10, FastS: 1, ConfirmS: 5},
			{Name: "shed", Type: TypeRate429, Target: 0.5, WindowS: 10, FastS: 1, ConfirmS: 5},
		},
	}
	reg := metrics.NewRegistry()
	eng, clock := testEngine(t, cfg, reg, nil)
	feed(reg, "/tune", "200", 60, time.Millisecond)
	feed(reg, "/tune", "429", 40, time.Millisecond)
	clock.Advance(time.Second)
	eng.Tick()
	sts := eng.Evaluate()
	if av := sts[0]; av.Windows[WinBudget].Good != 60 || av.Windows[WinBudget].Bad != 0 {
		t.Errorf("availability good=%v bad=%v, want 60/0 (429s excluded)", av.Windows[WinBudget].Good, av.Windows[WinBudget].Bad)
	}
	if sh := sts[1]; sh.Windows[WinBudget].Bad != 40 || sh.Windows[WinBudget].Good != 60 {
		t.Errorf("rate429 good=%v bad=%v, want 60/40", sh.Windows[WinBudget].Good, sh.Windows[WinBudget].Bad)
	}
}

// TestEvaluateZeroAlloc pins the steady-state evaluation path at zero
// allocations — the property BenchmarkSLOEvaluate gates in CI.
func TestEvaluateZeroAlloc(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := Config{
		IntervalMs: 1000,
		Objectives: []Objective{
			{Name: "avail", Type: TypeAvailability, Target: 0.999, WindowS: 60},
			{Name: "p99", Type: TypeLatency, Target: 0.99, Bound: 250, WindowS: 60},
			{Name: "shed", Type: TypeRate429, Target: 0.99, WindowS: 60},
			{Name: "queue", Type: TypeQueueDepth, Target: 0.95, Bound: 64, WindowS: 60},
		},
	}
	clock := newFakeClock()
	eng, err := NewEngine(cfg, reg, Options{
		Clock: clock, CounterFamily: "reqs", HistFamily: "lat",
		QueueDepth: func() float64 { return 3 },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		feed(reg, "/tune", "200", 50, 5*time.Millisecond)
		feed(reg, "/simulate", "200", 20, 40*time.Millisecond)
		feed(reg, "/tune", "500", 1, 400*time.Millisecond)
		feed(reg, "/jobs", "429", 2, time.Millisecond)
		clock.Advance(time.Second)
		eng.Tick()
	}
	if allocs := testing.AllocsPerRun(200, func() { eng.Evaluate() }); allocs != 0 {
		t.Errorf("Evaluate: %v allocs/op, want 0", allocs)
	}
}

// TestConfigValidation pins spec rejection and default fill-in.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Objectives: nil},
		{Objectives: []Objective{{Name: "", Type: TypeAvailability, Target: 0.9}}},
		{Objectives: []Objective{{Name: "x", Type: "bogus", Target: 0.9}}},
		{Objectives: []Objective{{Name: "x", Type: TypeAvailability, Target: 1.5}}},
		{Objectives: []Objective{{Name: "x", Type: TypeLatency, Target: 0.9}}}, // no bound
		{Objectives: []Objective{
			{Name: "x", Type: TypeAvailability, Target: 0.9},
			{Name: "x", Type: TypeAvailability, Target: 0.9},
		}},
		{IntervalMs: 10, Objectives: []Objective{{Name: "x", Type: TypeAvailability, Target: 0.9, WindowS: 3600}}}, // ring blowup
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: bad config validated", i)
		}
	}
	good := Config{Objectives: []Objective{{Name: "x", Type: TypeAvailability, Target: 0.999}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	o := good.Objectives[0]
	if good.IntervalMs != DefaultIntervalMs || o.WindowS != DefaultWindowS ||
		o.FastS != DefaultFastS || o.ConfirmS != DefaultConfirmS ||
		o.FastBurn != DefaultFastBurn || o.SlowBurn != DefaultSlowBurn {
		t.Errorf("defaults not applied: %+v", o)
	}
}
