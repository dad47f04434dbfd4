package pilot

import (
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
)

// Every simulation test drives a clock.Fake from the same epoch:
// decisions are asserted at exact instants, which is the point — the
// controller must be a pure function of (clock, inputs, state).
func newFakeClock() *clock.Fake                   { return clock.NewFake(time.Unix(1_000_000, 0).UTC()) }
func at(c *clock.Fake, d time.Duration) time.Time { return time.Unix(1_000_000, 0).UTC().Add(d) }

func testConfig() Config {
	return Config{
		IntervalMs:          1000,
		SaturationQueue:     10,
		Saturation429:       0.5,
		SaturationEvals:     2,
		HealthyEvals:        3,
		UnhealthyEvals:      2,
		CooldownS:           5,
		MaxActionsPerWindow: 3,
		WindowS:             60,
		MinNodes:            2,
	}
}

func fleet(standbyJoined bool) []MemberState {
	ms := []MemberState{
		{ID: "n1", Self: true, Health: cluster.Ok, Load: 0.34},
		{ID: "n2", Health: cluster.Ok, Load: 0.33},
		{ID: "n3", Health: cluster.Ok, Load: 0.33},
	}
	if standbyJoined {
		ms = append(ms, MemberState{ID: "s1", Health: cluster.Ok, Standby: true, Load: 0.25})
	}
	return ms
}

func pool() []cluster.Member {
	return []cluster.Member{{ID: "s1", Addr: "http://s1"}, {ID: "s2", Addr: "http://s2"}}
}

func healthyInputs(members []MemberState, standbys []cluster.Member) Inputs {
	return Inputs{AllOK: true, Members: members, Standbys: standbys}
}

// tick advances virtual time by one interval and evaluates.
func tick(p *Pilot, clk *clock.Fake, in Inputs) []Decision {
	clk.Advance(time.Second)
	return p.Evaluate(in)
}

func mustPilot(t *testing.T, cfg Config, clk clock.Clock) *Pilot {
	t.Helper()
	p, err := New(cfg, clk)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func committed(ds []Decision) []Decision {
	var out []Decision
	for _, d := range ds {
		if d.Veto == "" {
			out = append(out, d)
		}
	}
	return out
}

// TestScaleUpExactInstant pins the decision instant: saturation must
// persist for exactly SaturationEvals ticks, and the scale-up fires on
// the tick the streak is met — not one earlier, not one later.
func TestScaleUpExactInstant(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)

	saturated := healthyInputs(fleet(false), pool())
	saturated.AllOK = false
	saturated.QueueDepth = 42 // >= 10

	if ds := tick(p, clk, saturated); len(committed(ds)) != 0 {
		t.Fatalf("tick 1 (streak 1 of 2): want no committed decision, got %+v", ds)
	}
	ds := committed(tick(p, clk, saturated))
	if len(ds) != 1 {
		t.Fatalf("tick 2: want exactly one decision, got %+v", ds)
	}
	d := ds[0]
	if d.Action != ScaleUp || d.Target != "s1" {
		t.Fatalf("want scale-up of s1, got %+v", d)
	}
	if want := at(clk, 2*time.Second); !d.At.Equal(want) {
		t.Fatalf("decision instant: want %v, got %v", want, d.At)
	}
}

// TestPageBypassesSaturationStreak: a fast-burn page scales up on the
// very first tick — the budget is burning too fast to wait out
// hysteresis.
func TestPageBypassesSaturationStreak(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)

	paging := healthyInputs(fleet(false), pool())
	paging.AllOK, paging.Paging = false, true

	ds := committed(tick(p, clk, paging))
	if len(ds) != 1 || ds[0].Action != ScaleUp || ds[0].Reason != "slo page" {
		t.Fatalf("want immediate scale-up on page, got %+v", ds)
	}
	if want := at(clk, time.Second); !ds[0].At.Equal(want) {
		t.Fatalf("decision instant: want %v, got %v", want, ds[0].At)
	}
}

// TestCooldownEnforced: with the page persisting, the second scale-up
// waits out the full cooldown and fires on the first tick past it, at
// the exact expected instant. The intermediate suppression surfaces as
// a single deduplicated veto.
func TestCooldownEnforced(t *testing.T) {
	cfg := testConfig()
	clk := newFakeClock()
	p := mustPilot(t, cfg, clk)

	paging := healthyInputs(fleet(false), pool())
	paging.AllOK, paging.Paging = false, true

	first := committed(tick(p, clk, paging))
	if len(first) != 1 {
		t.Fatalf("want first scale-up, got %+v", first)
	}
	firstAt := first[0].At
	// s1 joined; the remaining pool is s2 (the serving layer derives
	// this from the membership view each tick).
	paging.Standbys = pool()[1:]

	var vetoes []Decision
	var second []Decision
	for i := 0; i < 10 && len(second) == 0; i++ {
		ds := tick(p, clk, paging)
		for _, d := range ds {
			if d.Veto != "" {
				vetoes = append(vetoes, d)
			}
		}
		second = committed(ds)
	}
	if len(second) != 1 {
		t.Fatalf("second scale-up never fired")
	}
	gap := second[0].At.Sub(firstAt)
	if want := time.Duration(cfg.CooldownS) * time.Second; gap != want {
		t.Fatalf("second action after %v, want exactly the %v cooldown", gap, want)
	}
	if second[0].Target != "s2" {
		t.Fatalf("second scale-up should take the next pool standby, got %+v", second[0])
	}
	if len(vetoes) != 1 || vetoes[0].Veto != "cooldown" {
		t.Fatalf("cooldown suppression should surface as exactly one veto, got %+v", vetoes)
	}
}

// TestRateLimitWindow: MaxActionsPerWindow executed actions saturate
// the window; the next trigger is vetoed "rate-limit" until the window
// slides past the oldest charge.
func TestRateLimitWindow(t *testing.T) {
	cfg := testConfig()
	cfg.CooldownS = 1
	cfg.MaxActionsPerWindow = 2
	cfg.WindowS = 30
	clk := newFakeClock()
	p := mustPilot(t, cfg, clk)

	paging := healthyInputs(fleet(false), []cluster.Member{
		{ID: "s1"}, {ID: "s2"}, {ID: "s3"},
	})
	paging.AllOK, paging.Paging = false, true

	var executed, rateLimited int
	for i := 0; i < 25; i++ {
		for _, d := range tick(p, clk, paging) {
			switch {
			case d.Veto == "":
				executed++
			case d.Veto == "rate-limit":
				rateLimited++
			}
		}
	}
	if executed != 2 {
		t.Fatalf("window of 2 should cap executions at 2 inside 25s, got %d", executed)
	}
	if rateLimited == 0 {
		t.Fatal("rate-limit veto never surfaced")
	}
	// 31 ticks after the first action the window has slid past both
	// charges; the trigger persists, so the next action fires.
	for i := 0; i < 10; i++ {
		if len(committed(tick(p, clk, paging))) > 0 {
			return
		}
	}
	t.Fatal("rate limit never released after the window slid")
}

// TestNoFlappingUnderNoise: a noisy p99 that saturates every other tick
// never builds the streak, so 100 ticks produce zero actions — the
// hysteresis contract.
func TestNoFlappingUnderNoise(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)

	noisy := healthyInputs(fleet(true), pool()[1:])
	quiet := noisy
	noisy.AllOK = false
	noisy.QueueDepth = 99

	for i := 0; i < 100; i++ {
		in := quiet
		if i%2 == 0 {
			in = noisy
		}
		if ds := committed(tick(p, clk, in)); len(ds) != 0 {
			t.Fatalf("tick %d: flapped with %+v", i, ds)
		}
	}
	st := p.Status()
	if st.ScaleUps != 0 || st.ScaleDowns != 0 || st.HealDrains != 0 {
		t.Fatalf("noisy signal executed actions: %+v", st)
	}
}

// TestScaleDownReturnsLeastLoadedStandby: after exactly HealthyEvals
// healthy ticks the borrowed standby with the lowest load is drained;
// static members are never candidates.
func TestScaleDownReturnsLeastLoadedStandby(t *testing.T) {
	cfg := testConfig()
	clk := newFakeClock()
	p := mustPilot(t, cfg, clk)

	members := fleet(true) // includes s1, load 0.25
	members = append(members, MemberState{ID: "s2", Health: cluster.Ok, Standby: true, Load: 0.10})
	in := healthyInputs(members, nil)

	var ds []Decision
	ticks := 0
	for ticks < 10 {
		ticks++
		if ds = committed(tick(p, clk, in)); len(ds) > 0 {
			break
		}
	}
	if ticks != cfg.HealthyEvals {
		t.Fatalf("scale-down after %d ticks, want exactly %d", ticks, cfg.HealthyEvals)
	}
	if ds[0].Action != ScaleDown || ds[0].Target != "s2" {
		t.Fatalf("want scale-down of least-loaded standby s2, got %+v", ds[0])
	}
	if want := at(clk, time.Duration(cfg.HealthyEvals)*time.Second); !ds[0].At.Equal(want) {
		t.Fatalf("decision instant: want %v, got %v", want, ds[0].At)
	}
}

// TestScaleDownNeverShrinksStaticFleet: with no borrowed standby in the
// view, a fully healthy fleet is left alone forever.
func TestScaleDownNeverShrinksStaticFleet(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)
	in := healthyInputs(fleet(false), pool())
	for i := 0; i < 50; i++ {
		if ds := tick(p, clk, in); len(ds) != 0 {
			t.Fatalf("healthy static fleet produced decisions: %+v", ds)
		}
	}
}

// TestHealDrainExactInstant is the kill-drill at the decision level: a
// member stuck suspect/down fires a heal-drain on the exact tick the
// threshold is met, and the heal outranks a concurrent scale-up
// trigger.
func TestHealDrainExactInstant(t *testing.T) {
	cfg := testConfig()
	clk := newFakeClock()
	p := mustPilot(t, cfg, clk)

	in := healthyInputs(fleet(false), pool())
	in.Members[1].Health = cluster.Down // n2 is a corpse
	in.AllOK = false
	in.QueueDepth = 99 // scale-up pressure at the same time

	if ds := committed(tick(p, clk, in)); len(ds) != 0 {
		t.Fatalf("tick 1 (unhealthy streak 1 of 2): want nothing, got %+v", ds)
	}
	ds := committed(tick(p, clk, in))
	if len(ds) != 1 {
		t.Fatalf("tick 2: want exactly one decision, got %+v", ds)
	}
	if ds[0].Action != HealDrain || ds[0].Target != "n2" {
		t.Fatalf("want heal-drain of n2 outranking scale-up, got %+v", ds[0])
	}
	if want := at(clk, 2*time.Second); !ds[0].At.Equal(want) {
		t.Fatalf("decision instant: want %v, got %v", want, ds[0].At)
	}

	// The corpse gone from the view, the scale-up pressure is answered
	// next tick (cooldowns are per action kind).
	in.Members = append(in.Members[:1], in.Members[2:]...)
	ds = committed(tick(p, clk, in))
	if len(ds) != 1 || ds[0].Action != ScaleUp {
		t.Fatalf("tick 3: want the queued scale-up, got %+v", ds)
	}
}

// TestHealDrainMinNodesVeto: the membership floor blocks the heal and
// surfaces as a veto instead of a drain below MinNodes.
func TestHealDrainMinNodesVeto(t *testing.T) {
	cfg := testConfig()
	cfg.MinNodes = 2
	clk := newFakeClock()
	p := mustPilot(t, cfg, clk)

	in := Inputs{AllOK: true, Members: []MemberState{
		{ID: "n1", Self: true, Health: cluster.Ok},
		{ID: "n2", Health: cluster.Down},
	}}
	var sawVeto bool
	for i := 0; i < 5; i++ {
		for _, d := range tick(p, clk, in) {
			if d.Veto == "" {
				t.Fatalf("drain below MinNodes executed: %+v", d)
			}
			if d.Action == HealDrain && d.Veto == "min-nodes" {
				sawVeto = true
			}
		}
	}
	if !sawVeto {
		t.Fatal("min-nodes veto never surfaced")
	}
}

// TestNoStandbyVetoDeduplicated: a persisting no-standby condition is
// reported once, not every tick, and re-arms after an execution.
func TestNoStandbyVetoDeduplicated(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)

	paging := healthyInputs(fleet(false), nil)
	paging.AllOK, paging.Paging = false, true

	vetoes := 0
	for i := 0; i < 10; i++ {
		for _, d := range tick(p, clk, paging) {
			if d.Veto != "no-standby" {
				t.Fatalf("unexpected decision %+v", d)
			}
			vetoes++
		}
	}
	if vetoes != 1 {
		t.Fatalf("no-standby veto emitted %d times over 10 ticks, want 1", vetoes)
	}
}

// TestRejoinResetsUnhealthyStreak: a member that leaves the view and
// rejoins starts a fresh streak — stale counters must not drain a
// recovered node.
func TestRejoinResetsUnhealthyStreak(t *testing.T) {
	cfg := testConfig()
	cfg.UnhealthyEvals = 3
	clk := newFakeClock()
	p := mustPilot(t, cfg, clk)

	sick := healthyInputs(fleet(false), pool())
	sick.Members[1].Health = cluster.Suspect
	tick(p, clk, sick)
	tick(p, clk, sick) // streak 2 of 3

	// n2 drops out of the view for a tick, then rejoins suspect.
	gone := healthyInputs([]MemberState{sick.Members[0], sick.Members[2]}, pool())
	tick(p, clk, gone)

	ds := committed(tick(p, clk, sick)) // rejoined: streak must restart at 1
	if len(ds) != 0 {
		t.Fatalf("stale streak survived a leave/rejoin: %+v", ds)
	}
	if got := p.Status().Unhealthy["n2"]; got != 1 {
		t.Fatalf("rejoined member streak = %d, want 1", got)
	}
}

// TestDeterministicReplay: two controllers fed the same scripted input
// sequence on identical virtual clocks produce identical decision
// logs — the reproducibility contract the simulation harness rests on.
func TestDeterministicReplay(t *testing.T) {
	script := func(i int) Inputs {
		in := healthyInputs(fleet(i%7 < 3), pool())
		switch {
		case i%11 < 2:
			in.AllOK, in.Paging = false, true
		case i%5 < 2:
			in.AllOK = false
			in.QueueDepth = 50
		}
		if i%13 == 0 && len(in.Members) > 2 {
			in.Members[2].Health = cluster.Suspect
		}
		return in
	}
	run := func() []Decision {
		clk := newFakeClock()
		p := mustPilot(t, testConfig(), clk)
		var log []Decision
		for i := 0; i < 200; i++ {
			log = append(log, append([]Decision(nil), tick(p, clk, script(i))...)...)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	if len(a) == 0 {
		t.Fatal("script produced no decisions — vacuous replay")
	}
}

// TestStatusCounters: the introspection snapshot tallies what happened.
func TestStatusCounters(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)

	paging := healthyInputs(fleet(false), pool())
	paging.AllOK, paging.Paging = false, true
	tick(p, clk, paging) // scale-up s1
	tick(p, clk, paging) // cooldown veto

	st := p.Status()
	if st.ScaleUps != 1 || st.Vetoes != 1 || st.Evals != 2 {
		t.Fatalf("counters: %+v", st)
	}
	if len(st.Recent) != 2 {
		t.Fatalf("recent history: want 2 decisions, got %+v", st.Recent)
	}
	if st.Recent[0].Veto != "" || st.Recent[1].Veto == "" {
		t.Fatalf("recent history order: want executed then veto, got %+v", st.Recent)
	}
}

// TestEvaluateSteadyStateAllocs: the per-tick hot path must not
// allocate when nothing fires — the controller runs forever on every
// node.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	clk := newFakeClock()
	p := mustPilot(t, testConfig(), clk)
	in := healthyInputs(fleet(false), pool())
	tick(p, clk, in) // warm up maps
	allocs := testing.AllocsPerRun(100, func() {
		clk.Advance(time.Second)
		p.Evaluate(in)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Evaluate allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkPilotEvaluate pins the steady-state decision tick — the
// cost every node pays every interval (pinned in BENCH.json via the
// regression gate).
func BenchmarkPilotEvaluate(b *testing.B) {
	clk := newFakeClock()
	p, err := New(testConfig(), clk)
	if err != nil {
		b.Fatal(err)
	}
	in := healthyInputs(fleet(false), pool())
	p.Evaluate(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clk.Advance(time.Second)
		p.Evaluate(in)
	}
}
