// Package pilot is the SLO-driven autoscaling and self-healing
// controller that closes the loop PR 9's sensing opened: it converts
// fleet signals — tick-cached SLO verdicts, queue depth, 429 shed rate,
// and per-member health — into membership actions against a warm-standby
// pool: scale-up (propose-join a standby on a fast-burn page or
// sustained saturation), scale-down (drain the least-loaded borrowed
// standby once the budget has been fully healthy for a cooldown window),
// and self-healing (auto-drain a member that stays suspect/down past a
// threshold so the rebalancer restores the replication factor).
//
// The controller is a guarded state machine, not a PID loop: hysteresis
// streaks gate every trigger, each action kind has a cooldown, a
// max-actions-per-window rate limit bounds total churn, and a dry-run
// mode records decisions without actuating them. Every decision —
// executed or vetoed — is returned to the caller, which lands it on the
// cluster event timeline and /metrics.
//
// Determinism is the design constraint (mistlint's nodeterm check
// enforces it): the package never reads the wall clock or ambient
// randomness. Time enters only through the injected clock.Clock, and
// Evaluate is a pure function of (clock, inputs, accumulated state), so
// simulation tests reproduce exact decision instants on a virtual
// clock. Actuation (HTTP join/drain proposals) lives in the serving
// layer behind the Decision values this package emits.
package pilot

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
)

// ActionKind names one actuator the controller can pull.
type ActionKind string

// The three actions. ScaleDown and HealDrain both end in a drain
// proposal but are distinct decisions: scale-down returns borrowed
// standby capacity, heal-drain declares a corpse's loss permanent.
const (
	ScaleUp   ActionKind = "scale-up"
	ScaleDown ActionKind = "scale-down"
	HealDrain ActionKind = "heal-drain"
)

// Decision is one controller output. A Decision with a non-empty Veto
// is advisory — a guard suppressed the action — and must not be
// actuated; everything else is a committed decision the caller
// executes (or, in dry-run, records only).
type Decision struct {
	Action ActionKind `json:"action"`
	// Target is the member acted on: the standby to join for ScaleUp,
	// the member to drain otherwise.
	Target string `json:"target"`
	// Reason is the trigger, e.g. "slo page" or "queue depth 112 >= 64
	// for 2 evals".
	Reason string `json:"reason"`
	// Veto, when non-empty, names the guard that suppressed the action
	// ("cooldown", "rate-limit", "no-standby", "min-nodes").
	Veto string `json:"veto,omitempty"`
	// At is the decision instant on the controller's clock.
	At time.Time `json:"at"`
}

// MemberState is one member's per-tick signal snapshot.
type MemberState struct {
	ID   string
	Self bool
	// Health is this node's local view of the member.
	Health cluster.Health
	// Standby marks borrowed capacity: the member belongs to the
	// configured standby pool, so scale-down may return it.
	Standby bool
	// Load is a comparable load proxy (the serving layer supplies ring
	// ownership share); scale-down picks the least-loaded candidate.
	Load float64
}

// Inputs is one tick's snapshot of every signal the controller reads.
// The caller assembles it from the SLO engine's tick-cached statuses,
// the admission gates, and the cluster's health table.
type Inputs struct {
	// Paging is true when any SLO objective is in the page state
	// (fast+confirm burn above FastBurn) — scale-up fires immediately,
	// bypassing the saturation streak.
	Paging bool
	// Warning is true when any objective is in the warning state; it
	// blocks scale-down but does not trigger scale-up by itself.
	Warning bool
	// AllOK is true when every objective is OK (vacuously true with no
	// SLO engine attached).
	AllOK bool
	// QueueDepth is waiting admissions plus queued jobs.
	QueueDepth float64
	// Rate429 is the shed fraction over the SLO fast window (0 when no
	// rate429 objective is configured).
	Rate429 float64
	// Members is the current membership with health and load, in a
	// deterministic (view) order.
	Members []MemberState
	// Standbys are the pool members not currently in the view,
	// available to join.
	Standbys []cluster.Member
}

// Pilot is the controller state machine. One instance runs per node;
// the serving layer gates actuation on leadership (lowest live member
// id) so a fleet of pilots yields one actor.
type Pilot struct {
	mu  sync.Mutex
	cfg Config
	clk clock.Clock

	satStreak     int            // consecutive saturated ticks
	healthyStreak int            // consecutive fully-healthy ticks
	unhealthy     map[string]int // consecutive suspect/down ticks per member
	lastAction    map[ActionKind]time.Time
	window        []time.Time           // executed-action instants inside the rate window
	lastVeto      map[ActionKind]string // last emitted veto reason, to de-spam the timeline
	counts        map[ActionKind]uint64 // executed actions per kind
	vetoes        uint64
	evals         uint64
	scratch       []Decision // returned by Evaluate, reused across ticks
	recent        [recentCap]Decision
	recentLen     int
	recentNext    int
}

// recentCap bounds the decision history served at GET /pilot.
const recentCap = 32

// New builds a controller with a validated copy of cfg. A nil clock
// defaults to clock.System.
func New(cfg Config, clk clock.Clock) (*Pilot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if clk == nil {
		clk = clock.System
	}
	return &Pilot{
		cfg:        cfg,
		clk:        clk,
		unhealthy:  map[string]int{},
		lastAction: map[ActionKind]time.Time{},
		lastVeto:   map[ActionKind]string{},
		counts:     map[ActionKind]uint64{},
	}, nil
}

// Config returns the validated policy.
func (p *Pilot) Config() Config {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cfg
}

// Evaluate runs one tick of the state machine over a signal snapshot
// and returns the decisions made, oldest guard first: committed
// decisions (Veto == "") are already accounted against cooldowns and
// the rate window and must be actuated by the caller (unless dry-run);
// vetoed decisions are advisory. At most one decision per tick is
// committed — heal-drain outranks scale-up outranks scale-down.
//
// The returned slice is reused by the next Evaluate call; callers must
// not retain it. Steady-state ticks allocate nothing.
func (p *Pilot) Evaluate(in Inputs) []Decision {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.clk.Now()
	p.evals++
	p.scratch = p.scratch[:0]

	// Advance the hysteresis streaks first: they accumulate every tick
	// regardless of guards, so a cooldown never hides demand.
	saturated := in.QueueDepth >= p.cfg.SaturationQueue || in.Rate429 >= p.cfg.Saturation429
	if saturated {
		p.satStreak++
	} else {
		p.satStreak = 0
	}
	healthy := in.AllOK && !in.Paging && !in.Warning && !saturated
	if healthy {
		p.healthyStreak++
	} else {
		p.healthyStreak = 0
	}
	for i := range in.Members {
		m := &in.Members[i]
		if m.Self {
			continue
		}
		if m.Health == cluster.Ok {
			delete(p.unhealthy, m.ID)
		} else {
			p.unhealthy[m.ID]++
		}
	}
	// Members that left the view stop accumulating (their counter is
	// deleted so a rejoin starts clean).
	for id := range p.unhealthy {
		present := false
		for i := range in.Members {
			if in.Members[i].ID == id {
				present = true
				break
			}
		}
		if !present {
			delete(p.unhealthy, id)
		}
	}
	p.pruneWindow(now)

	acted := false

	// 1. Self-healing: a member stuck suspect/down past the threshold
	// is drained so the rebalancer restores R among survivors. View
	// order keeps multi-corpse ticks deterministic.
	for i := range in.Members {
		m := &in.Members[i]
		if m.Self || p.unhealthy[m.ID] < p.cfg.UnhealthyEvals {
			continue
		}
		reason := fmt.Sprintf("member %s %s for %d evals", m.ID, m.Health.String(), p.unhealthy[m.ID])
		if len(in.Members)-1 < p.cfg.MinNodes {
			p.veto(now, HealDrain, m.ID, reason, "min-nodes")
			continue
		}
		if veto := p.guard(now, HealDrain); veto != "" {
			p.veto(now, HealDrain, m.ID, reason, veto)
			continue
		}
		p.commit(now, HealDrain, m.ID, reason)
		// The drain will remove it from the view; reset the streak so a
		// failed actuation re-accumulates instead of re-firing next tick.
		delete(p.unhealthy, m.ID)
		acted = true
		break
	}

	// 2. Scale-up: a page fires immediately; saturation needs its
	// streak. The first available standby (configured pool order) is
	// the target.
	if !acted {
		var reason string
		switch {
		case in.Paging:
			reason = "slo page"
		case p.satStreak >= p.cfg.SaturationEvals:
			reason = fmt.Sprintf("saturated for %d evals (queue %.0f, 429 rate %.2f)", p.satStreak, in.QueueDepth, in.Rate429)
		}
		if reason != "" {
			switch {
			case len(in.Standbys) == 0:
				p.veto(now, ScaleUp, "", reason, "no-standby")
			default:
				if veto := p.guard(now, ScaleUp); veto != "" {
					p.veto(now, ScaleUp, in.Standbys[0].ID, reason, veto)
				} else {
					p.commit(now, ScaleUp, in.Standbys[0].ID, reason)
					// Joining capacity answers the demand; restart the
					// streak so the next scale-up needs fresh evidence.
					p.satStreak = 0
					acted = true
				}
			}
		}
	}

	// 3. Scale-down: only borrowed standbys are returned, least-loaded
	// first, and only after a full healthy streak. The static fleet is
	// never shrunk.
	if !acted && p.healthyStreak >= p.cfg.HealthyEvals {
		idx := -1
		for i := range in.Members {
			m := &in.Members[i]
			if m.Self || !m.Standby || m.Health != cluster.Ok {
				continue
			}
			if idx < 0 || m.Load < in.Members[idx].Load {
				idx = i
			}
		}
		if idx >= 0 {
			m := &in.Members[idx]
			reason := fmt.Sprintf("healthy for %d evals, returning standby (share %.2f)", p.healthyStreak, m.Load)
			switch {
			case len(in.Members)-1 < p.cfg.MinNodes:
				p.veto(now, ScaleDown, m.ID, reason, "min-nodes")
			default:
				if veto := p.guard(now, ScaleDown); veto != "" {
					p.veto(now, ScaleDown, m.ID, reason, veto)
				} else {
					p.commit(now, ScaleDown, m.ID, reason)
					// One standby per healthy window: the streak restarts
					// so the fleet settles between drains.
					p.healthyStreak = 0
				}
			}
		}
	}

	return p.scratch
}

// guard checks the cooldown and rate-limit gates for one action kind.
// It returns the veto reason, or "" when the action may fire.
func (p *Pilot) guard(now time.Time, kind ActionKind) string {
	if last, ok := p.lastAction[kind]; ok && now.Sub(last) < p.cfg.Cooldown() {
		return "cooldown"
	}
	if len(p.window) >= p.cfg.MaxActionsPerWindow {
		return "rate-limit"
	}
	return ""
}

// commit records an executed decision: cooldown stamped, rate window
// charged, counters bumped. Committed decisions are charged even in
// dry-run so the rehearsal timeline matches what the live controller
// would have done.
func (p *Pilot) commit(now time.Time, kind ActionKind, target, reason string) {
	d := Decision{Action: kind, Target: target, Reason: reason, At: now}
	p.scratch = append(p.scratch, d)
	p.lastAction[kind] = now
	p.window = append(p.window, now)
	p.counts[kind]++
	p.lastVeto[kind] = ""
	p.remember(d)
}

// veto records a suppressed decision. Consecutive identical vetoes for
// the same action kind are emitted once — the condition persisting is
// not news — and re-emitted when the reason changes or after an
// execution resets it.
func (p *Pilot) veto(now time.Time, kind ActionKind, target, reason, veto string) {
	if p.lastVeto[kind] == veto {
		return
	}
	p.lastVeto[kind] = veto
	d := Decision{Action: kind, Target: target, Reason: reason, Veto: veto, At: now}
	p.scratch = append(p.scratch, d)
	p.vetoes++
	p.remember(d)
}

// pruneWindow drops rate-window charges older than WindowS, in place.
func (p *Pilot) pruneWindow(now time.Time) {
	cutoff := now.Add(-p.cfg.Window())
	keep := p.window[:0]
	for _, t := range p.window {
		if t.After(cutoff) {
			keep = append(keep, t)
		}
	}
	p.window = keep
}

// remember appends a decision to the bounded history ring.
func (p *Pilot) remember(d Decision) {
	p.recent[p.recentNext] = d
	p.recentNext = (p.recentNext + 1) % recentCap
	if p.recentLen < recentCap {
		p.recentLen++
	}
}

// Status is the controller's introspection snapshot, served at
// GET /pilot.
type Status struct {
	DryRun          bool           `json:"dryRun"`
	Config          Config         `json:"config"`
	Evals           uint64         `json:"evals"`
	ScaleUps        uint64         `json:"scaleUps"`
	ScaleDowns      uint64         `json:"scaleDowns"`
	HealDrains      uint64         `json:"healDrains"`
	Vetoes          uint64         `json:"vetoes"`
	SaturatedStreak int            `json:"saturatedStreak"`
	HealthyStreak   int            `json:"healthyStreak"`
	Unhealthy       map[string]int `json:"unhealthy,omitempty"`
	ActionsInWindow int            `json:"actionsInWindow"`
	Recent          []Decision     `json:"recent,omitempty"`
}

// Status snapshots the controller for the HTTP surface. The decision
// history is returned oldest first.
func (p *Pilot) Status() Status {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Status{
		DryRun:          p.cfg.DryRun,
		Config:          p.cfg,
		Evals:           p.evals,
		ScaleUps:        p.counts[ScaleUp],
		ScaleDowns:      p.counts[ScaleDown],
		HealDrains:      p.counts[HealDrain],
		Vetoes:          p.vetoes,
		SaturatedStreak: p.satStreak,
		HealthyStreak:   p.healthyStreak,
		ActionsInWindow: len(p.window),
	}
	if len(p.unhealthy) > 0 {
		st.Unhealthy = make(map[string]int, len(p.unhealthy))
		for id, n := range p.unhealthy {
			st.Unhealthy[id] = n
		}
	}
	if p.recentLen > 0 {
		st.Recent = make([]Decision, 0, p.recentLen)
		start := (p.recentNext - p.recentLen + recentCap) % recentCap
		for i := 0; i < p.recentLen; i++ {
			st.Recent = append(st.Recent, p.recent[(start+i)%recentCap])
		}
	}
	return st
}

// Counts returns the executed-action counters (for /metrics gauges).
func (p *Pilot) Counts() (scaleUps, scaleDowns, healDrains, vetoes uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.counts[ScaleUp], p.counts[ScaleDown], p.counts[HealDrain], p.vetoes
}
