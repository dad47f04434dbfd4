package serve

import (
	"context"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/pilot"
	"repro/internal/slo"
)

// This file wires the pilot controller through the serving layer:
// lifecycle (a background tick loop on the policy cadence), per-tick
// signal gathering (SLO tick-cache, admission gates, health table),
// actuation (join/drain proposals + view broadcast, reusing the elastic
// membership machinery), leadership gating, the GET /pilot surface, and
// mist_pilot_* gauges on /metrics.

// WithPilot attaches an autoscaling policy: the server runs the pilot
// control loop against its own fleet signals and serves controller
// state at GET /pilot. Requires cluster mode.
func WithPilot(cfg pilot.Config) Option {
	// Config is all scalars, so assignment deep-copies; Validate (in
	// initPilot) then fills defaults on this server's private copy even
	// though one Option value is applied to every LocalCluster node.
	return func(s *Server) { s.pilotCfg = &cfg }
}

// WithStandbyPool configures the warm-standby pool the pilot may
// scale into. The slice is copied.
func WithStandbyPool(pool []cluster.Member) Option {
	return func(s *Server) { s.standbys = append([]cluster.Member(nil), pool...) }
}

// initPilot builds the controller; called by New after cluster, jobs,
// and the SLO engine exist.
func (s *Server) initPilot() {
	if s.pilotCfg == nil {
		if len(s.standbys) > 0 && s.cluster != nil {
			// A standby pool without a pilot is still bookkept (the
			// operator can join manually; GET /cluster shows it).
			s.cluster.SetStandbys(s.standbys)
		}
		return
	}
	if s.cluster == nil {
		// mistserve validates this with a friendly error; reaching here
		// is an option-wiring bug.
		panic("serve: WithPilot requires cluster mode (WithCluster)")
	}
	p, err := pilot.New(*s.pilotCfg, s.clock)
	if err != nil {
		panic(fmt.Sprintf("serve: invalid pilot config reached New: %v", err))
	}
	s.pilot = p
	s.cluster.SetStandbys(s.standbys)
	s.registerPilotGauges()
	s.tickLoop(p.Config().Interval(), nil, s.PilotTick)
}

// PilotLeader reports whether this node is the acting controller: the
// lowest-id member it considers live. Every node evaluates the same
// deterministic rule, so a fleet of pilots yields one actor — and the
// controller fails over automatically when the leader dies.
func (s *Server) PilotLeader() bool {
	if s.cluster == nil {
		return false
	}
	self := s.cluster.Self()
	members := s.cluster.Members()
	// A parked standby's view is just itself; it must not control a
	// fleet it hasn't been admitted to.
	if s.cluster.IsStandby(self) && len(members) == 1 {
		return false
	}
	for _, m := range members {
		if m.ID < self && s.cluster.Health(m.ID) != cluster.Down {
			return false
		}
	}
	return true
}

// PilotTick runs one controller tick: gather signals, evaluate the
// state machine, actuate committed decisions, and land everything on
// the event timeline. Non-leaders skip entirely (their streaks would
// otherwise drift from the actor's). The tick loop calls it on the
// system clock; a test calls it by hand on a clock.Fake (see WithClock).
func (s *Server) PilotTick(ctx context.Context) {
	if s.pilot == nil || !s.PilotLeader() {
		return
	}
	for _, d := range s.pilot.Evaluate(s.pilotInputs()) {
		s.actuate(ctx, d)
	}
}

// pilotInputs assembles one tick's signal snapshot. SLO verdicts come
// from the engine's tick cache — a pilot tick never forces a
// re-evaluation.
func (s *Server) pilotInputs() pilot.Inputs {
	in := pilot.Inputs{AllOK: true}
	if s.sloEngine != nil {
		for _, o := range s.sloEngine.Config().Objectives {
			st, ok := s.sloEngine.CachedStatus(o.Name)
			if !ok {
				continue
			}
			switch st.State {
			case slo.StatePage:
				in.Paging = true
				in.AllOK = false
			case slo.StateWarning:
				in.Warning = true
				in.AllOK = false
			}
			if o.Type == slo.TypeRate429 {
				ws := st.Windows[slo.WinFast]
				if ws.BadFraction > in.Rate429 {
					in.Rate429 = ws.BadFraction
				}
			}
		}
	}
	js := s.jobs.Stats()
	in.QueueDepth = float64(int64(js.QueueDepth) + s.tuneGate.waiting.Load() + s.simulateGate.waiting.Load())

	self := s.cluster.Self()
	shares := s.cluster.Ring().OwnershipShare()
	for _, m := range s.cluster.Members() {
		in.Members = append(in.Members, pilot.MemberState{
			ID:      m.ID,
			Self:    m.ID == self,
			Health:  s.cluster.Health(m.ID),
			Standby: s.cluster.IsStandby(m.ID),
			Load:    shares[m.ID],
		})
	}
	in.Standbys = s.cluster.AvailableStandbys()
	return in
}

// actuate executes one committed decision — or records why it didn't
// (veto, dry-run, actuation failure). Every path lands on the cluster
// event timeline, so the operator sees proposals, executions, and
// suppressions interleaved with the health and rebalance events they
// reacted to.
func (s *Server) actuate(ctx context.Context, d pilot.Decision) {
	if d.Veto != "" {
		s.cluster.RecordEvent(cluster.EventPilotVeto, d.Target,
			fmt.Sprintf("%s suppressed by %s (%s)", d.Action, d.Veto, d.Reason))
		return
	}
	join, event := d.Action == pilot.ScaleUp, cluster.EventPilotDrain
	if join {
		event = cluster.EventPilotScaleUp
	}
	if s.pilot.Config().DryRun {
		s.cluster.RecordEvent(event, d.Target, fmt.Sprintf("DRY-RUN %s: %s", d.Action, d.Reason))
		s.log.InfoContext(ctx, "pilot: dry-run", "action", d.Action, "target", d.Target, "reason", d.Reason)
		return
	}
	// Actuation is changeMembership — the path POST /cluster/join and
	// /cluster/drain take, so a scaled-in standby adopts the view and
	// pulls its records, and handoff (scale-down) or survivor repair
	// (heal-drain) proceeds exactly as an operator's would.
	target := cluster.Member{ID: d.Target}
	for _, m := range s.cluster.Standbys() {
		if join && m.ID == d.Target {
			target = m // a standby gone from the pool has no address, and ProposeJoin refuses it
		}
	}
	view, err := s.changeMembership(ctx, join, target)
	if err != nil {
		s.cluster.RecordEvent(cluster.EventPilotVeto, d.Target, string(d.Action)+" failed: "+err.Error())
		s.log.InfoContext(ctx, "pilot: actuation failed", "action", d.Action, "target", d.Target, "err", err)
		return
	}
	s.cluster.RecordEvent(event, d.Target,
		fmt.Sprintf("%s: %s -> epoch %d (%d members)", d.Action, d.Reason, view.Epoch, len(view.Members)))
	s.log.InfoContext(ctx, "pilot: actuated", "action", d.Action, "target", d.Target, "epoch", view.Epoch, "reason", d.Reason)
}

// Pilot exposes the controller (nil without WithPilot); harnesses and
// audits read decision history through it.
func (s *Server) Pilot() *pilot.Pilot { return s.pilot }

// pilotHTTPStatus is the GET /pilot reply: the controller snapshot
// plus the serving layer's view of leadership and the standby pool.
type pilotHTTPStatus struct {
	Leader             bool `json:"leader"`
	StandbysConfigured int  `json:"standbysConfigured"`
	StandbysAvailable  int  `json:"standbysAvailable"`
	pilot.Status
}

// handlePilot serves GET /pilot: controller policy, streaks, counters,
// and recent decisions on this node.
func (s *Server) handlePilot(rw http.ResponseWriter, req *http.Request) {
	writeJSON(rw, http.StatusOK, pilotHTTPStatus{
		Leader:             s.PilotLeader(),
		StandbysConfigured: len(s.cluster.Standbys()),
		StandbysAvailable:  len(s.cluster.AvailableStandbys()),
		Status:             s.pilot.Status(),
	})
}

// registerPilotGauges exports controller counters on /metrics. The
// callbacks read the pilot's own tallies — a scrape never runs a tick.
func (s *Server) registerPilotGauges() {
	s.metrics.RegisterGauge("mist_pilot_scale_ups_total", nil, func() float64 {
		n, _, _, _ := s.pilot.Counts()
		return float64(n)
	})
	s.metrics.RegisterGauge("mist_pilot_scale_downs_total", nil, func() float64 {
		_, n, _, _ := s.pilot.Counts()
		return float64(n)
	})
	s.metrics.RegisterGauge("mist_pilot_heal_drains_total", nil, func() float64 {
		_, _, n, _ := s.pilot.Counts()
		return float64(n)
	})
	s.metrics.RegisterGauge("mist_pilot_vetoes_total", nil, func() float64 {
		_, _, _, n := s.pilot.Counts()
		return float64(n)
	})
	s.metrics.RegisterGauge("mist_pilot_leader", nil, func() float64 {
		if s.PilotLeader() {
			return 1
		}
		return 0
	})
	s.metrics.RegisterGauge("mist_pilot_standbys_available", nil, func() float64 {
		return float64(len(s.cluster.AvailableStandbys()))
	})
	s.metrics.RegisterGauge("mist_pilot_dry_run", nil, func() float64 {
		if s.pilot.Config().DryRun {
			return 1
		}
		return 0
	})
}
