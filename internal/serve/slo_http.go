package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/slo"
)

// This file wires the SLO engine through the serving layer: engine
// lifecycle (a tick loop on the engine cadence), the GET /slo node
// surface, the GET /cluster/health fleet fold, mist_slo_* gauges on
// /metrics, and alert transitions appended to the cluster event
// timeline.

// WithSLO attaches a validated SLO spec: the server evaluates it
// continuously against its own request metrics and serves verdicts at
// GET /slo and GET /cluster/health.
func WithSLO(cfg slo.Config) Option {
	return func(s *Server) {
		// Deep-copy the objectives: one Option value is applied to every
		// LocalCluster node, and validation fills defaults in place.
		c := cfg
		c.Objectives = append([]slo.Objective(nil), cfg.Objectives...)
		s.sloCfg = &c
	}
}

// initSLO builds the engine from the attached spec; called by New after
// cluster/jobs/metrics exist. The queue-depth sampler folds the two
// admission gates and the async job queue — the saturation signal
// queueDepth objectives watch.
func (s *Server) initSLO() {
	if s.sloCfg == nil {
		return
	}
	eng, err := slo.NewEngine(*s.sloCfg, s.metrics, slo.Options{
		Clock: s.clock,
		QueueDepth: func() float64 {
			js := s.jobs.Stats()
			return float64(int64(js.QueueDepth) + s.tuneGate.waiting.Load() + s.simulateGate.waiting.Load())
		},
		OnTransition: s.onSLOTransition,
	})
	if err != nil {
		// The spec was validated at load time (mistserve -slo-config,
		// the load harness); a failure here is a programming error in
		// option wiring, not operator input.
		panic(fmt.Sprintf("serve: invalid SLO config reached New: %v", err))
	}
	s.sloEngine = eng
	s.registerSLOGauges()
	s.tickLoop(eng.Interval(), nil, func(context.Context) { s.SLOTick() })
}

// SLOTick advances the SLO engine one evaluation interval — what the
// tick loop does on the system clock and what a test does by hand on a
// clock.Fake (see WithClock).
func (s *Server) SLOTick() {
	if s.sloEngine != nil {
		s.sloEngine.Tick()
	}
}

// SLOEngine exposes the engine (nil without WithSLO); load harnesses
// reconcile their scores against it.
func (s *Server) SLOEngine() *slo.Engine { return s.sloEngine }

// onSLOTransition lands alert state changes on the cluster event
// timeline (when clustered) and in the log, so SLO breaches interleave
// with epochs, health probes, and rebalance activity on one timeline.
func (s *Server) onSLOTransition(tr slo.Transition) {
	s.log.Info("slo: objective changed state", "objective", tr.Objective, "from", tr.From, "to", tr.To, "reason", tr.Reason)
	if s.cluster == nil {
		return
	}
	typ := cluster.EventSLOResolved
	switch tr.To {
	case slo.StateWarning:
		typ = cluster.EventSLOWarning
	case slo.StatePage:
		typ = cluster.EventSLOPage
	}
	s.cluster.RecordEvent(typ, "", tr.Objective+": "+tr.Reason)
}

// registerSLOGauges exports per-objective verdicts on /metrics. The
// callbacks read the statuses cached by the last tick — a scrape never
// forces a re-evaluation.
func (s *Server) registerSLOGauges() {
	sev := func(state string) float64 {
		switch state {
		case slo.StatePage:
			return 2
		case slo.StateWarning:
			return 1
		}
		return 0
	}
	for _, o := range s.sloEngine.Config().Objectives {
		name := o.Name
		labels := metrics.Labels{"objective": name}
		s.metrics.RegisterGauge("mist_slo_budget_remaining", labels, func() float64 {
			st, _ := s.sloEngine.CachedStatus(name)
			return st.BudgetRemaining
		})
		s.metrics.RegisterGauge("mist_slo_burn_fast", labels, func() float64 {
			st, _ := s.sloEngine.CachedStatus(name)
			return st.BurnFast
		})
		s.metrics.RegisterGauge("mist_slo_burn_slow", labels, func() float64 {
			st, _ := s.sloEngine.CachedStatus(name)
			return st.BurnSlow
		})
		s.metrics.RegisterGauge("mist_slo_state", labels, func() float64 {
			st, _ := s.sloEngine.CachedStatus(name)
			return sev(st.State)
		})
	}
}

// sloNode names this node in SLO reports.
func (s *Server) sloNode() string {
	if s.cluster != nil {
		return s.cluster.Self()
	}
	return ""
}

// handleSLO serves GET /slo: this node's evaluated objectives.
func (s *Server) handleSLO(rw http.ResponseWriter, req *http.Request) {
	writeJSON(rw, http.StatusOK, s.sloEngine.Snapshot(s.sloNode()))
}

// handleClusterHealth serves GET /cluster/health: the fleet fold of
// every member's /slo reply. Peer replies merge by histogram-bucket
// addition; unreachable peers degrade the verdict instead of silently
// shrinking the fleet. Without a cluster it reports a fleet of one.
func (s *Server) handleClusterHealth(rw http.ResponseWriter, req *http.Request) {
	local := s.sloEngine.Snapshot(s.sloNode())
	reports := []slo.NodeReport{local}
	var unreachable []string
	if s.cluster != nil {
		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		for _, m := range s.cluster.Others(s.cluster.Members()) {
			wg.Add(1)
			go func(m cluster.Member) {
				defer wg.Done()
				rep, err := s.peerSLO(req.Context(), m)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					unreachable = append(unreachable, m.ID)
					return
				}
				reports = append(reports, rep)
			}(m)
		}
		wg.Wait()
	}
	writeJSON(rw, http.StatusOK, slo.MergeFleet(reports, unreachable))
}
