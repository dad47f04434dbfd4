package pilot

import (
	"fmt"
	"time"
)

// Config is the controller's declarative policy. Zero values are
// filled with conservative defaults by Validate, so an empty Config is
// a working policy.
type Config struct {
	// IntervalMs is the evaluation tick period (default 5000). Each
	// tick reads one snapshot of fleet signals and makes at most one
	// decision, so every hysteresis and cooldown below is quantized to
	// this period.
	IntervalMs int `json:"intervalMs,omitempty"`

	// SaturationQueue is the queue-depth threshold (waiting admissions
	// plus queued jobs) above which a tick counts as saturated
	// (default 64).
	SaturationQueue float64 `json:"saturationQueue,omitempty"`
	// Saturation429 is the shed-fraction threshold: a tick counts as
	// saturated when more than this fraction of the fast window's
	// requests were answered 429 (default 0.10). Requires an SLO
	// rate429 objective to be observable; without one the signal reads
	// zero.
	Saturation429 float64 `json:"saturation429,omitempty"`
	// SaturationEvals is the scale-up hysteresis: how many consecutive
	// saturated ticks before a scale-up fires (default 2). A fast-burn
	// SLO page bypasses this streak — paging means the budget is
	// burning too fast to wait.
	SaturationEvals int `json:"saturationEvals,omitempty"`

	// HealthyEvals is the scale-down hysteresis: how many consecutive
	// fully-healthy ticks (every SLO objective OK, no saturation) before
	// a borrowed standby is drained back to the pool (default 6).
	HealthyEvals int `json:"healthyEvals,omitempty"`

	// UnhealthyEvals is the self-healing threshold: how many
	// consecutive ticks a member may stay suspect or down before the
	// pilot auto-drains it so the rebalancer restores the replication
	// factor among survivors (default 3).
	UnhealthyEvals int `json:"unhealthyEvals,omitempty"`

	// CooldownS is the per-action-kind cooldown in seconds (default
	// 60): after a scale-up executes, the next scale-up waits at least
	// this long, and likewise per kind for scale-down and heal-drain.
	CooldownS int `json:"cooldownS,omitempty"`
	// MaxActionsPerWindow rate-limits executed actions of all kinds
	// inside a sliding WindowS window (default 4). A runaway policy
	// stalls instead of thrashing the ring.
	MaxActionsPerWindow int `json:"maxActionsPerWindow,omitempty"`
	// WindowS is the rate-limit window in seconds (default 600).
	WindowS int `json:"windowS,omitempty"`

	// MinNodes is the membership floor: drains (scale-down or heal)
	// never shrink the view below this many members (default 1).
	MinNodes int `json:"minNodes,omitempty"`

	// DryRun evaluates and records every decision on the event timeline
	// without actuating any of them — the rehearsal mode the runbook
	// points operators at when the pilot misbehaves.
	DryRun bool `json:"dryRun,omitempty"`
}

// Validate fills defaults and rejects nonsensical values.
func (c *Config) Validate() error {
	if c.IntervalMs == 0 {
		c.IntervalMs = 5000
	}
	if c.SaturationQueue == 0 {
		c.SaturationQueue = 64
	}
	if c.Saturation429 == 0 {
		c.Saturation429 = 0.10
	}
	if c.SaturationEvals == 0 {
		c.SaturationEvals = 2
	}
	if c.HealthyEvals == 0 {
		c.HealthyEvals = 6
	}
	if c.UnhealthyEvals == 0 {
		c.UnhealthyEvals = 3
	}
	if c.CooldownS == 0 {
		c.CooldownS = 60
	}
	if c.MaxActionsPerWindow == 0 {
		c.MaxActionsPerWindow = 4
	}
	if c.WindowS == 0 {
		c.WindowS = 600
	}
	if c.MinNodes == 0 {
		c.MinNodes = 1
	}
	switch {
	case c.IntervalMs < 0:
		return fmt.Errorf("pilot: intervalMs must be positive, got %d", c.IntervalMs)
	case c.SaturationQueue < 0:
		return fmt.Errorf("pilot: saturationQueue must be non-negative, got %g", c.SaturationQueue)
	case c.Saturation429 < 0 || c.Saturation429 > 1:
		return fmt.Errorf("pilot: saturation429 must be a fraction in [0,1], got %g", c.Saturation429)
	case c.SaturationEvals < 0 || c.HealthyEvals < 0 || c.UnhealthyEvals < 0:
		return fmt.Errorf("pilot: eval streaks must be positive")
	case c.CooldownS < 0 || c.WindowS < 0:
		return fmt.Errorf("pilot: cooldownS and windowS must be positive")
	case c.MaxActionsPerWindow < 0:
		return fmt.Errorf("pilot: maxActionsPerWindow must be positive, got %d", c.MaxActionsPerWindow)
	case c.MinNodes < 1:
		return fmt.Errorf("pilot: minNodes must be at least 1, got %d", c.MinNodes)
	}
	return nil
}

// Interval returns the tick period as a duration.
func (c Config) Interval() time.Duration {
	return time.Duration(c.IntervalMs) * time.Millisecond
}

// Cooldown returns the per-action-kind cooldown as a duration.
func (c Config) Cooldown() time.Duration {
	return time.Duration(c.CooldownS) * time.Second
}

// Window returns the rate-limit window as a duration.
func (c Config) Window() time.Duration {
	return time.Duration(c.WindowS) * time.Second
}
