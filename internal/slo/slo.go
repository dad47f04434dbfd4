// Package slo turns the fleet's raw counters into judgments: declarative
// service-level objectives, a sliding multi-window evaluation ring, and
// Google SRE-style multi-burn-rate alerting.
//
// The package is deliberately near zero-dependency (stdlib +
// internal/metrics + internal/clock): objectives are declared in a
// small JSON spec, evaluation reads the existing metrics registry
// through a snapshot-diff hook, and time enters only through the
// injected clock.Clock so tests drive virtual clocks (mistlint's
// nodeterm check enforces it). The engine computes, per
// objective, compliance over three nested windows (fast / confirm /
// budget), the remaining error budget, and two burn rates:
//
//   - fast burn (page): the short window AND its confirm window both
//     burning above FastBurn — the "2-window" guard that pages only when
//     a spike is corroborated, not on a single noisy bucket;
//   - slow burn (warning): the confirm window AND the full budget window
//     both above SlowBurn — a sustained leak that will exhaust the
//     budget well before the window ends.
//
// Alert transitions (ok→warning→page→resolved) are delivered through a
// hook so the serving layer can append them to the cluster event
// timeline, and node reports merge by histogram-bucket addition — never
// quantile averaging — into one fleet health score.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Objective types. The Target of every type is a required good-event
// ratio in (0,1); what counts as a good event depends on the type.
const (
	// TypeAvailability: good = non-5xx responses; the denominator
	// excludes 429s (load shedding is a policy outcome, not a failure).
	TypeAvailability = "availability"
	// TypeLatency: good = requests at or below Bound milliseconds.
	// Target is the quantile the bound applies to (0.99 → "p99 ≤ Bound").
	TypeLatency = "latency"
	// TypeRate429: good = non-429 responses over all responses; Target
	// 0.99 tolerates at most 1% shed.
	TypeRate429 = "rate429"
	// TypeQueueDepth: good = evaluation ticks whose sampled admission
	// queue depth is at or below Bound entries.
	TypeQueueDepth = "queueDepth"
)

// Engine defaults, applied by Validate wherever the spec is silent.
const (
	DefaultIntervalMs = 5000 // evaluation tick cadence
	DefaultWindowS    = 1800 // budget window: 30 minutes
	DefaultFastS      = 60   // fast (page) window: 1 minute
	DefaultConfirmS   = 300  // confirm (slow-burn) window: 5 minutes
	DefaultFastBurn   = 14.0 // page when fast+confirm both exceed this
	DefaultSlowBurn   = 3.0  // warn when confirm+budget both exceed this
	DefaultClearEvals = 3    // consecutive clean evals before resolving

	// maxRingBuckets bounds ring memory: window/interval combinations
	// that would need more per-tick buckets than this are rejected.
	maxRingBuckets = 7200
)

// Config is the JSON-loadable SLO spec (mistserve -slo-config,
// mistload -slo-config).
type Config struct {
	// IntervalMs is the evaluation tick cadence in milliseconds
	// (default 5000). Every window is quantized to this bucket width.
	IntervalMs int `json:"intervalMs,omitempty"`
	// ClearEvals is the alert hysteresis: how many consecutive clean
	// evaluations an objective must pass before a warning/page resolves
	// (default 3) — one boundary-straddling window cannot flap.
	ClearEvals int `json:"clearEvals,omitempty"`
	// Objectives declares what the fleet promises.
	Objectives []Objective `json:"objectives"`
}

// Objective is one declared promise.
type Objective struct {
	Name string `json:"name"`
	Type string `json:"type"`
	// Description is free-form operator documentation, carried through
	// so committed specs read as the promise they encode.
	Description string `json:"description,omitempty"`
	// Endpoint restricts the objective to one endpoint class (the
	// `endpoint` label on the request series); empty covers all.
	Endpoint string `json:"endpoint,omitempty"`
	// Target is the required good-event ratio in (0,1); the error
	// budget is 1-Target.
	Target float64 `json:"target"`
	// Bound parameterizes latency (milliseconds) and queueDepth
	// (entries) objectives; other types ignore it.
	Bound float64 `json:"bound,omitempty"`
	// WindowS is the error-budget window in seconds (default 1800).
	WindowS int `json:"windowS,omitempty"`
	// FastS / ConfirmS override the alerting windows in seconds
	// (defaults 60 / 300, both clamped to WindowS).
	FastS    int `json:"fastS,omitempty"`
	ConfirmS int `json:"confirmS,omitempty"`
	// FastBurn / SlowBurn override the burn-rate thresholds
	// (defaults 14 / 3).
	FastBurn float64 `json:"fastBurn,omitempty"`
	SlowBurn float64 `json:"slowBurn,omitempty"`
}

// LoadConfig reads and validates a JSON spec from disk, applying
// defaults in place.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("slo config: %w", err)
	}
	return ParseConfig(data)
}

// ParseConfig decodes and validates a JSON spec, applying defaults.
func ParseConfig(data []byte) (Config, error) {
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return Config{}, fmt.Errorf("slo config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate applies defaults and rejects malformed specs. It mutates the
// receiver (filled-in defaults persist), so a validated Config is
// self-describing.
func (c *Config) Validate() error {
	if c.IntervalMs == 0 {
		c.IntervalMs = DefaultIntervalMs
	}
	if c.IntervalMs < 0 {
		return fmt.Errorf("slo config: intervalMs %d must be positive", c.IntervalMs)
	}
	if c.ClearEvals == 0 {
		c.ClearEvals = DefaultClearEvals
	}
	if c.ClearEvals < 0 {
		return fmt.Errorf("slo config: clearEvals %d must be positive", c.ClearEvals)
	}
	if len(c.Objectives) == 0 {
		return fmt.Errorf("slo config: no objectives declared")
	}
	seen := map[string]bool{}
	for i := range c.Objectives {
		o := &c.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo config: objective %d has no name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo config: duplicate objective %q", o.Name)
		}
		seen[o.Name] = true
		switch o.Type {
		case TypeAvailability, TypeRate429:
		case TypeLatency, TypeQueueDepth:
			if o.Bound <= 0 {
				return fmt.Errorf("slo config: objective %q (%s) needs a positive bound", o.Name, o.Type)
			}
		default:
			return fmt.Errorf("slo config: objective %q has unknown type %q", o.Name, o.Type)
		}
		if o.Target <= 0 || o.Target >= 1 {
			return fmt.Errorf("slo config: objective %q target %g must be in (0,1)", o.Name, o.Target)
		}
		if o.WindowS == 0 {
			o.WindowS = DefaultWindowS
		}
		if o.WindowS < 0 {
			return fmt.Errorf("slo config: objective %q window %ds must be positive", o.Name, o.WindowS)
		}
		if o.FastS == 0 {
			o.FastS = DefaultFastS
		}
		if o.ConfirmS == 0 {
			o.ConfirmS = DefaultConfirmS
		}
		if o.FastS < 0 || o.ConfirmS < 0 {
			return fmt.Errorf("slo config: objective %q has a negative alert window", o.Name)
		}
		if o.FastS > o.WindowS {
			o.FastS = o.WindowS
		}
		if o.ConfirmS > o.WindowS {
			o.ConfirmS = o.WindowS
		}
		if o.FastS > o.ConfirmS {
			return fmt.Errorf("slo config: objective %q fast window %ds exceeds confirm window %ds", o.Name, o.FastS, o.ConfirmS)
		}
		if o.FastBurn == 0 {
			o.FastBurn = DefaultFastBurn
		}
		if o.SlowBurn == 0 {
			o.SlowBurn = DefaultSlowBurn
		}
		if o.FastBurn < 0 || o.SlowBurn < 0 {
			return fmt.Errorf("slo config: objective %q has a negative burn threshold", o.Name)
		}
		interval := time.Duration(c.IntervalMs) * time.Millisecond
		n := bucketsFor(time.Duration(o.WindowS)*time.Second, interval)
		if n > maxRingBuckets {
			return fmt.Errorf("slo config: objective %q needs %d ring buckets (window %ds / interval %dms), max %d",
				o.Name, n, o.WindowS, c.IntervalMs, maxRingBuckets)
		}
	}
	return nil
}

// bucketsFor quantizes a window to whole evaluation intervals, rounding
// up so the window is never under-covered.
func bucketsFor(window, interval time.Duration) int {
	if window <= 0 || interval <= 0 {
		return 1
	}
	n := int((window + interval - 1) / interval)
	if n < 1 {
		n = 1
	}
	return n
}
