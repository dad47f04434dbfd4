// Package clock is the one seam through which time enters the protocol
// packages (cluster, slo) and the serving layer's tick loops.
// Those packages never read the wall clock or schedule on it
// themselves — mistlint's nodeterm analyzer enforces it — so a node
// built on a Fake is a state machine whose only inputs are messages
// and hand-driven ticks (ROADMAP item 11 (c)).
package clock

import (
	"sync"
	"time"
)

// Clock is the reader half: what a package that only stamps or
// compares instants takes (slo.Options.Clock).
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// Ticking adds scheduling: what a package that runs a loop takes
// (serve.WithClock: the SLO, probe and repair loops).
type Ticking interface {
	Clock
	// Ticker returns a channel delivering ticks every d, plus a stop
	// function releasing the ticker's resources.
	Ticker(d time.Duration) (<-chan time.Time, func())
}

type system struct{}

func (system) Now() time.Time {
	//mistlint:ignore nodeterm the system clock is the one sanctioned wall-clock read behind the Clock interface
	return time.Now()
}

func (system) Ticker(d time.Duration) (<-chan time.Time, func()) {
	//mistlint:ignore nodeterm the system clock is the one sanctioned runtime ticker behind the Ticking interface
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// System is the runtime's clock, used wherever none is injected.
var System Ticking = system{}

// Fake is a hand-cranked clock for virtual-time tests, safe for
// concurrent use. Its tickers never fire: a loop built on a Fake is
// inert and the test drives each tick itself (SLOTick, ProbeOnce,
// RebalanceOnce), so no background tick can race a hand-driven one.
type Fake struct {
	mu sync.Mutex
	t  time.Time
}

// NewFake returns a Fake reading start.
func NewFake(start time.Time) *Fake { return &Fake{t: start} }

// Now returns the Fake's current instant.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

// Advance moves the Fake forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// Ticker returns a channel that never delivers and a no-op stop.
func (f *Fake) Ticker(time.Duration) (<-chan time.Time, func()) {
	return nil, func() {}
}
