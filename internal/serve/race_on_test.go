//go:build race

package serve

// RaceEnabled: the race detector defeats sync.Pool reuse, so
// allocation pins do not hold under it, and it slows every seed of
// TestFaultsMasked, so fewer run. Exported for the external tests.
const RaceEnabled = true
