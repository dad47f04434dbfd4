//go:build race

package serve_test

// raceEnabled: the race detector defeats sync.Pool reuse, so
// allocation pins do not hold under it.
const raceEnabled = true
