//go:build race

package mist

// raceEnabled: the race detector defeats sync.Pool reuse, so
// allocation pins do not hold under it.
const raceEnabled = true
