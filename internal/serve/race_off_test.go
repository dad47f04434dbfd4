//go:build !race

package serve

const RaceEnabled = false
