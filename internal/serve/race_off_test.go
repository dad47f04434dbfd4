//go:build !race

package serve_test

const raceEnabled = false
