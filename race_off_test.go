//go:build !race

package mist

const raceEnabled = false
