// Package interference implements Mist's interference model (§5.2.2,
// Algorithm 1): when computation, GPU-GPU communication (NCCL), and
// CPU<->GPU copies (H2D, D2H) run concurrently, each participant slows
// down. The model assigns every combination of co-running kernel classes a
// set of slowdown factors and resolves concurrency by progressively
// peeling off the shortest scaled participant (Algorithm 1).
//
// The paper fits the factors to measurements on real GPUs; this
// reproduction fits them, with the same least-squares procedure, to a
// fluid bandwidth-sharing simulator (see fluid.go) that stands in for the
// hardware (DESIGN.md "Substitution table"). The fitted model is used by
// the symbolic performance analyzer; the fluid simulator itself is used
// by the discrete-event execution engine, keeping prediction and "ground
// truth" on independent code paths.
package interference

import (
	"fmt"
	"math"
)

// Channel indexes the four concurrent kernel classes.
type Channel int

// Kernel classes, in Algorithm 1's stacking order.
const (
	Compute Channel = iota // C: GPU computation
	G2G                    // NCCL: GPU<->GPU collectives
	C2G                    // H2D: host-to-device copies
	G2C                    // D2H: device-to-host copies
	NumChannels
)

func (c Channel) String() string {
	switch c {
	case Compute:
		return "compute"
	case G2G:
		return "g2g"
	case C2G:
		return "c2g"
	case G2C:
		return "g2c"
	default:
		return fmt.Sprintf("channel(%d)", int(c))
	}
}

// Mask is a bitset of participating channels.
type Mask uint8

// Has reports whether ch participates in m.
func (m Mask) Has(ch Channel) bool { return m&(1<<uint(ch)) != 0 }

// Count returns the number of participants.
func (m Mask) Count() int {
	n := 0
	for ch := Channel(0); ch < NumChannels; ch++ {
		if m.Has(ch) {
			n++
		}
	}
	return n
}

// numMasks is the size of the dense mask-indexed tables.
const numMasks = 1 << NumChannels

// Precomputed combination tables: sweepMasks lists every mask with >= 2
// participants in Algorithm 1's resolution order (largest first, then
// ascending mask value), and maskChannels lists each mask's participants
// in channel order. Predict is the analyzer's innermost hot loop — the
// old per-call combinationsOfSize allocation was ~90% of a cold search's
// allocated objects — so both tables are built once at package init.
var (
	sweepMasks   []Mask
	maskChannels [numMasks][]Channel
)

func init() {
	for n := int(NumChannels); n >= 2; n-- {
		for m := Mask(1); m < numMasks; m++ {
			if m.Count() == n {
				sweepMasks = append(sweepMasks, m)
			}
		}
	}
	for m := Mask(1); m < numMasks; m++ {
		for ch := Channel(0); ch < NumChannels; ch++ {
			if m.Has(ch) {
				maskChannels[m] = append(maskChannels[m], ch)
			}
		}
	}
}

// Model holds the per-combination slowdown factors. factors[m][ch] is the
// multiplicative slowdown applied to channel ch while exactly the channels
// in m co-run; it is >= 1 and meaningful only when m.Has(ch). The dense
// mask-indexed array keeps Factor lookups branch-free on the Predict hot
// path (the old map cost a hash per participant per combination).
//
// A Model is immutable outside this package: NewModel and Fit are the only
// ways to get one and nothing exported writes a factor, so analyzers share
// a fitted Model by pointer (core fits one per platform per process).
type Model struct {
	factors [numMasks][NumChannels]float64
}

// NewModel returns a model with all factors 1 (no interference).
func NewModel() *Model {
	m := &Model{}
	for mask := range m.factors {
		for ch := Channel(0); ch < NumChannels; ch++ {
			m.factors[mask][ch] = 1
		}
	}
	return m
}

// AllCombinations enumerates every mask with >= 2 participants, largest
// combinations first (Algorithm 1 resolves n=4 down to n=2). The returned
// slice is the caller's to mutate.
func AllCombinations() []Mask {
	return append([]Mask(nil), sweepMasks...)
}

// setFactor sets the slowdown of ch under combination m (Fit and the
// package's tests only: a Model is shared once it leaves the package).
func (md *Model) setFactor(m Mask, ch Channel, f float64) {
	if !m.Has(ch) {
		panic(fmt.Sprintf("interference: channel %v not in mask %04b", ch, m))
	}
	if f < 1 {
		f = 1
	}
	md.factors[m][ch] = f
}

// Factor returns the slowdown of ch under combination m.
func (md *Model) Factor(m Mask, ch Channel) float64 { return md.factors[m][ch] }

// Times is the per-channel isolated execution time of one overlapped
// region (seconds at full speed, zero when the channel is idle).
type Times [NumChannels]float64

// Predict implements Algorithm 1 for a single region: given the isolated
// times of the four channels, it returns the wall-clock time of the
// overlapped execution. The algorithm repeatedly finds the active channel
// combination, scales each participant by its slowdown factor, advances
// all of them by the smallest scaled remaining time (that participant
// finishes), and converts the advance back into retired isolated work.
//
// The active combination is always the live set itself (channels with
// work left, !(x <= 0)), so Predict peels it directly instead of walking
// sweepMasks: in sweep order the only mask of a given size inside the
// live set is the live set, and a peel with a finite minimum retires its
// argmin channel. A peel that retires nothing (every scaled time NaN or
// +Inf) leaves all its channels NaN and the total +Inf, which no later
// peel of the sweep could change, so Predict stops there.
// The package tests keep the sweep as the oracle (predictSweep) and
// compare bit patterns.
func (md *Model) Predict(x Times) float64 {
	var live Mask
	for ch := range x {
		if !(x[ch] <= 0) {
			live |= 1 << ch
		}
	}
	total := 0.0
	for live&(live-1) != 0 { // at least two channels have work
		f := &md.factors[live]
		chans := maskChannels[live]
		// scaled = x * factors (participants only).
		overlap := math.Inf(1)
		var scaled Times
		for _, ch := range chans {
			scaled[ch] = x[ch] * f[ch]
			if scaled[ch] < overlap {
				overlap = scaled[ch]
			}
		}
		// Advance by the smallest scaled time; convert the consumed
		// wall-clock back to isolated work per participant.
		next := live
		for _, ch := range chans {
			x[ch] = (scaled[ch] - overlap) / f[ch]
			if x[ch] < 1e-15 {
				x[ch] = 0
				next &^= 1 << ch
			}
		}
		total += overlap
		if next == live {
			break
		}
		live = next
	}
	// Whatever is left runs alone.
	return total + x[0] + x[1] + x[2] + x[3]
}
