package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/benchmarks/mistperf/ref"
)

// meter times batches of work and brackets each with reference slices,
// so every duration can be restated at reference speed (see README,
// "Noise method"). The slices of one gap serve as the "after" of one
// batch and the "before" of the next.
type meter struct {
	k      *ref.Kernel
	fresh  bool      // the last slice ended just now: it can serve as a "before"
	slices []float64 // every slice taken, ms, in time order
	refNs  int64     // wall time spent inside slices
}

func newMeter(procs int) *meter { return &meter{k: ref.New(procs)} }

// close stops the kernel's workers; the meter is unusable afterwards.
func (m *meter) close() { m.k.Close() }

// slicesPerGap is how many slices run between two batches.
const slicesPerGap = 2

// gap runs the slices that separate two batches.
func (m *meter) gap() {
	for i := 0; i < slicesPerGap; i++ {
		d := m.k.Slice()
		m.slices = append(m.slices, float64(d)/1e6)
		m.refNs += int64(d)
	}
}

// batchStat is what one measured batch cost, raw, and where it sits in
// the meter's slice series (the slices taken just before and just after
// it) so that it can be restated at reference speed later.
type batchStat struct {
	wallNs  int64
	cpuNs   int64
	bytes   uint64
	mallocs uint64
	before  int // index into meter.slices of the last slice before it
	after   int // and of the first slice after it
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure runs fn between two reference slices.
func (m *meter) measure(fn func()) batchStat {
	if !m.fresh {
		m.gap()
	}
	before := len(m.slices) - 1
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuNow()
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	cpu1 := cpuNow()
	runtime.ReadMemStats(&ms1)
	after := len(m.slices)
	m.gap()
	m.fresh = true
	return batchStat{
		wallNs:  int64(wall),
		cpuNs:   cpu1 - cpu0,
		bytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		mallocs: ms1.Mallocs - ms0.Mallocs,
		before:  before,
		after:   after,
	}
}

// smoothK is how many slices on each side of a batch enter its
// slowdown. One slice is a 25 ms sample of a box whose speed also
// jitters at that scale; the median of 2*smoothK of them (two gaps a
// side, a second or so) follows the drift — which is what moves a whole
// run — and ignores the jitter. Two to eight gaps a side measured the
// same within the noise of measuring it; the narrowest is kept.
const smoothK = 2 * slicesPerGap

// slowdown is how much slower than nominal the box ran around a batch:
// the median of the smoothK slices up to and including the one before
// it and the smoothK from the one after it, over ref.NominalMs.
func (m *meter) slowdown(st batchStat) float64 {
	lo, hi := st.before-smoothK+1, st.after+smoothK
	if lo < 0 {
		lo = 0
	}
	if hi > len(m.slices) {
		hi = len(m.slices)
	}
	return median(m.slices[lo:hi]) / ref.NominalMs
}

// tail runs the gaps that give the last batches as many slices after
// them as every other batch has.
func (m *meter) tail() {
	for i := slicesPerGap; i < smoothK; i += slicesPerGap {
		m.gap()
	}
}

// stale marks the last slice as no longer adjacent to what comes next
// (a forced collection or other harness work ran since): the next batch
// takes a fresh "before".
func (m *meter) stale() { m.fresh = false }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between the
// two nearest order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
