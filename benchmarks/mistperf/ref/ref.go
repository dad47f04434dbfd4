// Package ref is mistperf's reference kernel: a fixed, allocation-free
// streaming multiply-add that the harness runs between batches of real
// work to learn how fast the box is right now. It imports nothing from
// the program under test, so no change to the program can move it.
package ref

import (
	"sync"
	"time"
)

const (
	// BufBytes is each worker's private buffer. It fits in L1: measured
	// on the 2-vCPU sandbox, a buffer that spills L2 (2 MiB) makes the
	// slice itself bimodal — it swings 40 % with where its lines land —
	// while the searches it is meant to track swing 13 %; an
	// L1-resident slice follows the same drift the searches do.
	BufBytes = 16 << 10
	// Sweeps is how many times one slice streams the buffer; chosen so
	// a slice is about 25 ms on the box NominalMs was calibrated on.
	Sweeps = 20_000

	words = BufBytes / 8
)

// NominalMs is the duration of one slice on an undisturbed box: the
// fastest decile of the 17 432 slices of the landing commit's
// `selfcheck -sets 2 -runs 10` (2 vCPU sandbox, Go 1.24; median 25.2,
// p90 37.3). A batch's slowdown is the median of the slices around it
// divided by this constant.
const NominalMs = 22.6

// Kernel owns one buffer and one parked goroutine per worker, so a
// slice neither allocates nor spawns.
type Kernel struct {
	bufs  [][]float64
	start []chan struct{}
	wg    sync.WaitGroup
	quit  sync.WaitGroup
}

// New starts procs parked workers.
func New(procs int) *Kernel {
	k := &Kernel{}
	for i := 0; i < procs; i++ {
		buf := make([]float64, words)
		for j := range buf {
			buf[j] = float64(j&1023) / 1024
		}
		ch := make(chan struct{})
		k.bufs = append(k.bufs, buf)
		k.start = append(k.start, ch)
		k.quit.Add(1)
		go func() {
			defer k.quit.Done()
			for range ch {
				Sweep(buf, Sweeps)
				k.wg.Done()
			}
		}()
	}
	return k
}

// Ops is the multiply-add count of one slice.
func (k *Kernel) Ops() int { return len(k.bufs) * Sweeps * words }

// Slice runs the kernel once on every worker at the same time and
// returns the wall time until the last one finished.
func (k *Kernel) Slice() time.Duration {
	t0 := time.Now()
	k.wg.Add(len(k.start))
	for _, ch := range k.start {
		ch <- struct{}{}
	}
	k.wg.Wait()
	return time.Since(t0)
}

// Close stops the workers and waits for them.
func (k *Kernel) Close() {
	for _, ch := range k.start {
		close(ch)
	}
	k.quit.Wait()
}

// Sweep streams buf `sweeps` times with x = x*a + b. The map is a
// contraction (a < 1), so values stay bounded however long it runs.
func Sweep(buf []float64, sweeps int) {
	const a, b = 0.999, 0.0005
	for s := 0; s < sweeps; s++ {
		for i := range buf {
			buf[i] = buf[i]*a + b
		}
	}
}
