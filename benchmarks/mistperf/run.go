package main

import (
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s
// folds them by medians (see setupSeconds). The last set-up is the one
// the measured phase uses.
const setupRepeats = 3

// result is what one run reports.
type result struct {
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
	// diag holds raw (not normalised) values and tails an untraced run
	// reports beside its metrics, so nothing the normalisation does is
	// hidden; slices is every reference slice the run took, in ms.
	diag    map[string]float64
	slices  []float64
	batches []batchDump
}

// batchDump is one measured batch as the diag line carries it.
type batchDump struct {
	Class  int   `json:"c"`
	Ops    int   `json:"ops"`
	WallNs int64 `json:"w"`
	CPUNs  int64 `json:"cpu"`
	Before int   `json:"b"`
	After  int   `json:"a"`
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// batchRec is one measured batch, raw.
type batchRec struct {
	batchStat
	class int
	ops   int
	log   *opLog
}

// phase collects the batches of one stretch of a run (a set-up, the
// measured passes). Nothing is normalised until the stretch is over: a
// batch's slowdown needs the slices that come after it.
type phase struct {
	recs   []batchRec
	passes int
	ops    int
	failed int
	errs   []string
}

func (p *phase) add(st batchStat, b batch, log *opLog) {
	p.recs = append(p.recs, batchRec{batchStat: st, class: b.class, ops: b.ops, log: log})
	p.ops += b.ops
	p.failed += log.failed
	for _, e := range log.errs {
		if len(p.errs) < 5 {
			p.errs = append(p.errs, e)
		}
	}
}

// totals is a phase folded into the numbers the metrics are made of.
// Work repeats: every pass holds one batch of each class (a grid cell, a
// sweep step) or several batches of one class (a fleet batch's fixed
// mix). Each class's cost is the median over its batches of the batch's
// cost at reference speed; a pass's cost is the sum over its batches of
// their class's cost. Medians of
// repeated identical work, not means, because on a shared box the
// disturbances are one-sided and bursty.
type totals struct {
	opsPerPass  float64
	wallPerPass float64 // ns at reference speed
	cpuPerPass  float64 // ns at reference speed
	rawWall     float64 // Σ wall ns, as measured
	rawCPU      float64
	bytes       float64
	mallocs     float64
	slow        []float64 // slowdown of every batch
	// opLat is, per op class, the median latency at reference speed and
	// as measured, with the class's share of the ops.
	opLat []classLat
	// latRef is every op's latency at reference speed (for the tails).
	latRef []float64
}

type classLat struct {
	ref, raw float64 // ns
	weight   float64 // ops of this class
}

func (p *phase) fold(m *meter) totals {
	var t totals
	type acc struct {
		ops       int
		wall, cpu []float64
	}
	type lats struct{ ref, raw []float64 }
	classes := map[int]*acc{}
	lat := map[int]*lats{}
	for _, r := range p.recs {
		s := m.slowdown(r.batchStat)
		t.slow = append(t.slow, s)
		t.rawWall += float64(r.wallNs)
		t.rawCPU += float64(r.cpuNs)
		t.bytes += float64(r.bytes)
		t.mallocs += float64(r.mallocs)
		a := classes[r.class]
		if a == nil {
			a = &acc{ops: r.ops}
			classes[r.class] = a
		}
		a.wall = append(a.wall, float64(r.wallNs)/s)
		a.cpu = append(a.cpu, float64(r.cpuNs)/s)
		for i, l := range r.log.latNs {
			c := int(r.log.class[i])
			la := lat[c]
			if la == nil {
				la = &lats{}
				lat[c] = la
			}
			la.ref = append(la.ref, float64(l)/s)
			la.raw = append(la.raw, float64(l))
			t.latRef = append(t.latRef, float64(l)/s)
		}
	}
	for _, a := range classes {
		// A pass may hold several batches of one class.
		perPass := float64(len(a.wall)) / float64(p.passes)
		t.opsPerPass += perPass * float64(a.ops)
		t.wallPerPass += perPass * median(a.wall)
		t.cpuPerPass += perPass * median(a.cpu)
	}
	for _, la := range lat {
		t.opLat = append(t.opLat, classLat{ref: median(la.ref), raw: median(la.raw), weight: float64(len(la.ref))})
	}
	return t
}

// medianOp is the latency of the median op when every op stands for its
// class's median: the weighted median of the class medians, the
// midpoint of the two neighbours when the weight splits exactly in
// half. A plain median over all samples of a mix of cheap and dear ops
// lands on the edge of a cluster — its largest or smallest sample — and
// is as noisy as an extreme; this one is as steady as the class medians.
func medianOp(ls []classLat, ref bool) float64 {
	if len(ls) == 0 {
		return 0
	}
	val := func(l classLat) float64 {
		if ref {
			return l.ref
		}
		return l.raw
	}
	s := append([]classLat(nil), ls...)
	sort.Slice(s, func(i, j int) bool { return val(s[i]) < val(s[j]) })
	total := 0.0
	for _, l := range s {
		total += l.weight
	}
	cum := 0.0
	for i, l := range s {
		cum += l.weight
		switch {
		case cum > total/2:
			return val(l)
		case cum == total/2 && i+1 < len(s):
			return (val(l) + val(s[i+1])) / 2
		}
	}
	return val(s[len(s)-1])
}

// runBatch runs one batch under the meter.
func runBatch(m *meter, b batch) (batchStat, *opLog) {
	log := newOpLog(b.ops)
	st := m.measure(func() { b.run(log) })
	return st, log
}

// runPass runs every batch of pass n into p.
func runPass(m *meter, in instance, n int, p *phase) {
	p.passes++
	for _, b := range in.pass(n) {
		st, log := runBatch(m, b)
		p.add(st, b, log)
	}
}

// setUp builds the workload and runs its warm-up pass, all under the
// meter, into its own phase. Failures of warm-up ops count as failures
// of the run.
func setUp(m *meter, w *workload, seed int64, traceable, short bool) (instance, *phase, error) {
	var in instance
	var err error
	p := &phase{}
	st := m.measure(func() { in, err = w.setup(seed, traceable, short) })
	if err != nil {
		return nil, nil, err
	}
	p.recs = append(p.recs, batchRec{batchStat: st, class: buildClass, log: newOpLog(0)})
	runPass(m, in, 0, p)
	return in, p, nil
}

// buildClass is the class of a set-up's first batch, the build itself;
// the warm-up ops that follow keep their own classes.
const buildClass = -1

// setupSeconds is what one set-up costs, from several: every batch of a
// set-up — the build and the warm-up ops — at reference speed, each
// class's cost the median over the set-ups, summed. raw is the plain
// mean of the set-ups' wall times.
func setupSeconds(m *meter, setups []*phase) (ref, raw float64) {
	all := &phase{passes: len(setups)}
	for _, p := range setups {
		all.recs = append(all.recs, p.recs...)
	}
	t := all.fold(m)
	return t.wallPerPass / 1e9, t.rawWall / 1e9 / float64(len(setups))
}

func pinProcs() int {
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)
	return procs
}

// liveHeapMiB is HeapAlloc after forced collections; two, so that
// sync.Pool victims are gone as well.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runUntraced is the end-to-end run of one workload: tracing off.
func runUntraced(w *workload, seed int64, seconds float64, short bool) (*result, error) {
	m := newMeter(pinProcs())

	var in instance
	var setups []*phase
	reps := setupRepeats
	if short {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		runtime.GC()
		m.stale()
		var p *phase
		var err error
		if in, p, err = setUp(m, w, seed, false, short); err != nil {
			m.close()
			return nil, err
		}
		setups = append(setups, p)
	}
	defer func() { in.close() }()

	runtime.GC()
	m.stale()
	meas := &phase{}
	ref0 := m.refNs
	start := time.Now()
	for n := 1; ; n++ {
		runPass(m, in, n, meas)
		if short || time.Since(start).Seconds() >= seconds {
			break
		}
	}
	elapsed := time.Since(start)
	refShare := float64(m.refNs-ref0) / float64(elapsed)
	// A few trailing slices, so the last batches' slowdowns have
	// neighbours on both sides like everyone else's.
	m.tail()

	res := &result{attempted: meas.ops, failed: meas.failed, errs: meas.errs}
	for _, p := range setups {
		res.attempted += p.ops
		res.failed += p.failed
		res.errs = append(p.errs, res.errs...)
	}
	setupRef, setupRaw := setupSeconds(m, setups)
	t := meas.fold(m)
	res.metrics = map[string]float64{
		"setup_s":           setupRef,
		"ops_per_s":         t.opsPerPass / (t.wallPerPass / 1e9),
		"op_p50_ms":         medianOp(t.opLat, true) / 1e6,
		"cpu_ms_per_op":     t.cpuPerPass / t.opsPerPass / 1e6,
		"alloc_kb_per_op":   t.bytes / float64(meas.ops) / 1024,
		"allocs_per_op":     t.mallocs / float64(meas.ops),
		"plan_tput_geomean": geomean(in.planThroughputs()),
	}
	res.diag = benchDiag(meas, t, refShare)
	res.diag["bench.raw_setup_s"] = setupRaw
	res.slices = m.slices
	for _, r := range meas.recs {
		res.batches = append(res.batches, batchDump{r.class, r.ops, r.wallNs, r.cpuNs, r.before, r.after})
	}
	// Stop the kernel and drop the samples before reading the heap, so
	// the reading is the program's retained state, not the harness's.
	m.close()
	*meas, *m, t, setups = phase{}, meter{}, totals{}, nil
	res.metrics["live_heap_mb"] = liveHeapMiB()
	runtime.KeepAlive(in)
	return res, nil
}

// benchDiag is the diagnostics group every run reports: client-side
// tails, raw values and the slowdown distribution.
func benchDiag(p *phase, t totals, refShare float64) map[string]float64 {
	return map[string]float64{
		"client.op_p99_ms":        quantile(t.latRef, 0.99) / 1e6,
		"client.op_max_ms":        quantile(t.latRef, 1) / 1e6,
		"client.ops":              float64(p.ops),
		"client.failed":           float64(p.failed),
		"bench.raw_ops_per_s":     float64(p.ops) / (t.rawWall / 1e9),
		"bench.raw_op_p50_ms":     medianOp(t.opLat, false) / 1e6,
		"bench.raw_cpu_ms_per_op": t.rawCPU / float64(p.ops) / 1e6,
		"bench.slowdown_p50":      quantile(t.slow, 0.5),
		"bench.slowdown_p90":      quantile(t.slow, 0.9),
		"bench.ref_share":         refShare,
	}
}
