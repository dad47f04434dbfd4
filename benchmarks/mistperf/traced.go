package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// spanCap bounds the span file (see tracer.closeIfFull).
const spanCap = 60_000

// runTraced is the separate traced run of one workload. It sets the
// workload up once, then alternates untraced and traced passes — the
// ratio of their throughputs is the tracing overhead — and finally runs
// the probes. It reports every per-layer metric; the ones a workload
// does not exercise read 0.
func runTraced(w *workload, seed int64, seconds float64, short bool, outDir string) (*result, error) {
	m := newMeter(pinProcs())
	defer m.close()
	tr := newTracer()

	in, warm, err := setUp(m, w, seed, true, short)
	if err != nil {
		return nil, err
	}
	defer func() { in.close() }()

	runtime.GC()
	m.stale()
	off, on := &phase{}, &phase{}
	ref0 := m.refNs
	start := time.Now()
	for n := 1; ; n += 2 {
		in.traceWith(nil)
		runPass(m, in, n, off)
		in.traceWith(tr)
		lo := tr.nextOp.Load() + 1
		runPass(m, in, n+1, on)
		if tr.keeping() {
			in.collectSpans(tr, lo, tr.nextOp.Load())
			tr.closeIfFull()
		}
		if short || time.Since(start).Seconds() >= seconds/2 {
			break
		}
	}
	in.traceWith(nil)
	elapsed := time.Since(start)
	refShare := float64(m.refNs-ref0) / float64(elapsed)

	spans := tr.snapshot()
	path, err := writeSpans(outDir, w.name, spans)
	if err != nil {
		return nil, fmt.Errorf("writing the span file: %w", err)
	}
	fold := foldSpans(spans)
	fmt.Fprintf(os.Stderr, "%d spans written to %s\n", len(spans), path)
	printSpanFold(fold)

	// The probes come last; their slices also complete the neighbourhood
	// of the last measured batches.
	m.stale()
	probes, perrs := runProbes(m, short, outDir)

	res := &result{
		attempted: warm.ops + off.ops + on.ops,
		failed:    warm.failed + off.failed + on.failed,
		errs:      append(append(warm.errs, off.errs...), on.errs...),
		metrics:   map[string]float64{},
	}
	// A metric this workload does not exercise reads 0.
	for _, d := range perLayer {
		res.metrics[d.Name] = 0
	}
	tOff, tOn := off.fold(m), on.fold(m)
	for k, v := range benchDiag(off, tOff, refShare) {
		res.metrics[k] = v
	}
	res.metrics["client.ops"] = float64(off.ops + on.ops)
	res.metrics["client.failed"] = float64(off.failed + on.failed)
	// Traced over untraced throughput: below 1 is what tracing costs.
	res.metrics["trace.overhead_ratio"] = (tOn.opsPerPass / tOn.wallPerPass) / (tOff.opsPerPass / tOff.wallPerPass)
	for k, v := range in.counters() {
		res.metrics[k] = v
	}
	for k, v := range spanMetrics(fold) {
		res.metrics[k] = v
	}
	for k, v := range probes {
		res.metrics[k] = v
	}
	// A probe that could not run is a failed check of the traced run.
	res.failed += len(perrs)
	res.attempted += len(perrs)
	res.errs = append(res.errs, perrs...)
	return res, nil
}

// spanMetrics derives the per-layer metrics that come from the
// program's own spans: the mean length of each serving phase, and the
// split of a search's (S, G) pair time between the intra-stage sweep
// and the inter-stage solver.
func spanMetrics(fold map[string]*spanStat) map[string]float64 {
	out := map[string]float64{}
	mean := func(name string, unit float64) float64 {
		st := fold[name]
		if st == nil || st.count == 0 {
			return 0
		}
		return float64(st.durNs) / float64(st.count) / unit
	}
	out["serve.phase.admission_us"] = mean("admission", unitUs)
	out["serve.phase.forward_us"] = mean("forward", unitUs)
	out["serve.phase.store_check_us"] = mean("store-check", unitUs)
	out["serve.phase.prepare_us"] = mean("prepare", unitUs)
	out["serve.phase.search_ms"] = mean("search", unitMs)
	out["serve.phase.replication_us"] = mean("replication", unitUs)
	if sg := fold["sg"]; sg != nil && sg.durNs > 0 {
		if st := fold["intra-sweep"]; st != nil {
			out["core.intra_sweep_share"] = float64(st.durNs) / float64(sg.durNs)
		}
		if st := fold["inter-stage"]; st != nil {
			out["core.inter_stage_share"] = float64(st.durNs) / float64(sg.durNs)
		}
	}
	return out
}

// printSpanFold prints the span file's per-name summary: count, total
// time and self time.
func printSpanFold(fold map[string]*spanStat) {
	fmt.Fprintf(os.Stderr, "  %-18s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, name := range sortedKeys(fold) {
		st := fold[name]
		fmt.Fprintf(os.Stderr, "  %-18s %8d %12.3f %12.3f\n", name, st.count, float64(st.durNs)/1e6, float64(st.selfNs)/1e6)
	}
}
