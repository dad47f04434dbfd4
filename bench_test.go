package mist

// One benchmark per table/figure of the paper's evaluation (§6). Each
// benchmark regenerates the corresponding experiment at the fast Small
// scale and reports the headline series as custom metrics; run
// `cmd/mistbench -exp <name> [-full]` for the printable tables and the
// paper-scale grids (its output is the record; README "Performance" has
// the committed numbers).
//
// Benchmarks intentionally measure whole experiments (tune + execute):
// use -benchtime=1x for a single regeneration pass.

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/experiments"
)

// runExperiment drives one named experiment b.N times.
func runExperiment(b *testing.B, name string) *experiments.Table {
	b.Helper()
	var tb *experiments.Table
	var err error
	for i := 0; i < b.N; i++ {
		tb, err = experiments.Run(name, experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + tb.String())
	return tb
}

// speedupMetric extracts "<x>x" cells from a column and reports the mean
// as a custom benchmark metric.
func speedupMetric(b *testing.B, tb *experiments.Table, col int, metric string) {
	b.Helper()
	sum, n := 0.0, 0
	for _, row := range tb.Rows {
		if col >= len(row) || !strings.HasSuffix(row[col], "x") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "x"), 64)
		if err != nil {
			continue
		}
		sum += v
		n++
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), metric)
	}
}

// BenchmarkFig02Motivation regenerates Figure 2: tuning each memory
// optimization jointly with parallelism for GPT-3 2.7B on 4 L4 GPUs.
func BenchmarkFig02Motivation(b *testing.B) {
	tb := runExperiment(b, "fig2")
	speedupMetric(b, tb, 2, "speedup-vs-fullckpt")
}

// BenchmarkFig03Comprehensive regenerates Figure 3: comprehensive
// co-optimization vs checkpoint-only tuning for GPT-3 7B on 8 L4 GPUs.
func BenchmarkFig03Comprehensive(b *testing.B) {
	tb := runExperiment(b, "fig3")
	speedupMetric(b, tb, 2, "speedup-vs-3d")
}

// BenchmarkFig05SearchSpace regenerates Figure 5: exact configuration
// counts as optimizations are added.
func BenchmarkFig05SearchSpace(b *testing.B) {
	runExperiment(b, "fig5")
}

// BenchmarkFig11EndToEnd regenerates Figure 11: end-to-end throughput
// with FlashAttention vs Megatron-LM and DeepSpeed.
func BenchmarkFig11EndToEnd(b *testing.B) {
	tb := runExperiment(b, "fig11")
	speedupMetric(b, tb, len(tb.Header)-1, "mist-speedup")
}

// BenchmarkFig12NoFlash regenerates Figure 12: end-to-end throughput
// without FlashAttention, including the Aceso baseline.
func BenchmarkFig12NoFlash(b *testing.B) {
	tb := runExperiment(b, "fig12")
	speedupMetric(b, tb, len(tb.Header)-1, "mist-speedup")
}

// BenchmarkFig13Breakdown regenerates Figure 13: the incremental
// search-space ladder (3D -> +ZeRO -> +CKPT -> +offload -> +imbalance).
func BenchmarkFig13Breakdown(b *testing.B) {
	tb := runExperiment(b, "fig13")
	speedupMetric(b, tb, len(tb.Header)-1, "ladder-avg")
}

// BenchmarkFig14LayerSensitivity regenerates Figure 14: sensitivity to
// model depth with and without FlashAttention.
func BenchmarkFig14LayerSensitivity(b *testing.B) {
	tb := runExperiment(b, "fig14")
	speedupMetric(b, tb, 4, "mist-vs-3d")
}

// BenchmarkFig15BatchSensitivity regenerates Figure 15: sensitivity to
// the global batch size, isolating imbalance-aware pipelining.
func BenchmarkFig15BatchSensitivity(b *testing.B) {
	tb := runExperiment(b, "fig15")
	speedupMetric(b, tb, 3, "mist-vs-3d")
}

// BenchmarkFig16TuningTime regenerates Figure 16: tuning time as the
// search space grows, against a per-configuration re-simulation
// estimate.
func BenchmarkFig16TuningTime(b *testing.B) {
	runExperiment(b, "fig16")
}

// BenchmarkSec66PredictionAccuracy regenerates the §6.6 study: symbolic
// analyzer predictions vs the execution engine.
func BenchmarkSec66PredictionAccuracy(b *testing.B) {
	runExperiment(b, "accuracy")
}

// benchWorkload is the cached-vs-uncached comparison workload: eight GPUs,
// sixteen (S, G) pairs. Since the compute floor and the wave ramp a cold
// search of it sweeps only (S=1, G=1), whose 13 shapes are all distinct —
// the cache's hits on it are a repeat's or a neighbouring batch's
// (BenchmarkTuneHetero still meets canonically identical grids under
// different depths).
func benchWorkload() (Workload, *Cluster) {
	return Workload{Model: Model("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}, L4Cluster(8)
}

// benchTuneCold runs a cold search of space per iteration — on a
// core.New tuner (evaluation cache on), or, as the uncached reference, on
// a Tuner literal over the same calibrated analyzer, which prices
// straight on it — and reports cache metrics.
func benchTuneCold(b *testing.B, space core.Space, uncached bool) {
	w, cl := benchWorkload()
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, err := core.New(w, cl, space)
		if err != nil {
			b.Fatal(err)
		}
		if uncached {
			tn = &core.Tuner{W: w, Cluster: cl, An: tn.An, Space: space}
		}
		res, err = tn.Tune()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Candidates), "candidates")
	if !uncached {
		b.ReportMetric(res.CacheHitRate(), "hit-rate")
		b.ReportMetric(float64(res.EvalCacheMisses), "unique-evals")
	}
}

// TestColdTuneAllocCeiling pins what a cold search allocates: a fresh
// tuner's full Mist-space search of the bench cell stays under 5 000
// allocations (4 004 today, most of them the analyzer's traces; 4 250
// while every tuner refitted the interference model and all four S=1
// pairs were swept, about 6 700 while the twelve pipelined (S, G) pairs
// the compute floor skips still had their stage 0 priced, 8 060 before a
// stage shape's layer window was priced in one pass, 218 860 while every
// stage shape still traced and compiled its own program) and under 1 MiB
// — of which 0.13 MB is the cache's rows, 5 265 points x 24 bytes
// (0.53 MB in all, 0.52 MB before the tape's register file held a block
// of lanes; 0.73 MB with the four S=1 pairs' 11 340 points, 6.9 MB
// with the twelve pipelined pairs' rows, 14.8 MB while schedule.Result
// carried four breakdown fields nothing read).
func TestColdTuneAllocCeiling(t *testing.T) {
	w, cl := benchWorkload()
	runs := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(3, func() {
		runs++ // AllocsPerRun's warm-up call included
		tn, err := core.New(w, cl, core.MistSpace())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
	})
	runtime.ReadMemStats(&after)
	if allocs > 5000 {
		t.Errorf("cold tune allocated %.0f times, want <= 5000", allocs)
	}
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs); bytes > 1<<20 {
		t.Errorf("cold tune allocated %.0f bytes, want <= %d", bytes, 1<<20)
	}
}

// TestRetuneAllocCeiling pins what a re-tune costs on the serving path:
// a fresh core.NewShared tuner over a shared analyzer and a filled
// evaluation cache — what every /tune of a known fingerprint builds —
// searches the bench cell in at most 213 allocations and 16 KiB (157 and
// 7.5 KiB on 2 vCPUs today; 174 and 56.4 KiB while every tuner built its
// own knob grids and the cache interned them by content).
func TestRetuneAllocCeiling(t *testing.T) {
	w, cl := benchWorkload()
	first, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	cache := evalcache.New(first.An)
	retune := func() {
		tn, err := core.NewShared(w, cl, first.An, core.MistSpace(), cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
	}
	retune() // fills the cache and the analyzer's memos
	runs := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, func() {
		runs++ // AllocsPerRun's warm-up call included
		retune()
	})
	runtime.ReadMemStats(&after)
	if raceEnabled {
		return
	}
	if allocs > 213 {
		t.Errorf("re-tune allocated %.0f times, want <= 213", allocs)
	}
	if bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs); bytes > 16<<10 {
		t.Errorf("re-tune allocated %.0f bytes, want <= %d", bytes, 16<<10)
	}
}

// BenchmarkTuneMemoizedCold measures a full Mist-space search with the
// evaluation cache on: the analyzer prices the unique-evals metric's
// worth of candidates and the rest of the candidates metric is served as
// hits — none on this cell, so against BenchmarkTuneUncached the cell
// reads what writing the rows costs a search that never reads them back.
func BenchmarkTuneMemoizedCold(b *testing.B) { benchTuneCold(b, core.MistSpace(), false) }

// BenchmarkTuneHetero is the same cold search with heterogeneous device
// assignment on: every pipelined stage is swept at each power-of-two
// device count, so one canonical stage shape meets overlapping layer
// windows under different pipeline depths. Rows keyed per (shape, layer
// count) serve the layer counts those windows share; unique-evals is the
// number that would grow if rows were keyed by the window instead.
func BenchmarkTuneHetero(b *testing.B) {
	space := core.MistSpace()
	space.HeterogeneousDevices = true
	benchTuneCold(b, space, false)
}

// BenchmarkTuneUncached is the same search on the bare analyzer — every
// candidate goes to the symbolic analyzer (the seed's behavior).
// The chosen plans are identical either way (core's
// TestCacheOnOffIdenticalPlans).
func BenchmarkTuneUncached(b *testing.B) { benchTuneCold(b, core.MistSpace(), true) }

// BenchmarkTuneMemoizedWarm is the serving scenario (cmd/mistserve):
// every iteration re-tunes a workload whose evaluations are already
// memoized through a fresh core.NewShared tuner over one shared analyzer
// and cache, as each /tune of a known fingerprint does. Every candidate
// is a cache hit, so this bounds the steady-state cost of repeated tuning
// traffic, tuner construction included; compare against
// BenchmarkTuneUncached for the cached-vs-uncached speedup.
func BenchmarkTuneMemoizedWarm(b *testing.B) {
	w, cl := benchWorkload()
	first, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		b.Fatal(err)
	}
	cache := evalcache.New(first.An)
	retune := func() *core.Result {
		tn, err := core.NewShared(w, cl, first.An, core.MistSpace(), cache)
		if err != nil {
			b.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	retune() // warm the memo store
	b.ReportAllocs()
	b.ResetTimer()
	var res *core.Result
	for i := 0; i < b.N; i++ {
		res = retune()
	}
	b.ReportMetric(res.CacheHitRate(), "hit-rate")
}
