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
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/trainsim"
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

// benchWorkload is the cold-versus-warm comparison workload: eight GPUs,
// sixteen (S, G) pairs. Since the compute floor and the wave ramp a cold
// search of it sweeps only (S=1, G=1), whose 13 shapes are all distinct —
// the cache's hits on it are a repeat's or a neighbouring batch's
// (BenchmarkTuneHetero still meets canonically identical grids under
// different depths).
func benchWorkload() (Workload, *Cluster) {
	return Workload{Model: Model("gpt3-2.7b"), Seq: 2048, Flash: true, GlobalBatch: 8}, L4Cluster(8)
}

// benchTuneCold runs a cold search of space per iteration on a core.New
// tuner (a fresh analyzer and evaluation cache) and reports cache
// metrics and the (TP, b) the analyzer built section costs for
// (sections).
func benchTuneCold(b *testing.B, space core.Space) {
	w, cl := benchWorkload()
	var res *core.Result
	sections := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn, err := core.New(w, cl, space)
		if err != nil {
			b.Fatal(err)
		}
		res, err = tn.Tune()
		if err != nil {
			b.Fatal(err)
		}
		sections = tn.An.SectionBuilds()
	}
	b.ReportMetric(float64(res.Candidates), "candidates")
	b.ReportMetric(res.CacheHitRate(), "hit-rate")
	b.ReportMetric(float64(res.EvalCacheMisses), "unique-evals")
	b.ReportMetric(float64(sections), "sections")
}

// tuneAllocsOnce measures one fresh core.New search of space on w, cl,
// as testing.AllocsPerRun measures a run but with no warm-up call, so a
// process-wide memo the search fills is read as the miss it is. Pin
// GOMAXPROCS to 1 before the calls that warm the process: a change of it
// empties every sync.Pool.
func tuneAllocsOnce(t *testing.T, w Workload, cl *Cluster, space core.Space) (allocs, bytes float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tn, err := core.New(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

// tuneAllocs runs a fresh core.New search of space on w, cl under
// testing.AllocsPerRun and returns its allocations and bytes per run,
// AllocsPerRun's warm-up call included in the bytes, and the warm-up
// call's tuner. The process holds knob grids only while a caller does,
// and the warm-up's analyzer holds every grid it priced: it stays
// reachable across the measured runs, so they read the same whenever GC
// runs, and a caller that keeps it reachable keeps its grids too.
func tuneAllocs(t *testing.T, w Workload, cl *Cluster, space core.Space) (allocs, bytes float64, warm *core.Tuner) {
	t.Helper()
	runs := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(3, func() {
		runs++ // AllocsPerRun's warm-up call included
		tn, err := core.New(w, cl, space)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
		if warm == nil {
			warm = tn
		}
	})
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs), warm
}

// TestColdTuneAllocCeiling pins what a cold search allocates: a fresh
// tuner's full Mist-space search of the bench cell stays under 312
// allocations (142 today, run alone, the model's trace and knob grids
// the process's from the warm-up call on; 148 while every analyzer built
// its own knob grids; 305 while the compute floor built the full
// section costs of every (TP, b) a pair enumerates, a floor-skipped pair
// boxed its error, each wave and each pair's parallelisms allocated and
// each knob grid dropped its partition scratch; 607 while every analyzer
// traced its own model; 784 while every analyzer compiled its own stage programs; 3 989 while the analyzer traced, ran liveness
// and compiled the section bytes once per TP degree, most of the count;
// 4 003 while the operator database memoized every lookup in a map;
// 4 250 while every tuner refitted the interference model and all four
// S=1 pairs were swept, about 6 700 while the twelve pipelined (S, G)
// pairs the compute floor skips still had their stage 0 priced, 8 060
// before a stage shape's layer window was priced in one pass, 218 860
// while every stage shape still traced and compiled its own program)
// and under 74.8 KiB (62.3 KiB run alone, the process's interference fit,
// model trace, stage programs and knob grids built in the warm-up call;
// 79.5 KiB while every analyzer built its own knob grids; 104 KiB
// with the floor's section costs and grid scratch above; 224 KiB
// while the cache's rows kept all 5 265 priced points at 24 bytes, not
// just their staircase steps, 244 KiB with a trace per analyzer too, 262
// KiB with a compile per analyzer; 0.43 MB with a trace per TP degree,
// 0.50 MB with the operator database's map, 0.52 MB before the tape's
// register file held a block of lanes; 0.73 MB with the four S=1 pairs'
// 11 340 points, 6.9 MB with the twelve pipelined pairs' rows, 14.8 MB
// while schedule.Result carried four breakdown fields nothing read).
// Under the race detector, which defeats sync.Pool reuse, the ceiling is
// the looser 1 500 allocations and 512 KiB.
func TestColdTuneAllocCeiling(t *testing.T) {
	w, cl := benchWorkload()
	allocs, bytes, _ := tuneAllocs(t, w, cl, core.MistSpace())
	t.Logf("cold tune: %.0f allocations, %.1f KiB", allocs, bytes/1024)
	maxAllocs, maxBytes := 312.0, 74.8*1024
	if raceEnabled {
		maxAllocs, maxBytes = 1500, 1<<19
	}
	if allocs > maxAllocs {
		t.Errorf("cold tune allocated %.0f times, want <= %.0f", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("cold tune allocated %.0f bytes, want <= %.0f", bytes, maxBytes)
	}
}

// TestNewFingerprintTuneAllocCeiling pins what the service's write path
// pays for a fingerprint whose (model, seq, flash) the process has never
// traced: a fresh core.New DeepSpeed search of gpt3-1.3b / 2×L4 / batch 8
// / seq 512 (the shape of a fleet-mixed cold /tune; no other test here
// traces that key, so the one measured run is the trace's miss), in a
// process whose tune of another fingerprint compiled the stage programs
// this one meets (seq 1024 leaves one uncompiled, 178 allocations more),
// stays under 505 allocations and 65.4 KiB (452 and 54.3 KiB today, the
// knob grids the other fingerprint's; 478 and 55.9 KiB while every
// analyzer built its own knob grids; 564 and 64.8 KiB while the compute
// floor built section costs for every (TP, b) it enumerated; 924 and
// 112.7 KiB while every analyzer compiled its own stage programs, which
// is most of what so small a search spends).
func TestNewFingerprintTuneAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	w := Workload{Model: Model("gpt3-1.3b"), Seq: 256, Flash: true, GlobalBatch: 8}
	_, _, warm := tuneAllocs(t, w, L4Cluster(2), core.DeepSpeedSpace()) // another fingerprint first
	w.Seq = 512
	allocs, bytes := tuneAllocsOnce(t, w, L4Cluster(2), core.DeepSpeedSpace())
	runtime.KeepAlive(warm) // its knob grids are this search's too
	t.Logf("new-key tune: %.0f allocations, %.1f KiB", allocs, bytes/1024)
	if raceEnabled {
		return
	}
	if allocs > 505 {
		t.Errorf("new-fingerprint tune allocated %.0f times, want <= 505", allocs)
	}
	if maxBytes := 65.4 * 1024; bytes > maxBytes {
		t.Errorf("new-fingerprint tune allocated %.0f bytes, want <= %.0f", bytes, maxBytes)
	}
}

// TestTracedKeyTuneAllocCeiling pins what a new fingerprint costs when
// the process has traced its (model, seq, flash) for another one — a new
// GPU count here; a new batch or Serialize flag shares the key too: the
// fresh analyzer fetches the process's trace and traces nothing, so a
// DeepSpeed search of gpt3-1.3b / 2×L4 / batch 8 / seq 1024 stays under
// 128 allocations and 19.0 KiB (115 and 17.6 KiB today; 121 and 18.1
// KiB while every analyzer built its own knob grids; 191 and 26.9 KiB
// while the compute floor built section costs for every (TP, b) it
// enumerated; 495 and 55.0 KiB while every analyzer traced its own
// model).
func TestTracedKeyTuneAllocCeiling(t *testing.T) {
	w := Workload{Model: Model("gpt3-1.3b"), Seq: 1024, Flash: true, GlobalBatch: 8}
	_, _, warm := tuneAllocs(t, w, L4Cluster(4), core.DeepSpeedSpace()) // traces the key
	allocs, bytes, _ := tuneAllocs(t, w, L4Cluster(2), core.DeepSpeedSpace())
	runtime.KeepAlive(warm) // its knob grids are this search's too
	t.Logf("traced-key tune: %.0f allocations, %.1f KiB", allocs, bytes/1024)
	if raceEnabled {
		return
	}
	if allocs > 128 {
		t.Errorf("traced-key tune allocated %.0f times, want <= 128", allocs)
	}
	if maxBytes := 19.0 * 1024; bytes > maxBytes {
		t.Errorf("traced-key tune allocated %.0f bytes, want <= %.0f", bytes, maxBytes)
	}
}

// TestRetuneAllocCeiling pins what a re-tune costs on the serving path:
// a fresh core.NewShared tuner over a shared analyzer with filled rows —
// what every /tune of a known fingerprint builds —
// searches the bench cell in at most 48 allocations and 5.3 KiB (43 and
// 4.8 KiB on 2 vCPUs today, at GOMAXPROCS 1 to 16; 106 and 7.1-7.5 KiB
// while every floor-skipped pair boxed its error and every wave its worker
// state, and each pair's parallelisms allocated; 156 and 7.7 KiB while
// the sweep walked whole rows and every pair boxed its span attributes;
// 174 and 56.4 KiB while every tuner built its own knob grids and the
// cache interned them by content).
func TestRetuneAllocCeiling(t *testing.T) {
	w, cl := benchWorkload()
	first, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	retune := func() {
		tn, err := core.NewShared(w, cl, first.An, core.MistSpace(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
	}
	retune() // fills the analyzer's rows and memos
	runs := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(20, func() {
		runs++ // AllocsPerRun's warm-up call included
		retune()
	})
	runtime.ReadMemStats(&after)
	t.Logf("re-tune: %.0f allocations, %.1f KiB", allocs, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs)/1024)
	if raceEnabled {
		return
	}
	if allocs > 48 {
		t.Errorf("re-tune allocated %.0f times, want <= 48", allocs)
	}
	if bytes, maxBytes := float64(after.TotalAlloc-before.TotalAlloc)/float64(runs), 5.3*1024; bytes > maxBytes {
		t.Errorf("re-tune allocated %.0f bytes, want <= %.0f", bytes, maxBytes)
	}
}

// BenchmarkTuneMemoizedCold measures a full Mist-space search on a fresh
// evaluation cache: the analyzer prices the unique-evals metric's worth of
// candidates and the rest of the candidates metric is served as hits —
// none on this cell.
func BenchmarkTuneMemoizedCold(b *testing.B) { benchTuneCold(b, core.MistSpace()) }

// BenchmarkTuneHetero is the same cold search with heterogeneous device
// assignment on: every pipelined stage is swept at each power-of-two
// device count, so one canonical stage shape meets overlapping layer
// windows under different pipeline depths. Rows keyed per (shape, layer
// count) serve the layer counts those windows share; unique-evals is the
// number that would grow if rows were keyed by the window instead.
func BenchmarkTuneHetero(b *testing.B) {
	space := core.MistSpace()
	space.HeterogeneousDevices = true
	benchTuneCold(b, space)
}

// coldGrid is the 8-cell grid of mistperf's search-cold workload, listed
// by hand from coldGrid in benchmarks/mistperf/search.go (a module of its
// own, which this package cannot import); TestColdGridMatchesMistperf
// reads that file and fails when the two differ.
var coldGrid = []struct {
	model            string
	a100             bool
	gpus, batch, seq int
	noFlash          bool
}{
	{model: "gpt3-2.7b", gpus: 8, batch: 8, seq: 2048},
	{model: "gpt3-2.7b", gpus: 4, batch: 32, seq: 2048},
	{model: "gpt3-1.3b", gpus: 2, batch: 64, seq: 2048},
	{model: "gpt3-1.3b", gpus: 4, batch: 16, seq: 2048, noFlash: true},
	{model: "llama-1.3b", a100: true, gpus: 4, batch: 32, seq: 4096},
	{model: "llama-2.7b", a100: true, gpus: 8, batch: 16, seq: 4096},
	{model: "falcon-1.3b", gpus: 8, batch: 16, seq: 2048, noFlash: true},
	{model: "gpt3-7b", a100: true, gpus: 8, batch: 8, seq: 4096},
}

// TestColdGridMatchesMistperf: BenchmarkTuneColdGrid profiles what
// mistperf's search-cold workload measures only while coldGrid lists that
// workload's cells in its order. The test parses coldGrid's literal out
// of benchmarks/mistperf/search.go (read-only) and compares cell by cell:
// model, platform, GPUs, batch, sequence length, FlashAttention, and the
// Mist space that BenchmarkTuneColdGrid searches.
func TestColdGridMatchesMistperf(t *testing.T) {
	path := filepath.Join("benchmarks", "mistperf", "search.go")
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var grid *ast.CompositeLit
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for i, name := range vs.Names {
				if name.Name == "coldGrid" && i < len(vs.Values) {
					grid, _ = vs.Values[i].(*ast.CompositeLit)
				}
			}
		}
		return grid == nil
	})
	if grid == nil {
		t.Fatalf("%s: no coldGrid composite literal", path)
	}
	var theirs []string
	for i, el := range grid.Elts {
		cell, ok := el.(*ast.CompositeLit)
		if !ok {
			t.Fatalf("%s: coldGrid[%d] is not a literal", path, i)
		}
		fields := map[string]string{"Platform": "l4", "NoFlash": "false"}
		for _, e := range cell.Elts {
			kv, ok := e.(*ast.KeyValueExpr)
			if !ok {
				t.Fatalf("%s: coldGrid[%d] has a field that is not key: value", path, i)
			}
			key, ok := kv.Key.(*ast.Ident)
			if !ok {
				t.Fatalf("%s: coldGrid[%d] has a key that is not a field name", path, i)
			}
			switch v := kv.Value.(type) {
			case *ast.BasicLit:
				val := v.Value
				if v.Kind == token.STRING {
					if val, err = strconv.Unquote(v.Value); err != nil {
						t.Fatal(err)
					}
				}
				fields[key.Name] = val
			case *ast.Ident:
				fields[key.Name] = v.Name
			default:
				t.Fatalf("%s: coldGrid[%d].%s is not a literal", path, i, key.Name)
			}
		}
		for key := range fields {
			switch key {
			case "Model", "Platform", "GPUs", "Batch", "Seq", "NoFlash", "Space":
			default:
				t.Fatalf("%s: coldGrid[%d] sets %s, which coldGrid here does not model", path, i, key)
			}
		}
		theirs = append(theirs, fmt.Sprintf("%s %s gpus=%s batch=%s seq=%s noflash=%s space=%s",
			fields["Model"], fields["Platform"], fields["GPUs"], fields["Batch"], fields["Seq"], fields["NoFlash"], fields["Space"]))
	}
	var ours []string
	for _, c := range coldGrid {
		platform := "l4"
		if c.a100 {
			platform = "a100"
		}
		ours = append(ours, fmt.Sprintf("%s %s gpus=%d batch=%d seq=%d noflash=%v space=mist",
			c.model, platform, c.gpus, c.batch, c.seq, c.noFlash))
	}
	if !slices.Equal(ours, theirs) {
		t.Errorf("coldGrid differs from %s:\n here:     %s\n mistperf: %s", path,
			strings.Join(ours, "\n           "), strings.Join(theirs, "\n           "))
	}
}

// BenchmarkTuneColdGrid is what mistperf's search-cold workload measures,
// without its harness (reference slices, tracing, plan checks): an
// iteration runs, for each cell of coldGrid, a fresh core.New tuner, a
// full Mist-space search and the trainsim re-measure of its plan. `make
// bench-profile` profiles it (cold-grid-cpu.pprof).
func BenchmarkTuneColdGrid(b *testing.B) {
	type cell struct {
		w  Workload
		cl *Cluster
	}
	var cells []cell
	for _, c := range coldGrid {
		cl := L4Cluster(c.gpus)
		if c.a100 {
			cl = A100Cluster(c.gpus)
		}
		cells = append(cells, cell{Workload{Model: Model(c.model), Seq: c.seq, Flash: !c.noFlash, GlobalBatch: c.batch}, cl})
	}
	candidates, sections := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		candidates, sections = 0, 0
		for _, c := range cells {
			tn, err := core.New(c.w, c.cl, core.MistSpace())
			if err != nil {
				b.Fatal(err)
			}
			res, err := tn.Tune()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := trainsim.New(c.w, c.cl, tn.An).Measure(res.Plan); err != nil {
				b.Fatal(err)
			}
			candidates += res.Candidates
			sections += tn.An.SectionBuilds()
		}
	}
	b.ReportMetric(float64(candidates), "candidates")
	b.ReportMetric(float64(sections), "sections")
}

// BenchmarkTuneMemoizedWarm is the serving scenario (cmd/mistserve):
// every iteration re-tunes a workload whose evaluations are already
// memoized through a fresh core.NewShared tuner over one shared analyzer
// and its rows, as each /tune of a known fingerprint does. Every candidate
// is a cache hit, so this bounds the steady-state cost of repeated tuning
// traffic, tuner construction included; compare against
// BenchmarkTuneMemoizedCold for the cold-versus-warm speedup.
func BenchmarkTuneMemoizedWarm(b *testing.B) {
	w, cl := benchWorkload()
	first, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		b.Fatal(err)
	}
	retune := func() *core.Result {
		tn, err := core.NewShared(w, cl, first.An, core.MistSpace(), nil)
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
