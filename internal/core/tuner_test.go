package core

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trace"
	"repro/internal/trainsim"
)

func testWorkload(name string, batch int) plan.Workload {
	return plan.Workload{Model: model.MustByName(name), Seq: 2048, Flash: true, GlobalBatch: batch}
}

func l4(t *testing.T, gpus int) *hardware.Cluster {
	t.Helper()
	nodes, perNode, err := hardware.MeshForGPUs(gpus)
	if err != nil {
		t.Fatal(err)
	}
	return hardware.L4Cluster(nodes, perNode)
}

func mustTune(t *testing.T, w plan.Workload, gpus int, space Space) *Result {
	t.Helper()
	tn, err := New(w, l4(t, gpus), space)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Tune()
	if err != nil {
		t.Fatalf("tune (%s): %v", space.Name, err)
	}
	return res
}

func TestTuneSmallModel(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	res := mustTune(t, w, 2, MistSpace())
	if res.Plan == nil || res.Predicted <= 0 {
		t.Fatalf("bad result %+v", res)
	}
	if err := res.Plan.Validate(w); err != nil {
		t.Fatalf("plan invalid: %v", err)
	}
	if res.Candidates == 0 || res.SGPairs == 0 {
		t.Error("tuning statistics not recorded")
	}
}

func TestMistBeatsRestrictedSpaces(t *testing.T) {
	// The Mist space strictly contains each baseline space, so its
	// predicted objective can never be worse; with memory pressure it
	// should be strictly better than the 3D-only space.
	w := testWorkload("gpt3-2.7b", 8)
	mist := mustTune(t, w, 4, MistSpace())
	threeD := mustTune(t, w, 4, ThreeDSpace())
	deepspeed := mustTune(t, w, 4, DeepSpeedSpace())
	if mist.Predicted > threeD.Predicted+1e-9 {
		t.Errorf("mist %v worse than 3D %v", mist.Predicted, threeD.Predicted)
	}
	if mist.Predicted > deepspeed.Predicted+1e-9 {
		t.Errorf("mist %v worse than deepspeed %v", mist.Predicted, deepspeed.Predicted)
	}
	if mist.Predicted >= threeD.Predicted {
		t.Errorf("mist %v should strictly beat full-ckpt 3D %v under memory pressure", mist.Predicted, threeD.Predicted)
	}
}

func TestOOMWithoutMemoryOptimization(t *testing.T) {
	// GPT-3 7B on 4 L4 GPUs without any memory optimization and no
	// recomputation OOMs everywhere (the Figure 2(a) phenomenon): the
	// mixed-precision model states alone exceed 24 GB per GPU at any
	// DP/TP/PP split of four devices.
	w := testWorkload("gpt3-7b", 8)
	w.Seq = 4096
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	space := ThreeDSpace()
	space.Name = "no-ckpt"
	space.TuneCkpt = true
	space.CkptFractions = []float64{0} // forbid recomputation
	tn, err := New(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Tune(); !errors.Is(err, ErrNoFeasiblePlan) {
		t.Fatalf("expected ErrNoFeasiblePlan, got %v", err)
	}
}

// TestPredictPlanReproducesPredicted: on the golden cells searched under
// the imbalance-aware objective, re-pricing the returned plan gives back
// the search's own prediction to the bit — PredictPlan and the solvers
// minimise the one Eq. 1 in pipeline. (The DP composes that objective right
// to left, which could round differently in the last place; on these
// cells, whose plans and predictions golden_test.go pins, it does not.)
func TestPredictPlanReproducesPredicted(t *testing.T) {
	hetero := MistSpace()
	hetero.HeterogeneousDevices = true
	for _, cell := range []struct {
		name        string
		model       string
		flash       bool
		batch, gpus int
		a100        bool
		space       Space
	}{
		{"bench-mist-l4x8", "gpt3-2.7b", true, 8, 8, false, MistSpace()},
		{"small-mist-l4x2", "gpt3-1.3b", true, 8, 2, false, MistSpace()},
		{"mist-a100x4", "gpt3-2.7b", true, 8, 4, true, MistSpace()},
		{"deepspeed-l4x4", "gpt3-2.7b", true, 8, 4, false, DeepSpeedSpace()},
		{"threed-l4x4", "gpt3-1.3b", false, 16, 4, false, ThreeDSpace()},
		{"uniform-l4x4", "gpt3-2.7b", true, 8, 4, false, UniformHeuristicSpace()},
		{"hetero-l4x4", "gpt3-1.3b", true, 8, 4, false, hetero},
	} {
		w := testWorkload(cell.model, cell.batch)
		w.Flash = cell.flash
		cl := l4(t, cell.gpus)
		if cell.a100 {
			cl = hardware.A100Cluster(1, cell.gpus)
		}
		tn, err := New(w, cl, cell.space)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		got, err := tn.PredictPlan(res.Plan)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		if got != res.Predicted {
			t.Errorf("%s: PredictPlan(res.Plan) = %v, res.Predicted = %v", cell.name, got, res.Predicted)
		}
	}
}

func TestTunedPlanExecutes(t *testing.T) {
	// The tuned plan must execute on the engine without OOM, and the
	// prediction must be in the right ballpark of the measurement.
	w := testWorkload("gpt3-2.7b", 16)
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	tn, err := New(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	eng := trainsim.New(w, cl, tn.An)
	m, err := eng.Measure(res.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.OOM(cl.MemoryBudget()) {
		t.Errorf("tuned plan OOMs when executed: peaks %v, budget %v", m.PeakMem, cl.MemoryBudget())
	}
	rel := math.Abs(res.Predicted-m.IterTime) / m.IterTime
	if rel > 0.25 {
		t.Errorf("prediction %.3fs vs measured %.3fs: %.0f%% off", res.Predicted, m.IterTime, 100*rel)
	}
}

func TestUniformHeuristicNotBetter(t *testing.T) {
	w := testWorkload("gpt3-2.7b", 8)
	mist := mustTune(t, w, 4, MistSpace())
	uniform := mustTune(t, w, 4, UniformHeuristicSpace())
	if mist.Predicted > uniform.Predicted+1e-9 {
		t.Errorf("mist %v should be at least as good as the uniform heuristic %v", mist.Predicted, uniform.Predicted)
	}
}

func TestBreakdownLadderMonotone(t *testing.T) {
	// Each rung of the Figure 13 ladder adds options, so the predicted
	// objective must be non-increasing (evaluated under the same final
	// Eq. 1 metric via plan re-pricing).
	w := testWorkload("gpt3-2.7b", 8)
	nodes, perNode, _ := hardware.MeshForGPUs(4)
	cl := hardware.L4Cluster(nodes, perNode)
	prev := math.Inf(1)
	prevName := ""
	for _, space := range BreakdownLadder() {
		tn, err := New(w, cl, space)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatalf("%s: %v", space.Name, err)
		}
		// Re-price under the true Eq. 1 objective for a fair comparison.
		mistEval := &Tuner{W: w, Cluster: cl, An: tn.An, Space: MistSpace()}
		truth, err := mistEval.PredictPlan(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if truth > prev*1.02 { // small tolerance: averaged-objective rungs may mis-pick
			t.Errorf("ladder rung %s (%v) regressed vs %s (%v)", space.Name, truth, prevName, prev)
		}
		if truth < prev {
			prev, prevName = truth, space.Name
		}
	}
}

func TestParetoFrontier(t *testing.T) {
	cands := []point{
		{T: 1, D: 5}, {T: 2, D: 2}, {T: 3, D: 1}, {T: 2.5, D: 3}, {T: 4, D: 4},
	}
	sc := &sweepScratch{}
	layOut(sc, [][]point{cands[:2], cands[2:]}, nil)
	front := paretoFrontier(sc, 0)
	if len(front) != 3 {
		t.Fatalf("frontier size %d, want 3 (got %+v)", len(front), front)
	}
	for _, c := range front {
		if c.T == 2.5 || c.T == 4 {
			t.Errorf("dominated candidate %v on frontier", c)
		}
	}
}

func TestParetoSampleEndpoints(t *testing.T) {
	var cands []point
	for i := 0; i < 20; i++ {
		cands = append(cands, point{T: float64(i), D: float64(20 - i)})
	}
	sc := &sweepScratch{}
	layOut(sc, [][]point{cands}, nil)
	out := paretoSample(sc, 0, 4, 3)
	if len(out) == 0 || len(out) > 3 {
		t.Fatalf("sample size %d", len(out))
	}
	// α=1 favors min t; α=0 favors min d: both extremes present.
	hasMinT, hasMinD := false, false
	for _, c := range out {
		if c.T == 0 {
			hasMinT = true
		}
		if c.D == 1 {
			hasMinD = true
		}
	}
	if !hasMinT || !hasMinD {
		t.Errorf("α sweep should include both frontier endpoints: %+v", out)
	}
}

// K == 1 historically divided by k-1, producing NaN scores; the sweep
// now pins α = 1 explicitly, so the single sample is the throughput
// endpoint (min stable time on the frontier).
func TestParetoSampleSingle(t *testing.T) {
	cands := []point{
		{T: 1, D: 5}, {T: 2, D: 2}, {T: 3, D: 1}, {T: 2.5, D: 3}, {T: 4, D: 4},
	}
	sc := &sweepScratch{}
	layOut(sc, [][]point{cands}, nil)
	out := paretoSample(sc, 0, 4, 1)
	if len(out) != 1 {
		t.Fatalf("k=1 sampled %d candidates", len(out))
	}
	if out[0].T != 1 {
		t.Errorf("k=1 picked T=%v, want the min-T frontier point (T=1)", out[0].T)
	}
}

// K at or beyond the frontier size returns the whole frontier, no
// sweep needed.
func TestParetoSampleKExceedsFrontier(t *testing.T) {
	cands := []point{
		{T: 1, D: 5}, {T: 2, D: 2}, {T: 3, D: 1}, {T: 2.5, D: 3}, {T: 4, D: 4},
	}
	sc := &sweepScratch{}
	for _, k := range []int{3, 10} {
		layOut(sc, [][]point{cands}, nil)
		out := paretoSample(sc, 0, 4, k)
		if len(out) != 3 {
			t.Errorf("k=%d sampled %d candidates, want the full 3-point frontier", k, len(out))
		}
	}
	layOut(sc, nil, nil)
	if out := paretoSample(sc, 0, 4, 1); len(out) != 0 {
		t.Errorf("empty candidate set sampled %+v", out)
	}
}

// flakyPricer wraps the tuner's cache but fails configurable subsets of
// the traffic, counting exactly the pricings that succeeded — the
// reference value for the tuner's `evaluated` accounting.
type flakyPricer struct {
	pricer
	failBatchTP  int          // EvaluateSets errors for shapes with this TP (0: never)
	failEvaluate bool         // every single-point Evaluate errors
	points       atomic.Int64 // successful set pricings, in points
	attempts     atomic.Int64 // single-point Evaluate attempts
}

func (f *flakyPricer) Evaluate(s schedule.StageShape, k schedule.Knobs) (schedule.Result, error) {
	f.attempts.Add(1)
	if f.failEvaluate {
		return schedule.Result{}, errors.New("flaky: evaluate failed")
	}
	return f.pricer.Evaluate(s, k)
}

func (f *flakyPricer) EvaluateSets(s schedule.StageShape, sets []*schedule.Batch, out []schedule.Row, sc *schedule.EvalScratch) (int, int, error) {
	if f.failBatchTP != 0 && s.TP == f.failBatchTP {
		return 0, 0, errors.New("flaky: batch failed")
	}
	hits, misses, err := f.pricer.EvaluateSets(s, sets, out, sc)
	if err == nil {
		for _, set := range sets {
			f.points.Add(int64(set.Len()))
		}
	}
	return hits, misses, err
}

// TestIntraStageExactCountOnError pins the accounting fix: when one
// shape's batch fails, intraStage still reports every pricing that other
// (possibly later-scheduled) shapes completed — not zero, not a partial
// early-return tally.
func TestIntraStageExactCountOnError(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	nodes, perNode, err := hardware.MeshForGPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := New(w, hardware.L4Cluster(nodes, perNode), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyPricer{pricer: tn.rows(), failBatchTP: 2}
	tn.ev = fl

	sc := &sweepScratch{}
	n, err := tn.intraStage(context.Background(), 1, 1, 0, 2, []int{w.Model.Layers}, sc)
	if err == nil {
		t.Fatal("TP=2 batches were supposed to fail")
	}
	if got, want := int64(n.evaluated), fl.points.Load(); got != want {
		t.Errorf("intraStage reported %d evaluations, backend completed %d", got, want)
	}
	if fl.points.Load() == 0 {
		t.Fatal("no TP=1 shape priced; the test exercised nothing")
	}
}

// gaugePricer records, at every EvaluateSets call, how many calls are in
// flight and how many intraSem tokens are held — one per extra worker
// alive; a worker keeps its token until the shapes run out, so the
// caller's first call sees every worker the sweep spawned.
type gaugePricer struct {
	pricer
	inFlight            atomic.Int32
	maxFlight, maxExtra atomic.Int32
}

func (e *gaugePricer) EvaluateSets(s schedule.StageShape, sets []*schedule.Batch, out []schedule.Row, sc *schedule.EvalScratch) (int, int, error) {
	raise := func(max *atomic.Int32, n int32) {
		for m := max.Load(); n > m && !max.CompareAndSwap(m, n); m = max.Load() {
		}
	}
	raise(&e.maxFlight, e.inFlight.Add(1))
	defer e.inFlight.Add(-1)
	raise(&e.maxExtra, int32(len(intraSem)))
	return e.pricer.EvaluateSets(s, sets, out, sc)
}

// TestIntraStageWorkersFollowGOMAXPROCS: the semaphore is sized when the
// package loads, but a process may lower GOMAXPROCS afterwards (the
// benchmark pins 2, containers do the same): one sweep prices on at most
// the GOMAXPROCS it reads when called — the caller plus GOMAXPROCS-1
// extra workers — however many tokens the semaphore still has.
func TestIntraStageWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	defer func(old chan struct{}) { intraSem = old }(intraSem)
	intraSem = make(chan struct{}, 8) // as if the package had loaded on 8 CPUs

	w := testWorkload("gpt3-2.7b", 8)
	tn, err := New(w, l4(t, 8), MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		// A fresh store: every shape misses and prices, so no worker drains
		// the sweep before the caller's first call.
		ev := &gaugePricer{pricer: schedule.NewRows(tn.An)}
		tn.ev = ev
		sc := &sweepScratch{}
		if _, err := tn.intraStage(context.Background(), 1, 1, 0, 8, []int{w.Model.Layers}, sc); err != nil {
			t.Fatal(err)
		}
		if len(sc.shapes) < 4 {
			t.Fatalf("sweep has %d shapes, too few to tell the bounds apart", len(sc.shapes))
		}
		if got := int(ev.maxExtra.Load()); got != procs-1 {
			t.Errorf("GOMAXPROCS=%d: sweep spawned %d extra workers, want %d", procs, got, procs-1)
		}
		if got := int(ev.maxFlight.Load()); got > procs {
			t.Errorf("GOMAXPROCS=%d: %d shapes priced at once", procs, got)
		}
	}
}

// TestTuneUniformCountsFailedEvaluations pins the companion fix in the
// uniform-heuristic baseline: a single-point Evaluate that errors is
// still an attempt the evaluator made, so it must be counted. At S = 2
// each fitting entry of stage 0 makes two attempts: its stage-0 replica,
// which is the stage's whole-set pricing and succeeds, and its stage-1
// replica, one failing Evaluate.
func TestTuneUniformCountsFailedEvaluations(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	nodes, perNode, err := hardware.MeshForGPUs(2)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := New(w, hardware.L4Cluster(nodes, perNode), UniformHeuristicSpace())
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyPricer{pricer: tn.rows(), failEvaluate: true}
	tn.ev = fl

	_, n, err := tn.tuneUniform(context.Background(), 2, 1, 1)
	if err == nil {
		t.Fatal("all-failing Evaluate was supposed to leave the heuristic infeasible")
	}
	if fl.attempts.Load() == 0 {
		t.Fatal("no single-point evaluations attempted; the test exercised nothing")
	}
	want := fl.points.Load() + 2*fl.attempts.Load()
	if int64(n.evaluated) != want {
		t.Errorf("tuneUniform reported %d evaluations, want %d (%d batch points + %d stage-0 replicas + %d failed attempts)",
			n.evaluated, want, fl.points.Load(), fl.attempts.Load(), fl.attempts.Load())
	}
}

func TestLayerRange(t *testing.T) {
	w := testWorkload("gpt3-2.7b", 8) // 32 layers
	tn := &Tuner{W: w}
	if r := tn.layerRange(1, 0); len(r) != 1 || r[0] != 32 {
		t.Errorf("S=1 range %v", r)
	}
	r := tn.layerRange(4, 1)
	for _, l := range r {
		if l < 1 || l > 29 {
			t.Errorf("layer count %d out of bounds", l)
		}
	}
	// Balanced share 8 must be present.
	found := false
	for _, l := range r {
		if l == 8 {
			found = true
		}
	}
	if !found {
		t.Errorf("balanced share missing from %v", r)
	}
}

func TestGradAccumsAreDivisors(t *testing.T) {
	tn := &Tuner{W: testWorkload("gpt3-1.3b", 12)}
	for _, g := range tn.gradAccums() {
		if 12%g != 0 {
			t.Errorf("G=%d does not divide 12", g)
		}
	}
}

// The memoizing evaluation cache must be a pure optimization: a search on
// a cache another tuner filled picks the byte-identical plan and prices
// the same candidates as one on a fresh cache, and every pricing lands in
// exactly one of its counters. The fresh search does not hit: the wave
// ramp runs (S=1, G=1) alone, and the incumbent it leaves is under the
// compute floor of every other pair, so the search prices that pair's 9
// distinct shapes (TP in {1, 2, 4}, four ZeRO levels where DP > 1, one
// where DP = 1) x 405 knobs = 3 645 candidates, once each. The filler is
// the same search at batch 32, where (S=1, G=2) survives its floor too:
// its microbatch sizes 32 / (2 DP) are (S=1, G=1)'s at batch 16, so on its
// cache the batch-16 search hits all 3 645 rows and misses none.
func TestCacheOnOffIdenticalPlans(t *testing.T) {
	w, cl := testWorkload("gpt3-2.7b", 16), l4(t, 4)
	fresh, err := New(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	filled, err := CalibratedAnalyzer(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	filler, err := NewShared(testWorkload("gpt3-2.7b", 32), cl, filled, MistSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	onFilled, err := NewShared(w, cl, filled, MistSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*Result{}
	for _, run := range []struct {
		name string
		tn   *Tuner
	}{{"fresh", fresh}, {"filler", filler}, {"on filled", onFilled}} {
		r, err := run.tn.Tune()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if got := r.EvalCacheHits + r.EvalCacheMisses; got != uint64(r.Candidates) {
			t.Errorf("%s search: hits+misses = %d, want the %d candidates priced", run.name, got, r.Candidates)
		}
		results[run.name] = r
	}
	rf, ro := results["fresh"], results["on filled"]
	if !reflect.DeepEqual(rf.Plan, ro.Plan) {
		t.Errorf("plan on a filled cache differs from a fresh cache's:\n%v\nvs\n%v", ro.Plan, rf.Plan)
	}
	if rf.Predicted != ro.Predicted {
		t.Errorf("objective on a filled cache %v != on a fresh cache %v", ro.Predicted, rf.Predicted)
	}
	if rf.Candidates != 3645 || rf.EvalCacheHits != 0 {
		t.Errorf("fresh search priced %d candidates with %d hits, want 3645 and 0", rf.Candidates, rf.EvalCacheHits)
	}
	if ro.Candidates != rf.Candidates || ro.EvalCacheMisses != 0 || ro.CacheHitRate() != 1 {
		t.Errorf("search on a filled cache: %d candidates, %d hits, %d misses; want the fresh search's %d, all hits",
			ro.Candidates, ro.EvalCacheHits, ro.EvalCacheMisses, rf.Candidates)
	}
}

// countingPricer sums the hits and misses its EvaluateSets calls return:
// every pricing of every search that goes through it.
type countingPricer struct {
	pricer
	priced atomic.Uint64
}

func (c *countingPricer) EvaluateSets(s schedule.StageShape, sets []*schedule.Batch, out []schedule.Row, sc *schedule.EvalScratch) (int, int, error) {
	hits, misses, err := c.pricer.EvaluateSets(s, sets, out, sc)
	c.priced.Add(uint64(hits + misses))
	return hits, misses, err
}

// Searches running at once on one shared cache each report their own
// traffic: hits + misses is exactly the search's candidates, and the
// searches' counts add up to every pricing the cache answered. Repeated
// on fresh caches so that the two searches overlap on any box; `make race`
// repeats it under the race detector.
func TestConcurrentSearchesCountTheirOwnTraffic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cl := l4(t, 8)
	an, err := CalibratedAnalyzer(testWorkload("gpt3-2.7b", 16), cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		counter := &countingPricer{pricer: schedule.NewRows(an)}
		var tuners []*Tuner
		for _, batch := range []int{16, 32} {
			tn, err := NewShared(testWorkload("gpt3-2.7b", batch), cl, an, MistSpace(), nil)
			if err != nil {
				t.Fatal(err)
			}
			tn.ev = counter
			tuners = append(tuners, tn)
		}
		results, errs := make([]*Result, len(tuners)), make([]error, len(tuners))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i, tn := range tuners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i], errs[i] = tn.Tune()
			}()
		}
		close(start)
		wg.Wait()
		var sum uint64
		for i, r := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			got := r.EvalCacheHits + r.EvalCacheMisses
			if got != uint64(r.Candidates) {
				t.Errorf("round %d, batch %d: hits+misses = %d over %d candidates", round, tuners[i].W.GlobalBatch, got, r.Candidates)
			}
			sum += got
		}
		if got := counter.priced.Load(); got != sum {
			t.Errorf("round %d: the cache answered %d pricings, the searches counted %d", round, got, sum)
		}
	}
}

// A search is a value: the tuner is configuration only, so searches
// running at once on one tuner — one cache, one analyzer — each return
// what a lone search of the bench cell returns: its plan and prediction,
// its 5 265 candidates (hits and misses split between the searches however
// they interleave, but summing to the candidates), no incumbent-pruned
// candidate and 15 pairs abandoned, all 15 by their compute floor. Repeated
// on fresh tuners so that the searches overlap on any box; `make race`
// repeats it under the race detector.
func TestConcurrentSearchesOnOneTuner(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	w, cl := testWorkload("gpt3-2.7b", 8), l4(t, 8)
	lone, err := New(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lone.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if want.Candidates != 5265 || want.WarmPruned != 0 || want.WarmAbortedPairs != 15 || want.FloorSkippedPairs != 15 {
		t.Fatalf("lone search: %d candidates, %d pruned, %d aborted, %d floor-skipped; want 5265, 0, 15, 15",
			want.Candidates, want.WarmPruned, want.WarmAbortedPairs, want.FloorSkippedPairs)
	}
	const searches = 4
	for round := 0; round < 3; round++ {
		tn, err := New(w, cl, MistSpace())
		if err != nil {
			t.Fatal(err)
		}
		results, errs := make([]*Result, searches), make([]error, searches)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i], errs[i] = tn.Tune()
			}()
		}
		close(start)
		wg.Wait()
		for i, r := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !reflect.DeepEqual(r.Plan, want.Plan) || r.Predicted != want.Predicted {
				t.Errorf("round %d, search %d: plan %v (%v s), a lone search %v (%v s)", round, i, r.Plan, r.Predicted, want.Plan, want.Predicted)
			}
			if r.Candidates != want.Candidates || r.WarmPruned != want.WarmPruned ||
				r.WarmAbortedPairs != want.WarmAbortedPairs || r.FloorSkippedPairs != want.FloorSkippedPairs {
				t.Errorf("round %d, search %d: %d candidates, %d pruned, %d aborted, %d floor-skipped; a lone search %d, %d, %d, %d",
					round, i, r.Candidates, r.WarmPruned, r.WarmAbortedPairs, r.FloorSkippedPairs,
					want.Candidates, want.WarmPruned, want.WarmAbortedPairs, want.FloorSkippedPairs)
			}
			if got := r.EvalCacheHits + r.EvalCacheMisses; got != uint64(r.Candidates) {
				t.Errorf("round %d, search %d: hits+misses = %d over %d candidates", round, i, got, r.Candidates)
			}
		}
	}
}

// The wave ramp 1, 1, 2, 4, 4, ...: the first pair runs alone, no wave is
// wider than pairWave, every multiple of pairWave is a publication
// boundary (so each pair sees at least the solutions fixed waves of
// pairWave showed it), and the waves cover n pairs exactly.
func TestWaveSizeRamp(t *testing.T) {
	for _, c := range []struct{ finished, want int }{{0, 1}, {1, 1}, {2, 2}, {4, 4}, {8, 4}, {12, 4}} {
		if got := waveSize(c.finished); got != c.want {
			t.Errorf("waveSize(%d) = %d, want %d", c.finished, got, c.want)
		}
	}
	for n := 0; n <= 64; n++ {
		boundaries := map[int]bool{}
		done := 0
		for done < n {
			size := min(waveSize(done), n-done) // TuneContext clips the last wave the same way
			if size < 1 || size > pairWave || (done == 0 && size != 1) {
				t.Fatalf("n=%d: wave of %d pairs after %d finished", n, size, done)
			}
			done += size
			boundaries[done] = true
		}
		if done != n {
			t.Errorf("n=%d: waves cover %d pairs", n, done)
		}
		for b := pairWave; b <= n; b += pairWave {
			if !boundaries[b] {
				t.Errorf("n=%d: no publication after pair %d, fixed waves of %d had one", n, b, pairWave)
			}
		}
	}
}

// goroutineID is the running goroutine's number, off its stack header
// ("goroutine 18 [running]:").
func goroutineID() string {
	var buf [64]byte
	return string(bytes.Fields(buf[:runtime.Stack(buf[:], false)])[1])
}

// callerPricer counts the EvaluateSets calls that ran on another
// goroutine than the one it was built on.
type callerPricer struct {
	pricer
	home           string
	calls, foreign atomic.Int32
}

func (e *callerPricer) EvaluateSets(s schedule.StageShape, sets []*schedule.Batch, out []schedule.Row, sc *schedule.EvalScratch) (int, int, error) {
	e.calls.Add(1)
	if goroutineID() != e.home {
		e.foreign.Add(1)
	}
	return e.pricer.EvaluateSets(s, sets, out, sc)
}

// A wave of one pair is searched by the goroutine that called Tune: no
// worker is spawned for it and nothing parks, so what it costs does not
// depend on when the scheduler gives a worker a core (the first two waves
// of every search are such waves). One GPU and a batch of one leave the
// single pair (1, 1) with a single stage shape, so intraStage fans out
// nothing either and every pricing call must come from the caller.
func TestWaveOfOneRunsOnTheCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	tn, err := New(testWorkload("gpt3-1.3b", 1), l4(t, 1), MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	ev := &callerPricer{pricer: tn.rows(), home: goroutineID()}
	tn.ev = ev
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.SGPairs != 1 || ev.calls.Load() == 0 {
		t.Fatalf("%d pairs, %d pricing calls: want one pair that prices", res.SGPairs, ev.calls.Load())
	}
	if n := ev.foreign.Load(); n != 0 {
		t.Errorf("%d of %d pricing calls of a one-pair wave ran off the calling goroutine", n, ev.calls.Load())
	}
}

// The work of a search is a function of its inputs: the bench cell's
// full Mist-space search prices the same candidates and prunes, aborts and
// floor-skips the same amounts at every GOMAXPROCS, run after run, a pair
// skipped by its compute floor reports no evaluation at all, wave one is
// the first pair alone (its sg span ends before any other starts, so its
// solution bounds pair two), and a repeat on the filled cache misses
// nothing.
func TestSearchWorkIsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w := testWorkload("gpt3-2.7b", 8)
	type work struct{ candidates, pruned, aborted, floorSkipped int }
	var want work
	for i, procs := range []int{1, 2, 4, 2, 1} {
		runtime.GOMAXPROCS(procs)
		tn, err := New(w, l4(t, 8), MistSpace())
		if err != nil {
			t.Fatal(err)
		}
		r, spans := sgSpans(t, tn)
		got := work{r.Candidates, r.WarmPruned, r.WarmAbortedPairs, r.FloorSkippedPairs}
		if i == 0 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS=%d: search work %+v, first run %+v", procs, got, want)
		}
		slices.SortFunc(spans, func(a, b trace.SpanData) int { return cmp.Compare(a.StartUnixNs, b.StartUnixNs) })
		if first := spans[0]; first.Attrs["s"] != 1 || first.Attrs["g"] != 1 || first.StartUnixNs+first.DurationNs > spans[1].StartUnixNs {
			t.Errorf("GOMAXPROCS=%d: wave one is not the pair (1, 1) alone: first sg span %v runs %d..%d ns, the next starts at %d",
				procs, first.Attrs, first.StartUnixNs, first.StartUnixNs+first.DurationNs, spans[1].StartUnixNs)
		}
		skipped := 0
		for _, sp := range spans {
			if sp.Attrs["prunedBy"] != "floor" {
				continue
			}
			skipped++
			if sp.Attrs["evals"] != 0 || sp.Attrs["floor"].(float64) <= sp.Attrs["incumbent"].(float64) {
				t.Errorf("GOMAXPROCS=%d: floor-skipped pair %v: want 0 evals and floor > incumbent", procs, sp.Attrs)
			}
		}
		if skipped == 0 || skipped != r.FloorSkippedPairs {
			t.Errorf("GOMAXPROCS=%d: %d sg spans say prunedBy=floor, the result %d; want equal and > 0",
				procs, skipped, r.FloorSkippedPairs)
		}
		again, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if again.EvalCacheMisses != 0 || again.Candidates != r.Candidates {
			t.Errorf("GOMAXPROCS=%d: repeat search missed %d times over %d candidates, want 0 over %d",
				procs, again.EvalCacheMisses, again.Candidates, r.Candidates)
		}
	}
}

// Repeating a search on the same tuner answers everything from the memo
// store: the incumbent bound is published between waves of pairs, never
// mid-wave, so the second run prices exactly the rows the first did.
func TestCacheWarmSecondSearch(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	nodes, perNode, _ := hardware.MeshForGPUs(2)
	cl := hardware.L4Cluster(nodes, perNode)
	tn, err := New(w, cl, DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Plan, r2.Plan) {
		t.Error("warm search picked a different plan")
	}
	if r2.EvalCacheMisses != 0 || r2.Candidates != r1.Candidates {
		t.Errorf("second search missed %d times over %d candidates (first search: %d candidates), want 0 misses over the same candidates",
			r2.EvalCacheMisses, r2.Candidates, r1.Candidates)
	}
	if got := r2.EvalCacheHits + r2.EvalCacheMisses; got != uint64(r2.Candidates) {
		t.Errorf("second search hits+misses %d != candidates %d", got, r2.Candidates)
	}
}

// NewShared never changes the analyzer it is handed, so it refuses one
// that answers another question: a Serialize flag the space contradicts,
// and a cluster whose memory budget is not the analyzer's (its rows carry
// staircases under the analyzer's plan budget). A cluster of another size
// with the same budget is accepted.
func TestNewSharedRejectsContradictions(t *testing.T) {
	w, cl := testWorkload("gpt3-2.7b", 8), l4(t, 8)
	an, err := CalibratedAnalyzer(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		cl    *hardware.Cluster
		space Space
		want  string // "" accepts
	}{
		{"same analyzer", cl, MistSpace(), ""},
		{"same budget, other size", l4(t, 4), MistSpace(), ""},
		{"serialize", cl, AcesoSpace(), "Serialize"},
		{"budget", hardware.A100Cluster(1, 8), MistSpace(), "memory budget"},
	} {
		_, err := NewShared(w, c.cl, an, c.space, nil)
		if c.want == "" && err != nil {
			t.Errorf("%s: rejected: %v", c.name, err)
		}
		if c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// The knob grids and the rows are the analyzer's, not the tuner's: a
// NewShared tuner and a Tuner literal over one analyzer get the same set
// for a layer count, and a second search on a fresh tuner of either kind
// misses nothing — it builds no knob set and no store of its own, so
// every row it asks for is one the first search stored.
func TestTunersOfOneAnalyzerShareItsKnobGrids(t *testing.T) {
	w, cl := testWorkload("gpt3-2.7b", 8), l4(t, 8)
	first, err := New(w, cl, MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	shared, err := NewShared(w, cl, first.An, MistSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	literal := &Tuner{W: w, Cluster: cl, An: first.An, Space: MistSpace()}
	for _, l := range []int{1, 8, 32} {
		if a, b := shared.knobSet(l), literal.knobSet(l); a != b {
			t.Errorf("layer count %d: a NewShared tuner and a Tuner literal got different knob sets", l)
		}
	}

	if r, err := first.Tune(); err != nil || r.EvalCacheMisses == 0 {
		t.Fatalf("first search: %v, %+v; want one that prices", err, r)
	}
	for _, second := range []*Tuner{shared, literal} {
		res, err := second.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if res.EvalCacheMisses != 0 || res.EvalCacheHits != uint64(res.Candidates) {
			t.Errorf("second search: %d misses, %d hits over %d candidates; want all hits",
				res.EvalCacheMisses, res.EvalCacheHits, res.Candidates)
		}
	}
}

// A uniform-heuristic search prices each stage replica as a single
// candidate (stage 0's from its shape's whole-set pricing), and the cache
// stores none of them: what the search leaves in its cache is its grid
// rows' staircases, under 1 byte per held point of its 56 538 (24.5 B
// while a row kept every priced entry) — not a row, a set and a map slot
// for each of its 82 587 replicas too (125 B a held point, 17.3 MB, while
// they were kept).
func TestUniformSearchCacheHoldsOnlyGridRows(t *testing.T) {
	w, cl := testWorkload("gpt3-7b", 128), l4(t, 16)
	warm, err := New(w, cl, UniformHeuristicSpace())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Tune(); err != nil { // the analyzer's traces, programs and grids
		t.Fatal(err)
	}
	tn, err := NewShared(w, cl, warm.An, UniformHeuristicSpace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	cache := schedule.NewRows(warm.An) // the analyzer's own rows are full
	tn.ev = cache
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(cache)
	held := cache.Len()
	if held == 0 || held >= res.Candidates {
		t.Errorf("cache holds %d points for %d candidates: want the grid rows, not the replicas", held, res.Candidates)
	}
	perPoint := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(max(held, 1))
	if perPoint > 40 {
		t.Errorf("the search left %.0f B of heap per held point (%d points), want <= 40", perPoint, held)
	}
	t.Logf("%d candidates, %d points held, %.1f B of heap per held point", res.Candidates, held, perPoint)
}

// TuneContext honors cancellation: a pre-canceled context aborts without
// a result, and the error is the context's.
func TestTuneContextCancellation(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 8)
	tn, err := New(w, l4(t, 2), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tn.TuneContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled tune returned %v", err)
	}
	// The tuner outlives the search but keeps nothing of it: a reuse is a
	// clean search.
	fresh, err := New(w, l4(t, 2), DeepSpeedSpace())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Tune()
	if err != nil {
		t.Fatal(err)
	}
	got, err := tn.Tune()
	if err != nil {
		t.Fatalf("Tune on a tuner reused after a canceled search: %v", err)
	}
	if got.Predicted != want.Predicted || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Errorf("reused tuner found %v (%.6g s), a fresh one %v (%.6g s)", got.Plan, got.Predicted, want.Plan, want.Predicted)
	}

	// A context canceled mid-flight also aborts, at the next check: each
	// pricing worker looks at the context before it claims a shape, so no
	// more pricing calls complete than there are workers. The context is
	// canceled by the first pricing call itself, not by a timer that a
	// fast search can outrun.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	tn2, err := New(testWorkload("gpt3-2.7b", 32), l4(t, 4), MistSpace())
	if err != nil {
		t.Fatal(err)
	}
	cp := &cancelingPricer{pricer: tn2.rows(), cancel: cancel2}
	tn2.ev = cp
	if _, err := tn2.TuneContext(ctx2); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-flight cancel returned %v", err)
	}
	if n, procs := cp.calls.Load(), runtime.GOMAXPROCS(0); n == 0 || int(n) > procs {
		t.Errorf("a search canceled at its first pricing call made %d pricing calls, want 1 to %d", n, procs)
	}
}

// cancelingPricer cancels a search's context at its first pricing call
// and counts the calls.
type cancelingPricer struct {
	pricer
	cancel context.CancelFunc
	calls  atomic.Int32
}

func (c *cancelingPricer) EvaluateSets(s schedule.StageShape, sets []*schedule.Batch, out []schedule.Row, sc *schedule.EvalScratch) (int, int, error) {
	c.calls.Add(1)
	c.cancel()
	return c.pricer.EvaluateSets(s, sets, out, sc)
}

// Tuner.Warm is a field the search never reads (it stays because
// benchmarks/mistperf/seam.go names it): setting it — to the search's own
// plan, or to a neighbour's at half the batch — changes nothing a search
// returns.
func TestWarmFieldIsInert(t *testing.T) {
	w := testWorkload("gpt3-1.3b", 16)
	tune := func(warm *plan.Plan) *Result {
		tn, err := New(w, l4(t, 4), DeepSpeedSpace())
		if err != nil {
			t.Fatal(err)
		}
		tn.Warm = warm
		res, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		return res
	}
	want := tune(nil)
	neighbour := mustTune(t, testWorkload("gpt3-1.3b", 8), 4, DeepSpeedSpace())
	for name, warm := range map[string]*plan.Plan{"own plan": want.Plan, "neighbour's plan": neighbour.Plan} {
		if got := tune(warm); !reflect.DeepEqual(got, want) {
			t.Errorf("Warm = %s: search returned\n%+v\nwithout it\n%+v", name, got, want)
		}
	}
}
