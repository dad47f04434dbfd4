package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/opdb"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trace"
)

// Tuner is Mist's automatic distributed-training optimizer for one
// workload on one cluster, restricted to a Space. It is configuration
// only: a search writes none of its fields, so any number of searches may
// run on one tuner at once, each with its own incumbent and counts
// (TuneContext keeps them in locals and the (S, G) pairs return theirs by
// value).
type Tuner struct {
	W       plan.Workload
	Cluster *hardware.Cluster
	An      *schedule.Analyzer
	Space   Space

	// UseMILP selects the paper-faithful MILP inter-stage solver instead
	// of the default exact DP (solveInterDP); the two return the same
	// optimum (cross-checked in tests), the DP is much faster on deep
	// pipelines.
	UseMILP bool

	// Warm is never read: benchmarks/mistperf/seam.go names it (ROADMAP 10 (g)).
	Warm *plan.Plan

	// ev, when set, replaces the analyzer's rows as what this tuner's
	// searches price through: tests install wrappers that fail, count or
	// cancel. Every other tuner, a literal included, prices through
	// An.Rows(), so its searches share rows with every search on An.
	ev pricer

	// disableIncumbent stops completed pairs from feeding the incumbent
	// bound: the search without cross-pair pruning, which tests use as a
	// reference. The chosen plan is identical either way.
	disableIncumbent bool

	// interOracle, when set, solves the inter-stage step of every pair
	// without a device budget in place of the DP and the MILP: tests
	// install the branch-and-bound enumeration they check both against.
	interOracle func(t *Tuner, cands [][]candidate, totalLayers, g int) (*interSolution, error)
}

// pricer is what a search prices through. The analyzer's
// *schedule.Rows is its one implementation; it is an interface so that
// tests can wrap the rows.
type pricer interface {
	Evaluate(schedule.StageShape, schedule.Knobs) (schedule.Result, error)
	EvaluateSets(schedule.StageShape, []*schedule.Batch, []schedule.Row, *schedule.EvalScratch) (hits, misses int, err error)
}

// rows returns what t's searches price through: the analyzer's row store,
// or the test hook ev.
func (t *Tuner) rows() pricer {
	if t.ev != nil {
		return t.ev
	}
	return t.An.Rows()
}

// knobSet returns the knob grid of one layer count: the space's
// checkpoint fractions quantized to the layer count, deduplicated (a small
// layer count folds neighbours together) and sorted, crossed with its
// offload ratios. The analyzer builds each grid once and hands every
// tuner the same set.
func (t *Tuner) knobSet(layers int) *schedule.Batch {
	var buf [8]int
	ckpts := buf[:0]
	for _, f := range t.Space.ckptFractions() {
		c := min(max(int(f*float64(layers)+0.5), 0), layers)
		if !slices.Contains(ckpts, c) {
			ckpts = append(ckpts, c)
		}
	}
	slices.Sort(ckpts)
	return t.An.KnobGrid(layers, ckpts, [4]bool{t.Space.TuneWO, t.Space.TuneGO, t.Space.TuneOO, t.Space.TuneAO})
}

// pairWave caps how many (S, G) pairs search concurrently between two
// publications of the incumbent bound. It is a constant, not
// GOMAXPROCS, so that the work of a search is the same on every
// machine; cores beyond it are used by intraStage's own fan-out.
const pairWave = 4

// waveSize is how many pairs the next wave takes once `finished` pairs
// have run: 1, 1, 2, then pairWave at a time. The first pair runs alone,
// so an incumbent exists before the second is dispatched and the compute
// floor can already skip pairs 2-4; the publication boundaries (1, 2, 4,
// 8, 12, ...) contain every multiple of pairWave, so no pair prunes
// against fewer solutions than under fixed waves of pairWave.
func waveSize(finished int) int {
	return min(pairWave, max(1, finished))
}

// Result reports the tuned plan and tuning statistics.
type Result struct {
	Plan           *plan.Plan
	Predicted      float64 // objective value (predicted iteration seconds)
	PredThroughput float64 // samples/sec under the prediction
	Candidates     int     // intra-stage configurations priced
	SGPairs        int     // (pipeline depth, grad accum) pairs explored
	Elapsed        time.Duration

	// Evaluation-cache traffic of this search alone: hits are candidate
	// pricings answered from the memo store, misses went to the symbolic
	// analyzer. On an error-free search Hits + Misses == Candidates
	// exactly: every attempt lands in Candidates and every successful
	// pricing in exactly one counter. Analyzer errors leave the failed
	// attempt in Candidates but in neither cache counter, so
	// Candidates >= Hits + Misses always.
	EvalCacheHits   uint64
	EvalCacheMisses uint64

	// Incumbent-pruning telemetry (incumbent.go): how many priced
	// candidates the incumbent bound pruned before inter-stage selection,
	// and how many (S, G) pairs it abandoned — mid-sweep, or before
	// anything was priced (FloorSkippedPairs, a subset: computeFloor).
	// Like Candidates they are a function of the search's inputs alone.
	// The first two keep their names because benchmarks/mistperf/seam.go
	// reads them (ROADMAP 10 (g)); there is no warm start.
	WarmPruned        int
	WarmAbortedPairs  int
	FloorSkippedPairs int
}

// CacheHitRate returns the fraction of candidate evaluations served from
// the memo store (0 when the search priced nothing).
func (r *Result) CacheHitRate() float64 {
	if t := r.EvalCacheHits + r.EvalCacheMisses; t > 0 {
		return float64(r.EvalCacheHits) / float64(t)
	}
	return 0
}

// The two calibrated interference models (§5.2.2), fitted once per
// process on first use: the fit depends only on the platform's
// contention simulator, the sample budget and the seed, so there are
// exactly two answers and every analyzer of a platform shares one by
// pointer (a Model is immutable outside its package).
const (
	calibrationSamples = 12
	calibrationSeed    = 42
)

var (
	pcieModel   = calibratedOnce(interference.PCIeFluid)
	nvlinkModel = calibratedOnce(interference.NVLinkFluid)
)

func calibratedOnce(fluid func() *interference.Fluid) func() *interference.Model {
	return sync.OnceValue(func() *interference.Model { return calibrate(fluid()) })
}

// calibrate is the fit itself, a named function rather than the body of
// calibratedOnce's closure: inlining calibratedOnce into the package
// initializer clones that closure, and a clone's own calls are not
// inlined, so every binary linking core carried out-of-line copies of
// rand.New and rand.NewSource.
func calibrate(fluid *interference.Fluid) *interference.Model {
	return interference.Fit(fluid, calibrationSamples, rand.New(rand.NewSource(calibrationSeed)))
}

// CalibratedAnalyzer builds the analyzer New would use: operator
// database from the GPU model, the platform's interference model (fitted
// to its contention simulator once per process and shared), Serialize
// matching the space. Factored out so the serving layer can build one
// analyzer per workload fingerprint and share it (and its rows) across
// requests via NewShared.
func CalibratedAnalyzer(w plan.Workload, cl *hardware.Cluster, space Space) (*schedule.Analyzer, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	intf := pcieModel()
	if cl.HasNVLink() {
		intf = nvlinkModel()
	}
	an := schedule.NewAnalyzer(w.Model, w.Seq, w.Flash, cl, opdb.New(cl.GPU), intf)
	an.Serialize = !space.OverlapAware
	return an, nil
}

// New builds a tuner over CalibratedAnalyzer's analyzer for the cluster
// (operator database from the GPU model; the platform's shared
// interference model).
func New(w plan.Workload, cl *hardware.Cluster, space Space) (*Tuner, error) {
	an, err := CalibratedAnalyzer(w, cl, space)
	if err != nil {
		return nil, err
	}
	return &Tuner{W: w, Cluster: cl, An: an, Space: space}, nil
}

// NewShared builds a tuner over a shared calibrated analyzer (typically
// owned by the serving layer's per-fingerprint registry, so one request's
// pricings, kept in the analyzer's rows, answer the next request's
// search). It never mutates the analyzer — it may be serving concurrent
// searches — and instead rejects a Serialize flag that contradicts the
// space and a cluster whose memory budget is not the analyzer's (the
// search reads the budget from the analyzer, and its rows carry
// staircases under it). cache is never read: benchmarks/mistperf/seam.go
// names it (ROADMAP 10 (g)).
func NewShared(w plan.Workload, cl *hardware.Cluster, an *schedule.Analyzer, space Space, cache *schedule.Rows) (*Tuner, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := cl.Validate(); err != nil {
		return nil, err
	}
	if an.Serialize != !space.OverlapAware {
		return nil, fmt.Errorf("core: shared analyzer Serialize=%v contradicts space %q (overlap-aware=%v)",
			an.Serialize, space.Name, space.OverlapAware)
	}
	if cl.MemoryBudget() != an.Cluster.MemoryBudget() {
		return nil, fmt.Errorf("core: cluster memory budget %.0f B contradicts the shared analyzer's %.0f B",
			cl.MemoryBudget(), an.Cluster.MemoryBudget())
	}
	return &Tuner{W: w, Cluster: cl, An: an, Space: space}, nil
}

// ErrNoFeasiblePlan is returned when every configuration in the space
// exceeds the memory budget (the paper's OOM outcome, e.g. Figure 2(a)).
var ErrNoFeasiblePlan = errors.New("core: no feasible plan in search space (OOM everywhere)")

// Tune searches the configured space and returns the best plan found.
// The (pipeline depth, gradient accumulation) pairs are independent and
// tuned concurrently, up to pairWave at a time (§6.5: "searching over
// different gradient accumulation steps is independent ... can be
// parallelized").
func (t *Tuner) Tune() (*Result, error) {
	return t.TuneContext(context.Background())
}

// TuneContext is Tune under a context: cancellation aborts the search
// between pipeline stages and (S, G) pairs and returns the context's
// error. Used by the async job queue for per-job cancellation.
func (t *Tuner) TuneContext(ctx context.Context) (*Result, error) {
	start := time.Now()
	res := &Result{}

	type sg struct{ s, g int }
	var pairs []sg
	for _, s := range t.stageCounts() {
		for _, g := range t.gradAccums() {
			pairs = append(pairs, sg{s: s, g: g})
		}
	}
	res.SGPairs = len(pairs)

	// The pairs run in waves of waveSize, concurrently within a wave. Each
	// pair of a wave is handed the incumbent bound by value, and the
	// wave's solutions lower it only once the whole wave has finished, so
	// every pair prunes against exactly the solutions of the waves before
	// it: what a search prices is a function of its inputs, not of
	// goroutine timing, and a repeat of a search on filled rows misses
	// nothing. The sweep span covers the whole fan-out; each pair gets its
	// own child span (with floor / intra-sweep / inter-stage children
	// inside tuneSG). Pair spans of one wave overlap by construction, so
	// latency attribution reads the sweep span's duration and treats
	// children as a utilization breakdown.
	type outcome struct {
		sol *interSolution
		n   counts
	}
	type found struct {
		sol  *interSolution
		s, g int
	}
	var best *found
	var total counts
	incumbent := math.Inf(1)
	swctx, swsp := trace.StartSpan(ctx, "sweep")
	outs := make([]outcome, pairWave)
	for done := 0; done < len(pairs) && ctx.Err() == nil; {
		wave := pairs[done:min(done+waveSize(done), len(pairs))]
		done += len(wave)
		bound := incumbent
		// Pairs are claimed off an atomic counter by at most GOMAXPROCS
		// workers: which worker runs a pair changes nothing it computes.
		// The caller is one of them (as in intraStage), so a wave of one —
		// two of every search's waves — spawns nothing and parks nobody:
		// its cost does not depend on when the scheduler hands a worker a
		// core.
		var next atomic.Int32
		drain := func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(wave) {
					return
				}
				p := wave[i]
				pctx, psp := trace.StartSpan(swctx, "sg")
				sol, n, err := t.tuneSG(pctx, p.s, p.g, bound)
				if psp != nil { // boxing the attributes allocates, even for a nil span
					annotatePair(psp, p.s, p.g, bound, n, err)
					psp.End()
				}
				outs[i] = outcome{sol: sol, n: n}
			}
		}
		var wg sync.WaitGroup
		for n := min(len(wave), runtime.GOMAXPROCS(0)) - 1; n > 0; n-- {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		drain()
		wg.Wait()
		for i, o := range outs[:len(wave)] {
			total.add(o.n)
			if o.sol == nil {
				continue
			}
			if obj := o.sol.Objective; !t.disableIncumbent && obj > 0 && obj < incumbent {
				incumbent = obj
			}
			p := wave[i]
			if best == nil || o.sol.Objective < best.sol.Objective ||
				(o.sol.Objective == best.sol.Objective && (p.s < best.s || (p.s == best.s && p.g < best.g))) {
				best = &found{sol: o.sol, s: p.s, g: p.g}
			}
		}
	}
	res.Candidates = total.evaluated
	res.EvalCacheHits = uint64(total.hits)
	res.EvalCacheMisses = uint64(total.misses)
	res.WarmPruned = total.pruned
	res.WarmAbortedPairs = total.aborted
	res.FloorSkippedPairs = total.floorSkipped
	if swsp != nil {
		swsp.Annotate("pairs", res.SGPairs)
		swsp.Annotate("candidates", res.Candidates)
		swsp.Annotate("evalCacheHits", res.EvalCacheHits)
		swsp.Annotate("evalCacheMisses", res.EvalCacheMisses)
		swsp.Annotate("pruned", res.WarmPruned)
		swsp.Annotate("abortedPairs", res.WarmAbortedPairs)
		swsp.End()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(start)
	if best == nil {
		return nil, ErrNoFeasiblePlan
	}
	p := &plan.Plan{GradAccum: best.g}
	for _, c := range best.sol.Stages {
		p.Stages = append(p.Stages, plan.Stage{Shape: c.Shape, Knobs: c.Knobs})
	}
	if err := p.Validate(t.W); err != nil {
		return nil, fmt.Errorf("core: tuned plan invalid: %w", err)
	}
	res.Plan = p
	res.Predicted = best.sol.Objective
	res.PredThroughput = float64(t.W.GlobalBatch) / best.sol.Objective
	return res, nil
}

// annotatePair records on a pair's span its (S, G), how it ended — err is
// tuneSG's, a *prunedError when the incumbent or the floor abandoned the
// pair — and the candidates it priced.
func annotatePair(sp *trace.Span, s, g int, bound float64, n counts, err error) {
	sp.Annotate("s", s)
	sp.Annotate("g", g)
	if pe, ok := err.(*prunedError); ok {
		if pe.byFloor {
			sp.Annotate("prunedBy", "floor")
			sp.Annotate("floor", pe.bound)
		} else {
			sp.Annotate("prunedBy", "incumbent")
			sp.Annotate("bound", pe.bound)
			sp.Annotate("stage", pe.stage)
		}
		sp.Annotate("incumbent", bound)
	} else if err != nil { // OOM or no factorization
		sp.Annotate("infeasible", true)
	}
	sp.Annotate("evals", n.evaluated)
}

// counts is the work of one (S, G) pair, or of several summed: the
// candidates it priced (evaluated), the pricings the rows answered from
// a stored row (hits) and from the analyzer (misses), the candidates the
// incumbent pruned, and the pairs the incumbent abandoned (aborted) —
// mid-sweep or, a subset, before anything was priced (floorSkipped). A
// pair returns its counts by value and TuneContext sums them in pair
// order, so a search's counts are its own whatever runs beside it.
type counts struct {
	evaluated, hits, misses, pruned, aborted, floorSkipped int
}

func (c *counts) add(o counts) {
	c.evaluated += o.evaluated
	c.hits += o.hits
	c.misses += o.misses
	c.pruned += o.pruned
	c.aborted += o.aborted
	c.floorSkipped += o.floorSkipped
}

// tuneSG runs intra-stage tuning + inter-stage selection for one
// (pipeline depth, gradient accumulation) pair, pruning against bound,
// the incumbent objective of the waves before it (+Inf when none has a
// solution). Every stage is swept at TotalGPUs/S devices; under
// heterogeneous assignment (the per-stage (n_i, m_i) variables of
// Table 2) a pipelined pair instead sweeps every stage at each of
// deviceOptions and the inter-stage DP partitions the devices along with
// the layers. ctx carries the search's cancellation and the pair's trace
// span (when tracing is on).
func (t *Tuner) tuneSG(ctx context.Context, s, g int, bound float64) (*interSolution, counts, error) {
	var n counts
	total := t.Cluster.TotalGPUs()
	devOpts, devBudget := []int{total / s}, 0 // no budget: the DP tracks no devices
	if t.Space.HeterogeneousDevices && s > 1 {
		devOpts, devBudget = t.deviceOptions(s), total
	}
	// Bound before pricing: no plan of this pair beats its compute floor, so
	// a pair whose floor exceeds the incumbent (by a margin that keeps ties
	// and rounding safe) is skipped whole. The floor is also where a pair
	// sets up: it fetches the analyzer's model trace on its first pair and
	// evaluates the section costs of each new (TP, b), so it has a span of
	// its own.
	_, fsp := trace.StartSpan(ctx, "floor")
	floor := t.computeFloor(s, g, devOpts)
	fsp.End()
	if floor*(1-1e-9) > bound {
		n.aborted, n.floorSkipped = 1, 1
		return nil, n, &prunedError{byFloor: true, bound: floor}
	}
	if t.Space.UniformStages {
		return t.tuneUniform(ctx, s, g, total/s)
	}
	cands := make([][]candidate, s)
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sc.release()
	_, isp := trace.StartSpan(ctx, "intra-sweep")
	err := func() error {
		var pb pairBound
		for i := 0; i < s; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			var stageC []candidate
			window := t.layerRange(s, i)
			for _, dev := range devOpts {
				priced, err := t.intraStage(ctx, s, g, i, dev, window, sc)
				n.add(priced)
				if err != nil {
					return err
				}
				// The Pareto sampling is per (device count, layer count), so
				// the solver keeps trade-off points for every partition.
				for li := range window {
					for _, p := range paretoSample(sc, li, g, t.Space.paretoSamples()) {
						stageC = append(stageC, sc.candidate(li, p))
					}
				}
			}
			if len(stageC) == 0 {
				return fmt.Errorf("core: stage %d infeasible for S=%d G=%d", i, s, g)
			}
			// The stage minimum is taken before pruning so the bound is on
			// hand when every candidate goes; a pruned candidate is above
			// every kept one, so the minimum is the same either way.
			abandon := pb.add(stageC, g, bound)
			stageC, dropped := pruneByBound(stageC, g, bound)
			n.pruned += dropped
			if abandon || len(stageC) == 0 {
				// Every combination of this pair is provably no better than
				// the incumbent: stop before pricing the remaining stages.
				n.aborted = 1
				return &prunedError{bound: pb.value(g), stage: i}
			}
			cands[i] = stageC
		}
		return nil
	}()
	if isp != nil {
		isp.Annotate("evals", n.evaluated)
		isp.End()
	}
	if err != nil {
		return nil, n, err
	}
	_, nsp := trace.StartSpan(ctx, "inter-stage")
	var sol *interSolution
	switch { // the MILP and the test oracle carry no device constraint
	case t.interOracle != nil && devBudget == 0:
		sol, err = t.interOracle(t, cands, t.W.Model.Layers, g)
	case t.UseMILP && devBudget == 0:
		sol, err = t.solveInterMILP(cands, t.W.Model.Layers, g)
	default:
		sol, err = t.solveInterDP(cands, t.W.Model.Layers, devBudget, g)
	}
	nsp.End()
	if err != nil {
		return nil, n, err
	}
	return sol, n, nil
}

// computeFloor is a lower bound, at no pricing cost, on the objective —
// imbalance-aware or averaged — of every plan the (S, G) pair can produce:
// a stage's stable time is at least its layers times c_min, the cheapest
// schedule.Analyzer.LayerComputeFloor of any (tp, b) the pair enumerates;
// the layers sum to L, the slowest stage is at least the average one and
// deltas are >= 0, so (G-1)·max t + Σ t >= ((G-1)·L/S + L)·c_min. 0 when
// nothing is enumerable: the sweep reports that infeasibility itself.
func (t *Tuner) computeFloor(s, g int, devOpts []int) float64 {
	cMin := math.Inf(1)
	for _, dev := range devOpts {
		for _, pt := range t.parallelisms(dev, g) {
			cMin = min(cMin, t.An.LayerComputeFloor(pt.tp, pt.b))
		}
	}
	if math.IsInf(cMin, 1) {
		return 0
	}
	l := float64(t.W.Model.Layers)
	return (float64(g-1)*l/float64(s) + l) * cMin
}

// deviceOptions enumerates the per-stage device counts explored under
// heterogeneous assignment: powers of two (the practical mesh shapes)
// that leave at least one device for every other stage.
func (t *Tuner) deviceOptions(s int) []int {
	total := t.Cluster.TotalGPUs()
	var out []int
	for d := 1; d <= total-(s-1); d *= 2 {
		out = append(out, d)
	}
	return out
}

// tuneUniform implements the uniform-heuristic baseline (§3.3): one knob
// set shared by every stage, uniform layer split. ctx is tuneSG's.
func (t *Tuner) tuneUniform(ctx context.Context, s, g, devPer int) (*interSolution, counts, error) {
	if t.W.Model.Layers%s != 0 {
		return nil, counts{}, fmt.Errorf("core: uniform heuristic needs S | L")
	}
	l := t.W.Model.Layers / s
	pr := t.rows()
	var best *interSolution
	// Enumerate shared configurations via stage 0's sweep, a window of one
	// layer count, then replicate each feasible entry's knobs (and
	// parallelism) across stages.
	sc := sweepScratchPool.Get().(*sweepScratch)
	defer sc.release()
	n, err := t.intraStage(ctx, s, g, 0, devPer, []int{l}, sc)
	if err != nil {
		return nil, n, err
	}
	// The rows keep only their steps, and the heuristic needs every entry
	// of stage 0 that fits, so each shape's set is priced once more here,
	// whole; those results are stage 0's replicas, and the other stages
	// are priced one candidate at a time.
	knobs := sc.sets[0].Knobs()
	budget := t.An.PlanBudget()
	es := evalScratchPool.Get().(*schedule.EvalScratch)
	defer evalScratchPool.Put(es)
	perf := make([]pipeline.StagePerf, 0, s) // reused: only sel outlives an iteration
	for _, shape0 := range sc.shapes {
		row, err := t.An.EvaluateBatchInto(sc.whole, shape0, knobs, es)
		if err != nil {
			return nil, n, err
		}
		sc.whole = row
		for j := range row {
			if !row[j].Fits(budget) {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, n, err
			}
			sel := make([]candidate, 0, s)
			for i := 0; i < s; i++ {
				shape := shape0
				shape.HasPre = i == 0
				shape.HasPost = i == s-1
				shape.StageIdx = i
				r := row[j] // stage 0's replica is shape0, priced above
				var err error
				if i > 0 {
					r, err = pr.Evaluate(shape, knobs[j])
				}
				n.evaluated++ // the attempt was made whether or not it priced
				if err != nil {
					break
				}
				n.misses++ // a single point is priced on the analyzer, never stored
				if !r.Fits(budget) {
					break
				}
				sel = append(sel, candidate{Shape: shape, Knobs: knobs[j], T: r.Stable, D: r.Delta})
			}
			if len(sel) < s {
				continue
			}
			perf = stagePerfs(perf, sel)
			if obj := t.objective(perf, g); best == nil || obj < best.Objective {
				best = &interSolution{Stages: sel, Objective: obj}
			}
		}
	}
	if best == nil {
		return nil, n, fmt.Errorf("core: uniform heuristic infeasible for S=%d G=%d", s, g)
	}
	return best, n, nil
}

// stageCounts enumerates pipeline depths: divisors of the GPU count
// (uniform device split across stages). With heterogeneous device
// assignment, non-divisor depths up to 8 are also explored, since the
// device-aware solver can split the mesh unevenly.
func (t *Tuner) stageCounts() []int {
	total := t.Cluster.TotalGPUs()
	var out []int
	for s := 1; s <= total && s <= t.W.Model.Layers; s++ {
		if total%s == 0 || (t.Space.HeterogeneousDevices && s <= 8) {
			out = append(out, s)
		}
	}
	return out
}

// gradAccums enumerates gradient accumulation steps: divisors of the
// global batch size.
func (t *Tuner) gradAccums() []int {
	var out []int
	for g := 1; g <= t.W.GlobalBatch; g++ {
		if t.W.GlobalBatch%g == 0 {
			out = append(out, g)
		}
	}
	return out
}

// layerWindow is the half-width of the per-stage layer-count range
// explored around the balanced share.
const layerWindow = 2

// layerRange gives the candidate layer counts for one stage: a window
// around the balanced share ceil(L/S), clipped so every other stage can
// still receive at least one layer.
func (t *Tuner) layerRange(s, stageIdx int) []int {
	layers := t.W.Model.Layers
	if s == 1 {
		return []int{layers}
	}
	center := (layers + s - 1) / s
	lo := center - layerWindow
	if lo < 1 {
		lo = 1
	}
	hi := center + layerWindow
	if maxL := layers - (s - 1); hi > maxL {
		hi = maxL
	}
	var out []int
	for l := lo; l <= hi; l++ {
		out = append(out, l)
	}
	return out
}

// PredictPlan prices an existing plan with the analyzer, returning the
// Eq. 1 iteration-time prediction (used by accuracy experiments and by
// multi-node "benchmark the strategy Mist found" flows).
func (t *Tuner) PredictPlan(p *plan.Plan) (float64, error) {
	if err := p.Validate(t.W); err != nil {
		return 0, err
	}
	perf := make([]pipeline.StagePerf, len(p.Stages))
	for i, st := range p.Stages {
		r, err := t.An.Evaluate(st.Shape, st.Knobs)
		if err != nil {
			return 0, err
		}
		perf[i] = pipeline.StagePerf{Stable: r.Stable, Delta: r.Delta}
	}
	return pipeline.IterationTime(perf, p.GradAccum), nil
}
