package schedule

import (
	"fmt"
	"sync"
	"sync/atomic"
	"weak"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/symbolic"
)

// Frame layout of a compiled stage program: the shape coefficients, then
// the offload tuple, then the layer and checkpoint counts. The tape is
// staged by variable (symbolic.Program), so a pricing call runs the
// coefficient prefix once, each further block of tuple groups only the
// suffix from frameWO, and each further member position of a block only
// the l/ckpt suffix (priceGroups).
//
// A coefficient holds one shape constant exactly as the symbolic
// constructors would have folded it had it been a literal: Div by a
// constant becomes a reciprocal factor, constant factors of a product
// multiply together left to right, constant terms of a sum add left to
// right. fillCoefs computes each in plain Go in that order, and
// variantExprs keeps every n-ary node's operand order, so a lifted
// program rounds exactly as a per-shape program over literals would
// (reference_test.go holds that build and checks it with ==).
const (
	cInvBW    = iota // 1/hostBW
	cH2DW            // (1/hostBW)·pLayerBytes: weight prefetch seconds per unit wo
	cD2HStash        // (1/hostBW)·stash: activation offload seconds per unit ao, plain layer
	cD2HBound        // (1/hostBW)·boundary: the same for a checkpointed layer
	cD2HG            // (1/hostBW)·gLayerBytes: gradient offload seconds per unit go
	cPL              // pLayerBytes
	cStash           // saved-activation bytes of a plain layer
	cBound           // boundary-tensor bytes, the stash of a checkpointed layer
	cStepH2D         // (1/hostBW)·(oShard·pLayerBytes)
	cStepD2H         // (1/hostBW)·(oShard·gLayerBytes)
	cStepGPU         // GPU Adam seconds per layer at oo = 0
	cStepCPU         // CPU Adam seconds per layer per unit oo
	cStateW          // resident weights: see variantKey for what the three state slots hold
	cStateG          // resident gradients
	cStateO          // resident optimizer states
	cPSum            // paramsShardable + paramsLocal
	cPS              // paramsShardable
	cPLoc            // paramsLocal
	cExtra           // pre/post-section parameters
	cWTW             // weight prefetch window per unit wo (0 under ZeRO-3) ...
	cWTC             // ... or its constant size (ZeRO-3 only)
	cGTG             // gradient materialization per unit go (0 under ZeRO >= 2) ...
	cGTC             // ... or its constant size (ZeRO >= 2 only)
	cInFlight        // 1F1B in-flight microbatches
	cPre             // pre-section stash bytes
	cPostPer         // post-section stash bytes / in-flight
	cRec             // recompute working set beyond the backward peak
	cFwdConst        // constant terms of the forward peak, summed
	cBwdConst        // constant terms of the backward peak, summed
	cStepWS          // optimizer-step working set
	numCoefs
)

const (
	frameWO = numCoefs + iota
	frameGO
	frameOO
	frameAO
	frameL
	frameCkpt
	frameLen
)

// frameVars names the frame's positions for symbolic.Compile.
var frameVars = func() []string {
	vars := make([]string, frameLen)
	for i := 0; i < numCoefs; i++ {
		vars[i] = fmt.Sprintf("c%d", i)
	}
	copy(vars[frameWO:], []string{"wo", "go", "oo", "ao", "l", "ckpt"})
	return vars
}()

// knobFrame lays k out in the frame's knob positions.
func knobFrame(frame []float64, k Knobs) {
	frame[frameWO], frame[frameGO], frame[frameOO], frame[frameAO] = k.WO, k.GO, k.OO, k.AO
	frame[frameL], frame[frameCkpt] = float64(k.Layers), float64(k.Ckpt)
}

// Output indices of the compiled program.
const (
	outPeakMem = iota
	outH2DFwdN // per-layer H2D during fwd, non-ckpt layer
	outD2HFwdN
	outH2DFwdC // ckpt layer
	outD2HFwdC
	outH2DBwdN
	outD2HBwdN
	outH2DBwdC
	outD2HBwdC
	outStepH2DLayer // optimizer-step H2D per layer
	outStepD2HLayer
	outStepGPULayer // GPU-side optimizer compute per layer
	outStepCPULayer // CPU-side optimizer seconds per layer
	outModelStates  // resident model-state bytes
	outWTransient   // weight prefetch-window bytes
	outGTransient   // gradient materialization bytes
	outActPerMB     // retained activation stash per in-flight microbatch
	outRecompute    // checkpointed-layer rematerialization working set
	outStepWS       // decoupled optimizer-step working set
	numOutputs
)

// stageProgram is one stage shape ready to price: the compiled program of
// its structural variant, the coefficient fill that makes the program
// this shape's, and the numeric per-layer constants the interference
// composition reads.
type stageProgram struct {
	prog  *symbolic.Program
	coefs [numCoefs]float64

	cFwd, cBwd       float64 // per-layer compute, stable
	tpARFwd, tpARBwd float64 // serial TP all-reduce per layer
	agTime           float64 // ZeRO-3 per-layer param all-gather (per pass)
	rsTime           float64 // ZeRO>=2 per-layer grad reduce-scatter (bwd)
	arGradLayer      float64 // ZeRO<2 per-layer grad all-reduce (last microbatch)
	regatherLayer    float64 // ZeRO-1/2 per-layer param re-gather after the optimizer step
	preFwd, preBwd   float64
	postFwd, postBwd float64
	p2pTime          float64
	stepComputeLayer float64 // GPU-side Adam time per layer at oo=0
	cpuStepLayerSec  float64 // CPU Adam seconds per layer per unit oo
	fwdTransVal      float64 // per-layer forward liveness peak (bytes)
	bwdTransVal      float64 // per-layer backward liveness peak (bytes)
	postPeakBwdVal   float64 // post-section backward peak (bytes)
	inFlight         int     // 1F1B in-flight microbatches at this stage
	moeShare         float64 // fraction of layer compute in routed experts
	err              error
}

// variantKey names the ways two shapes' knob expressions can differ in
// structure rather than in coefficients — the cases where the symbolic
// constructors, folding literal constants, would have produced trees
// that round differently. Each key compiles to one program, once per
// process (variantPrograms).
type variantKey struct {
	// bareStates: the stage holds no pre/post parameters, so each
	// resident-state term is the single product state·l·(1-off) with
	// state = (paramsShardable·shard + paramsLocal)·bytes. Otherwise the
	// term is state·(cPSum·l + cExtra)·(1-off) with state = shard·bytes
	// (cPSum merges the expert-local parameters when shard is 1, which
	// is what like-term collection does) ...
	bareStates bool
	// ... unless split: a sharded state of a mixture-of-experts model
	// keeps the unsharded expert-local parameters as their own term,
	// bytes·(state·(cPS·l + cExtra) + cPLoc·l)·(1-off), state = shard.
	split [3]bool
	act   actForm
	// recompute: a checkpointed layer's recompute-forward peak exceeds
	// its backward peak, so the backward peak carries a cRec term.
	recompute bool
}

// actForm is how the retained-activation total enters the peak sums.
type actForm uint8

const (
	actBare   actForm = iota // no pre/post stash: the product inFlight·inner·resident
	actScaled                // pre/post stash terms, inFlight > 1: inFlight·(sum)
	actFlat                  // pre/post stash terms, inFlight == 1: the sum's terms join the peak sums, cPostPer folded into their constants
)

// numVariants counts the variantKey values: bareStates x split x act x
// recompute.
const numVariants = 2 * 8 * 3 * 2

// index is key's dense position in [0, numVariants).
func (k variantKey) index() int {
	i := 0
	for _, bit := range [...]bool{k.bareStates, k.split[0], k.split[1], k.split[2], k.recompute} {
		i <<= 1
		if bit {
			i |= 1
		}
	}
	return i*3 + int(k.act)
}

// variantKeys lists every variantKey value, a superset of what build
// produces.
func variantKeys() []variantKey {
	keys := make([]variantKey, 0, numVariants)
	for _, bare := range []bool{false, true} {
		for split := 0; split < 8; split++ {
			for act := actBare; act <= actFlat; act++ {
				for _, recompute := range []bool{false, true} {
					keys = append(keys, variantKey{bareStates: bare, split: [3]bool{split&1 != 0, split&2 != 0, split&4 != 0}, act: act, recompute: recompute})
				}
			}
		}
	}
	return keys
}

// variantPrograms holds each structural variant's program by
// variantKey.index. variantExprs reads nothing but the key, so a program
// is a pure function of it: the first caller in the process compiles it
// and every analyzer shares it by pointer (a Program is immutable), as
// core shares one interference fit per platform. Only the handful of
// variants real shapes meet are ever compiled.
var variantPrograms = func() (t [numVariants]func() *symbolic.Program) {
	for _, key := range variantKeys() {
		t[key.index()] = sync.OnceValue(func() *symbolic.Program {
			return symbolic.MustCompile(variantExprs(key), frameVars)
		})
	}
	return t
}()

// variantProgram returns (compiling on the process's first use) key's
// program.
func variantProgram(key variantKey) *symbolic.Program { return variantPrograms[key.index()]() }

// onceMap builds each key's value exactly once under concurrent first
// use: the first caller builds, the others wait for it. With max > 0 the
// map holds at most max keys: a new key that finds it full drops it
// whole, callers keep the values they hold, and a later miss builds
// again.
type onceMap[K comparable, V any] struct {
	mu  sync.Mutex
	m   map[K]*onceEntry[V]
	max int
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
}

func (t *onceMap[K, V]) get(k K, build func() V) V {
	t.mu.Lock()
	e, ok := t.m[k]
	if !ok {
		if t.m == nil || (t.max > 0 && len(t.m) >= t.max) {
			t.m = make(map[K]*onceEntry[V])
		}
		e = new(onceEntry[V])
		t.m[k] = e
	}
	t.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// modelTrace is what the process keeps of a model, traced once per
// (model, seq, flash) and shared by pointer by every analyzer of that
// key: each section's operator shapes, their TP-split dimensions whole,
// and the byte expressions of all three compiled into one program over
// (b, TP) — not the graphs, whose tensors and expression trees would
// outweigh everything else a long-lived analyzer holds. It is immutable,
// and a trace error is kept like a trace: both are pure functions of
// the key.
type modelTrace struct {
	layer, pre, post graph.Ops
	bytes            *symbolic.Program // graph.Sections.Bytes order, over traceVars
	err              error
}

var traceVars = []string{graph.BSymbol, graph.TPSymbol}

// traceKey is everything graph.Trace reads.
type traceKey struct {
	model model.Config
	seq   int
	flash bool
}

// maxTraces bounds the process's trace table: /tune accepts any seq up
// to 65 536, so the catalog does not bound the keys. It is above the
// serving layer's eval-registry entry bound (372 at the default cap),
// and at 2.8–3.4 KB a retained trace a full table holds ~3.4 MB.
const maxTraces = 1024

// traces holds each key's trace, built by the process's first analyzer
// of that key, as variantPrograms holds each variant's program.
var traces = onceMap[traceKey, *modelTrace]{max: maxTraces}

// nTraces counts the process's graph.Trace calls, for tests.
var nTraces atomic.Int64

// grids holds the process's knob grids (Analyzer.KnobGrid) by encoded
// arguments, weakly: a grid lives while a caller holds it — a tuner's
// window, or the rows of an analyzer that priced it — and its cleanup
// (dropGrid) then deletes its entry, so the table holds only live grids
// and needs no bound. A grid asked for again after it died is rebuilt
// under a new pointer, which misses the rows like any new set.
var (
	gridMu sync.Mutex
	grids  = map[string]weak.Pointer[Batch]{}
)

// dropGrid deletes key's entry if its grid is dead: a grid rebuilt under
// the key since is kept.
func dropGrid(key string) {
	gridMu.Lock()
	defer gridMu.Unlock()
	if grids[key].Value() == nil {
		delete(grids, key)
	}
}

// traceModel traces k's model and compiles its section bytes.
func traceModel(k traceKey) *modelTrace {
	nTraces.Add(1)
	secs, err := graph.Trace(k.model, k.seq, k.flash)
	if err != nil {
		return &modelTrace{err: err}
	}
	return &modelTrace{
		layer: secs.Layer.Ops(), pre: secs.Pre.Ops(), post: secs.Post.Ops(),
		bytes: symbolic.MustCompile(secs.Bytes(), traceVars),
	}
}

// trace returns (fetching it from the process's table on first use, and
// tracing on a miss) the model at tensor-parallel degree tp, or why it
// cannot be split tp ways.
func (a *Analyzer) trace(tp int) (*modelTrace, error) {
	a.traceOnce.Do(func() {
		a.nTraced.Add(1)
		k := traceKey{model: a.Model, seq: a.Seq, flash: a.Flash}
		a.traced = traces.get(k, func() *modelTrace { return traceModel(k) })
	})
	tr := a.traced
	if tr.err != nil {
		return nil, tr.err
	}
	if err := graph.CheckTP(a.Model, tp); err != nil {
		return nil, err
	}
	return tr, nil
}

// tpB keys the quantities that depend on the shape only through its
// tensor-parallel degree and microbatch size.
type tpB struct{ tp, b int }

// layerCompute is the layer's forward and backward compute at one (TP,
// b): all the compute floor reads of a trace.
type layerCompute struct{ cFwd, cBwd float64 }

// sectionCosts are the operator times and byte sizes of the three traced
// sections at one (TP, b) beyond the layer compute.
type sectionCosts struct {
	stash, boundary             float64
	fwdTrans, bwdTrans          float64
	preFwd, preBwd, preStash    float64
	postFwd, postBwd, postStash float64
	postPeakBwd                 float64
}

// tpbCosts is the analyzer's memo at one (TP, b): the layer compute,
// priced on the key's first use, and the section costs, built only when
// a shape with this (TP, b) is priced (nil until then).
type tpbCosts struct {
	layerCompute
	*sectionCosts
}

// costs returns tr's memo at (tp, b). It prices the layer compute on the
// key's first use (the layer's operators at that degree and microbatch
// size) and, when sections is set, builds the section costs on theirs:
// the byte program at that frame, and the pre and post sections'
// operators priced at that degree.
func (a *Analyzer) costs(tr *modelTrace, tp, b int, sections bool) *tpbCosts {
	a.tpbMu.Lock()
	defer a.tpbMu.Unlock()
	c := a.tpbs[tpB{tp, b}]
	if c == nil {
		c = &tpbCosts{layerCompute: layerCompute{cFwd: tr.layer.ForwardTime(a.DB, tp, b), cBwd: tr.layer.BackwardTime(a.DB, tp, b)}}
		if a.tpbs == nil {
			a.tpbs = make(map[tpB]*tpbCosts)
		}
		a.tpbs[tpB{tp, b}] = c
	}
	if sections && c.sectionCosts == nil {
		a.nSections.Add(1)
		bytes := tr.bytes.EvalFrame([]float64{float64(b), float64(tp)}, nil, nil)
		c.sectionCosts = &sectionCosts{
			stash: bytes[graph.LayerStash], boundary: bytes[graph.LayerBoundary],
			fwdTrans: bytes[graph.LayerFwdPeak], bwdTrans: bytes[graph.LayerBwdPeak],
			preFwd: tr.pre.ForwardTime(a.DB, tp, b), preBwd: tr.pre.BackwardTime(a.DB, tp, b),
			preStash: bytes[graph.PreStash],
			postFwd:  tr.post.ForwardTime(a.DB, tp, b), postBwd: tr.post.BackwardTime(a.DB, tp, b),
			postStash: bytes[graph.PostStash], postPeakBwd: bytes[graph.PostBwdPeak],
		}
	}
	return c
}

// SectionBuilds reports how many (TP, b) the analyzer has built section
// costs for: the distinct (TP, b) of the shapes it has priced, since the
// compute floor reads only the layer compute. Each is built once, so the
// count is exact under concurrent pricing.
func (a *Analyzer) SectionBuilds() int { return int(a.nSections.Load()) }

// LayerComputeFloor is a lower bound on the stable time per layer of every
// stage shape with this (tp, b): its forward and backward compute, which
// the overlap composition only adds to (interference factors are >= 1;
// serial collectives and recomputation come on top). It prices the
// layer's operators at (tp, b), once per analyzer, and builds none of the
// section costs a priced shape needs; 0, the trivial bound, when the
// model does not split tp ways.
func (a *Analyzer) LayerComputeFloor(tp, b int) float64 {
	tr, err := a.trace(tp)
	if err != nil {
		return 0
	}
	c := a.costs(tr, tp, b, false)
	return c.cFwd + c.cBwd
}

// program returns (building if needed) the stage program of shape. The
// memo is keyed by the shape's canonical representative, so the many raw
// shapes of one equivalence class (middle pipeline stages with equal
// in-flight depth across (S, G) pairs) are built once.
func (a *Analyzer) program(shape StageShape) *stageProgram {
	shape = shape.Canonical()
	return a.programs.get(shape, func() *stageProgram { return a.build(shape) })
}

// build derives shape's numeric constants and coefficient fill from the
// memoized trace and attaches its variant's process-wide program.
// Nothing here traces or compiles per shape.
func (a *Analyzer) build(shape StageShape) *stageProgram {
	sp, key := a.fill(shape)
	if sp.err == nil {
		sp.prog = variantProgram(key)
	}
	return sp
}

// CompileProgram compiles shape's stage program afresh, bypassing the
// process's variant programs: the compile an analyzer that re-instantiated
// its model for every query would pay per query. It is a measurement aid
// (Fig. 16's naive-analyzer estimate); pricing never calls it.
func (a *Analyzer) CompileProgram(shape StageShape) (*symbolic.Program, error) {
	sp, key := a.fill(shape.Canonical())
	if sp.err != nil {
		return nil, sp.err
	}
	return symbolic.MustCompile(variantExprs(key), frameVars), nil
}

// fill derives shape's numeric constants and coefficient fill, and the
// structural variant whose program they fill; sp.prog is left nil.
func (a *Analyzer) fill(shape StageShape) (sp *stageProgram, key variantKey) {
	sp = &stageProgram{}
	if shape.B <= 0 || shape.DP <= 0 || shape.TP <= 0 || shape.ZeRO < 0 || shape.ZeRO > 3 {
		sp.err = fmt.Errorf("schedule: invalid shape %+v", shape)
		return sp, key
	}
	if shape.ZeRO > 0 && shape.DP == 1 {
		// ZeRO over a single replica is a no-op; normalize to 0 so the
		// search space does not double-count.
		shape.ZeRO = 0
	}
	tr, err := a.trace(shape.TP)
	if err != nil {
		sp.err = err
		return sp, key
	}
	cl := a.Cluster
	b := shape.B
	sec := a.costs(tr, shape.TP, b, true)

	// ---- Numeric per-layer quantities ----
	sp.cFwd = sec.cFwd
	sp.cBwd = sec.cBwd

	actBytesFwd := 2.0 * float64(b) * float64(a.Seq) * float64(a.Model.Hidden) // fp16 activation tensor
	nAR := a.Model.TPAllReducesPerLayer()
	sp.tpARFwd = float64(nAR) * cl.AllReduceTime(actBytesFwd, shape.TP)
	sp.tpARBwd = sp.tpARFwd // mirrored gradient all-reduces

	// Per-device per-layer parameter accounting. For dense models every
	// parameter is replicated across the DP group and hence shardable by
	// ZeRO. The mixture-of-experts extension (model/moe.go) shards expert
	// weights across the DP group already (expert parallelism), so only
	// the dense fraction remains replicated/shardable; expert parallelism
	// also adds two serial all-to-all exchanges per layer per pass.
	paramsShardable := float64(a.Model.ParamsPerLayer()) / float64(shape.TP)
	paramsLocal := 0.0
	if a.Model.IsMoE() {
		ep := shape.DP
		if ep > a.Model.NumExperts {
			ep = a.Model.NumExperts
		}
		if ep < 1 {
			ep = 1
		}
		paramsShardable = float64(a.Model.DenseParamsPerLayer()) / float64(shape.TP)
		paramsLocal = float64(a.Model.ExpertParamsPerLayer()) / float64(ep) / float64(shape.TP)
		a2aBytes := model.CapacityFactor * float64(a.Model.TopK) * actBytesFwd
		a2a := 2 * cl.AllToAllTime(a2aBytes, ep) // dispatch + combine
		sp.tpARFwd += a2a
		sp.tpARBwd += a2a
		// Share of layer compute performed by the routed experts, used by
		// the execution engine to apply routing-imbalance jitter.
		expertFLOPs := model.CapacityFactor * float64(a.Model.TopK) * 4 *
			float64(b) * float64(a.Seq) * float64(a.Model.Hidden) * float64(a.Model.FFNHidden)
		sp.moeShare = expertFLOPs / a.Model.LayerFwdFLOPs(b, a.Seq)
	}
	paramsLayer := paramsShardable + paramsLocal // per-device resident params
	pLayerBytes := BytesParam * paramsLayer
	gLayerBytes := BytesGrad * paramsLayer

	if shape.ZeRO == 3 {
		// Only the replicated fraction is gathered.
		sp.agTime = cl.AllGatherTime(BytesParam*paramsShardable, shape.DP)
	}
	if shape.ZeRO >= 2 {
		sp.rsTime = cl.ReduceScatterTime(BytesGrad*paramsShardable, shape.DP)
	} else {
		sp.arGradLayer = cl.AllReduceTime(BytesGrad*paramsShardable, shape.DP)
	}
	if shape.ZeRO == 1 || shape.ZeRO == 2 {
		// Updated parameter shards are re-gathered once after the step;
		// ZeRO-3 already gathers every microbatch (counted in agTime).
		sp.regatherLayer = cl.AllGatherTime(BytesParam*float64(a.Model.ParamsPerLayer())/float64(shape.TP), shape.DP)
	}

	// Pre/post sections (traced, plus one serial TP all-reduce each).
	preStash, postStash := 0.0, 0.0
	if shape.HasPre {
		sp.preFwd = sec.preFwd
		sp.preBwd = sec.preBwd
		if shape.TP > 1 {
			ar := cl.AllReduceTime(actBytesFwd, shape.TP)
			sp.preFwd += ar
			sp.preBwd += ar
		}
		preStash = sec.preStash
	}
	if shape.HasPost {
		sp.postFwd = sec.postFwd
		sp.postBwd = sec.postBwd
		if shape.TP > 1 {
			ar := cl.AllReduceTime(actBytesFwd, shape.TP)
			sp.postFwd += ar
			sp.postBwd += ar
		}
		postStash = sec.postStash
		sp.postPeakBwdVal = sec.postPeakBwd
	}

	// Pipeline p2p: boundary activation each direction per microbatch.
	if shape.NumStages > 1 {
		crossNode := shape.Devices()%cl.GPUsPerNode == 0
		sp.p2pTime = cl.P2PTime(actBytesFwd, crossNode)
	}

	// ZeRO shard factors of the three model states.
	wShard, gShard, oShard := 1.0, 1.0, 1.0
	if shape.ZeRO == 3 {
		wShard = 1 / float64(shape.DP)
	}
	if shape.ZeRO >= 2 {
		gShard = 1 / float64(shape.DP)
	}
	if shape.ZeRO >= 1 {
		oShard = 1 / float64(shape.DP)
	}
	// GPU Adam is bandwidth bound: read+write params, grads, states. The
	// rank updates its ZeRO shard of the replicated states plus all of
	// its expert-local states.
	stepParams := paramsShardable*oShard + paramsLocal
	sp.stepComputeLayer = BytesAll * stepParams / cl.GPU.MemBandwidth
	sp.cpuStepLayerSec = stepParams / cpuAdamParamsPerSec

	sp.fwdTransVal = sec.fwdTrans
	sp.bwdTransVal = sec.bwdTrans
	sp.inFlight = shape.inFlight()

	// ---- Coefficient fill ----
	k := &sp.coefs

	// Offload channel times (pure bandwidth; DMA latency is amortized by
	// chunked streaming). The optimizer step moves the rank's shard.
	invBW := 1 / cl.HostLink.Bandwidth
	k[cInvBW] = invBW
	k[cH2DW] = invBW * pLayerBytes
	k[cD2HStash] = invBW * sec.stash
	k[cD2HBound] = invBW * sec.boundary
	k[cD2HG] = invBW * gLayerBytes
	k[cPL], k[cStash], k[cBound] = pLayerBytes, sec.stash, sec.boundary
	k[cStepH2D] = invBW * (oShard * pLayerBytes)
	k[cStepD2H] = invBW * (oShard * gLayerBytes)
	k[cStepGPU], k[cStepCPU] = sp.stepComputeLayer, sp.cpuStepLayerSec

	// Resident model states. ZeRO shards only the replicated (dense +
	// pre/post) parameters; expert-local parameters are already
	// partitioned by expert parallelism and enter at full per-device
	// size.
	extra := 0.0
	if shape.HasPre {
		extra = float64(a.Model.EmbeddingParams()) / float64(shape.TP)
	}
	if shape.HasPost {
		extra += float64(int64(a.Model.Vocab)*int64(a.Model.Hidden)+int64(a.Model.Hidden)) / float64(shape.TP)
	}
	key.bareStates = extra == 0
	for s, st := range [3]struct{ shard, bytes float64 }{
		{wShard, BytesParam}, {gShard, BytesGrad}, {oShard, BytesOptStates},
	} {
		switch {
		case key.bareStates:
			k[cStateW+s] = (float64(paramsShardable*st.shard) + paramsLocal) * st.bytes
		case paramsLocal != 0 && st.shard != 1:
			key.split[s] = true
			k[cStateW+s] = st.shard
		default:
			k[cStateW+s] = st.shard * st.bytes
		}
	}
	k[cPSum], k[cPS], k[cPLoc], k[cExtra] = paramsLayer, paramsShardable, paramsLocal, extra

	// Transient full-precision weights for the 2-layer prefetch window:
	// all of them when weights are sharded, the offloaded fraction
	// otherwise. ZeRO >= 2 materializes one layer's full gradient before
	// its reduce-scatter; below that only the offloaded fraction.
	if shape.ZeRO == 3 {
		k[cWTC] = 2 * pLayerBytes
	} else {
		k[cWTW] = 2 * pLayerBytes
	}
	if shape.ZeRO >= 2 {
		k[cGTC] = gLayerBytes
	} else {
		k[cGTG] = gLayerBytes
	}

	// Activation stash per in-flight microbatch. The post-section stash
	// (logits etc.) lives only for the single microbatch currently in
	// backward on the last stage.
	k[cInFlight] = float64(sp.inFlight)
	k[cPre] = preStash
	k[cPostPer] = postStash / float64(sp.inFlight)
	flatPost := 0.0
	switch {
	case preStash == 0 && k[cPostPer] == 0:
		key.act = actBare
	case sp.inFlight != 1:
		key.act = actScaled
	default:
		key.act = actFlat
		flatPost = k[cPostPer]
	}

	// Recompute working set: a checkpointed layer rematerializes its full
	// stash during backward — but the backward-liveness peak (bwdTrans)
	// already counts the full stash of the layer currently in backward,
	// checkpointed or not. The only footprint recomputation can add on top
	// is a recompute-forward liveness peak exceeding the backward one.
	// Charging a whole extra stash here would double-count the
	// rematerialized tensors and make ckpt=0 -> ckpt=1 *raise* PeakMem by
	// one boundary tensor, violating the monotone-in-ckpt invariant
	// (checkpointing strictly shrinks the per-microbatch retained stash).
	k[cRec] = max(0, sp.fwdTransVal-sp.bwdTransVal)
	key.recompute = k[cRec] != 0

	// The peaks' constant terms, summed in term order.
	k[cFwdConst] = k[cWTC] + flatPost + sp.fwdTransVal
	k[cBwdConst] = k[cWTC] + k[cGTC] + flatPost + sp.bwdTransVal + sp.postPeakBwdVal
	// Optimizer step: per-layer working set of fully materialized states
	// (decoupling keeps this to one layer instead of the whole model).
	k[cStepWS] = BytesAll * stepParams
	return sp, key
}

// variantExprs assembles the knob expressions of one structural variant
// over the frame's coefficient and knob symbols.
func variantExprs(key variantKey) []*symbolic.Expr {
	c := func(i int) *symbolic.Expr { return symbolic.Var(frameVars[i]) }
	wo, gov, oo, ao := c(frameWO), c(frameGO), c(frameOO), c(frameAO)
	l, ck := c(frameL), c(frameCkpt)
	one := symbolic.Const(1)

	// Backward refetches weights and offloaded activations together.
	h2dBwd := func(act int) *symbolic.Expr {
		return symbolic.Mul(c(cInvBW), symbolic.Add(symbolic.Mul(c(cPL), wo), symbolic.Mul(c(act), ao)))
	}
	// Optimizer step (decoupled per layer, repositioned before the first
	// forward): offloaded fraction runs CPU Adam (grads up unless already
	// offloaded, params down); resident fraction is a GPU kernel.
	gradUp := symbolic.Max(symbolic.Sub(oo, gov), symbolic.Const(0)) // GO already moved this fraction

	// ---- Peak memory ----
	offs := [3]*symbolic.Expr{wo, gov, oo}
	bytes := [3]float64{BytesParam, BytesGrad, BytesOptStates}
	var states [3]*symbolic.Expr
	for s := range states {
		resident := symbolic.Sub(one, offs[s])
		state := c(cStateW + s)
		switch {
		case key.bareStates:
			states[s] = symbolic.Mul(state, l, resident)
		case key.split[s]:
			shardable := symbolic.Add(symbolic.Mul(c(cPS), l), c(cExtra))
			params := symbolic.Add(symbolic.Mul(state, shardable), symbolic.Mul(c(cPLoc), l))
			states[s] = symbolic.Mul(symbolic.Const(bytes[s]), params, resident)
		default:
			states[s] = symbolic.Mul(state, symbolic.Add(symbolic.Mul(c(cPSum), l), c(cExtra)), resident)
		}
	}
	modelStates := symbolic.Add(states[:]...)
	wTerm := symbolic.Mul(c(cWTW), wo)
	gTerm := symbolic.Mul(c(cGTG), gov)

	// Activation stash per in-flight microbatch.
	resident := symbolic.Sub(one, ao)
	layers := symbolic.Mul(
		symbolic.Add(
			symbolic.Mul(c(cBound), ck),
			symbolic.Mul(c(cStash), symbolic.Sub(l, ck)),
		),
		resident,
	)
	actPerMB := layers
	var actTerms []*symbolic.Expr
	switch key.act {
	case actBare:
		actTerms = []*symbolic.Expr{symbolic.Mul(c(cInFlight), layers)}
	case actScaled:
		actPerMB = symbolic.Add(layers, symbolic.Mul(c(cPre), resident), c(cPostPer))
		actTerms = []*symbolic.Expr{symbolic.Mul(c(cInFlight), actPerMB)}
	case actFlat:
		actPerMB = symbolic.Add(layers, symbolic.Mul(c(cPre), resident), c(cPostPer))
		actTerms = []*symbolic.Expr{layers, symbolic.Mul(c(cPre), resident)}
	}

	// Engaged whenever ckpt >= 1; Min(ck,1) gates it.
	recompute := symbolic.Const(0)
	if key.recompute {
		recompute = symbolic.Mul(c(cRec), symbolic.Min(ck, one))
	}

	fwd := append([]*symbolic.Expr{modelStates, wTerm}, actTerms...)
	fwd = append(fwd, c(cFwdConst))
	bwd := append([]*symbolic.Expr{modelStates, wTerm, gTerm}, actTerms...)
	if key.recompute {
		bwd = append(bwd, recompute)
	}
	bwd = append(bwd, c(cBwdConst))
	peakFwd, peakBwd := symbolic.Add(fwd...), symbolic.Add(bwd...)
	peakStep := symbolic.Add(modelStates, c(cStepWS))

	outputs := make([]*symbolic.Expr, numOutputs)
	outputs[outPeakMem] = symbolic.Max(peakFwd, peakBwd, peakStep)
	outputs[outH2DFwdN] = symbolic.Mul(c(cH2DW), wo)
	outputs[outD2HFwdN] = symbolic.Mul(c(cD2HStash), ao)
	outputs[outH2DFwdC] = outputs[outH2DFwdN]
	outputs[outD2HFwdC] = symbolic.Mul(c(cD2HBound), ao)
	outputs[outH2DBwdN] = h2dBwd(cStash)
	outputs[outD2HBwdN] = symbolic.Mul(c(cD2HG), gov)
	outputs[outH2DBwdC] = h2dBwd(cBound)
	outputs[outD2HBwdC] = outputs[outD2HBwdN]
	outputs[outStepH2DLayer] = symbolic.Mul(c(cStepH2D), oo)
	outputs[outStepD2HLayer] = symbolic.Mul(c(cStepD2H), gradUp)
	outputs[outStepGPULayer] = symbolic.Mul(c(cStepGPU), symbolic.Sub(one, oo))
	outputs[outStepCPULayer] = symbolic.Mul(c(cStepCPU), oo)
	outputs[outModelStates] = modelStates
	outputs[outWTransient] = symbolic.Add(wTerm, c(cWTC))
	outputs[outGTransient] = symbolic.Add(gTerm, c(cGTC))
	outputs[outActPerMB] = actPerMB
	outputs[outRecompute] = recompute
	outputs[outStepWS] = c(cStepWS)
	return outputs
}
