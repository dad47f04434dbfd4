// Package schedule implements Mist's fine-grained overlap-centric schedule
// template (paper §5.1, Figure 7) as an analytical stage model. Given a
// pipeline stage's shape (microbatch size, DP/TP degrees, ZeRO level,
// pre/post sections, position in the pipeline) and its tunable knobs
// (layer count, checkpointed layers, four offloading ratios), it produces:
//
//   - the stable-microbatch time t (Eq. 5): per-layer compute overlapped
//     with ZeRO all-gathers, reduce-scatters and offloading copies,
//     composed by the interference model;
//   - the first/last-microbatch delta d (Eq. 6): decoupled, repositioned
//     optimizer steps, the exposed first-layer prefetch, and the gradient
//     all-reduce tail;
//   - the peak GPU memory over the forward, backward and optimizer-step
//     phases of the 1F1B pipeline schedule.
//
// Knob-dependent quantities are built once per stage shape as symbolic
// expressions over (l, ckpt, wo, go, oo, ao) and compiled for batched
// evaluation (§5.2's batched value substitution); the interference model
// is then applied numerically to the evaluated channel aggregates.
package schedule

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/symbolic"
)

// Byte-per-parameter constants for mixed-precision Adam (paper §5.1,
// "Optimizer Step Decoupling": fp16 params, fp16 grads, fp32 master
// params + two fp32 moments).
const (
	BytesParam     = 2.0
	BytesGrad      = 2.0
	BytesOptStates = 12.0
	BytesAll       = BytesParam + BytesGrad + BytesOptStates
)

// cpuAdamParamsPerSec is the host-side Adam update throughput used when
// optimizer states are offloaded (ZeRO-Offload-style CPU optimizer).
const cpuAdamParamsPerSec = 1.5e9

// StageShape fixes the discrete, trace-affecting choices of one pipeline
// stage. One Analyzer trace/compile pass serves all Knobs under the same
// shape.
type StageShape struct {
	B    int // microbatch size b_i
	DP   int // data-parallel degree
	TP   int // tensor-parallel degree
	ZeRO int // 0..3

	HasPre  bool // stage holds the embedding section
	HasPost bool // stage holds the final norm + LM head + loss

	NumStages int // S
	StageIdx  int // 0-based position (in-flight microbatches = min(G, S-idx))
	GradAccum int // G
}

// Devices returns the number of GPUs the stage occupies.
func (s StageShape) Devices() int { return s.DP * s.TP }

// inFlight is the 1F1B in-flight microbatch count min(G, S-idx), clamped
// to >= 1 — the only way NumStages, StageIdx and GradAccum enter the
// stage model.
func (s StageShape) inFlight() int {
	n := s.NumStages - s.StageIdx
	if n > s.GradAccum {
		n = s.GradAccum
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Canonical maps the shape onto its evaluation-equivalence class
// representative: two shapes with the same Canonical() produce identical
// analyzer results. The analyzer depends on the raw shape only through
// (B, DP, TP), the ZeRO level normalized to 0 when DP == 1 (sharding a
// group of one is a no-op and every collective over it costs 0), the
// pre/post flags, whether the pipeline is deeper than one stage
// (boundary p2p), and the in-flight microbatch count. The representative
// re-encodes (pipelined, inFlight) as NumStages = inFlight+1, StageIdx =
// 0, GradAccum = inFlight so it round-trips through the same model code.
func (s StageShape) Canonical() StageShape {
	zero := s.ZeRO
	if s.DP == 1 && zero >= 0 && zero <= 3 {
		zero = 0 // out-of-range levels pass through so validation still rejects them
	}
	stages, accum := 1, 1
	if s.NumStages > 1 {
		n := s.inFlight()
		stages, accum = n+1, n
	}
	return StageShape{
		B: s.B, DP: s.DP, TP: s.TP, ZeRO: zero,
		HasPre: s.HasPre, HasPost: s.HasPost,
		NumStages: stages, StageIdx: 0, GradAccum: accum,
	}
}

// Knobs are the continuous/integer per-stage optimization variables of
// Table 2 that do not require re-tracing.
type Knobs struct {
	Layers int     // L_i
	Ckpt   int     // recomputed layers, 0..Layers
	WO     float64 // weight offloading ratio
	GO     float64 // gradient offloading ratio
	OO     float64 // optimizer-state offloading ratio
	AO     float64 // activation offloading ratio
}

// Validate checks knob ranges.
func (k Knobs) Validate() error {
	if k.Layers < 0 || k.Ckpt < 0 || k.Ckpt > k.Layers {
		return fmt.Errorf("schedule: invalid layers=%d ckpt=%d", k.Layers, k.Ckpt)
	}
	for _, r := range []float64{k.WO, k.GO, k.OO, k.AO} {
		if r < 0 || r > 1 {
			return fmt.Errorf("schedule: offload ratio %v outside [0,1]", r)
		}
	}
	return nil
}

// Result is the analyzer's verdict for one (shape, knobs) candidate.
type Result struct {
	Stable  float64 // t_i: stable microbatch time (s)
	Delta   float64 // d_i: first+last microbatch extra (s)
	PeakMem float64 // bytes

	// Breakdown for reporting (Figure 3-style):
	FwdTime, BwdTime float64
	OptStepTime      float64
	MemOptOverhead   float64 // offloading/ZeRO time not hidden by overlap
}

// Fits reports whether the candidate respects the memory budget.
func (r Result) Fits(budget float64) bool { return r.PeakMem <= budget }

// Analyzer prices stage candidates for one (model, seq, flash, cluster)
// context. It is safe for concurrent use.
type Analyzer struct {
	Model   model.Config
	Seq     int
	Flash   bool
	Cluster *hardware.Cluster
	DB      *opdb.DB
	Intf    *interference.Model

	// Serialize disables computation-communication overlap, emulating
	// overlap-unaware systems (Shortcoming #1; used by the Aceso-style
	// baseline).
	Serialize bool

	mu    sync.Mutex
	cache map[StageShape]*stageProgram
}

// NewAnalyzer builds an analyzer context.
func NewAnalyzer(cfg model.Config, seq int, flash bool, cluster *hardware.Cluster, db *opdb.DB, intf *interference.Model) *Analyzer {
	return &Analyzer{
		Model: cfg, Seq: seq, Flash: flash,
		Cluster: cluster, DB: db, Intf: intf,
		cache: make(map[StageShape]*stageProgram),
	}
}

// Knob symbols of the compiled stage program, in frame order: the offload
// tuple first, then the layer and checkpoint counts. The compiled tape is
// staged by variable (symbolic.Program), so candidates sharing a tuple
// re-run only the l/ckpt suffix.
var knobVars = []string{"wo", "go", "oo", "ao", "l", "ckpt"}

// Frame positions of the two knobs that vary inside a tuple group.
const (
	frameL    = 4
	frameCkpt = 5
)

// knobFrame lays k out in knobVars order.
func knobFrame(frame []float64, k Knobs) {
	frame[0], frame[1], frame[2], frame[3] = k.WO, k.GO, k.OO, k.AO
	frame[frameL], frame[frameCkpt] = float64(k.Layers), float64(k.Ckpt)
}

// stageProgram holds the compiled symbolic outputs for one shape.
type stageProgram struct {
	prog *symbolic.Program
	// numeric per-layer constants used in the interference composition
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

// program returns (building if needed) the compiled stage program. The
// cache is keyed by the shape's canonical representative, so the many
// raw shapes of one equivalence class (middle pipeline stages with equal
// in-flight depth across (S, G) pairs) trace and compile exactly once.
func (a *Analyzer) program(shape StageShape) *stageProgram {
	shape = shape.Canonical()
	a.mu.Lock()
	sp, ok := a.cache[shape]
	a.mu.Unlock()
	if ok {
		return sp
	}
	sp = a.build(shape)
	a.mu.Lock()
	a.cache[shape] = sp
	a.mu.Unlock()
	return sp
}

// build traces the layer graphs and assembles the symbolic program.
func (a *Analyzer) build(shape StageShape) *stageProgram {
	sp := &stageProgram{}
	if shape.B <= 0 || shape.DP <= 0 || shape.TP <= 0 || shape.ZeRO < 0 || shape.ZeRO > 3 {
		sp.err = fmt.Errorf("schedule: invalid shape %+v", shape)
		return sp
	}
	if shape.ZeRO > 0 && shape.DP == 1 {
		// ZeRO over a single replica is a no-op; normalize to 0 so the
		// search space does not double-count.
		shape.ZeRO = 0
	}
	lg, err := graph.TraceLayer(a.Model, a.Seq, shape.TP, a.Flash)
	if err != nil {
		sp.err = err
		return sp
	}
	cl := a.Cluster
	b := shape.B
	bEnv := symbolic.Env{graph.BSymbol: float64(b)}

	// ---- Numeric per-layer quantities ----
	sp.cFwd = lg.ForwardTime(a.DB, b)
	sp.cBwd = lg.BackwardTime(a.DB, b)

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
	var preStash, postStash, postPeakBwd *symbolic.Expr
	if shape.HasPre {
		pg := graph.TracePreLayer(a.Model, a.Seq, shape.TP)
		sp.preFwd = pg.ForwardTime(a.DB, b)
		sp.preBwd = pg.BackwardTime(a.DB, b)
		if shape.TP > 1 {
			ar := cl.AllReduceTime(actBytesFwd, shape.TP)
			sp.preFwd += ar
			sp.preBwd += ar
		}
		preStash = pg.SavedActivationBytes()
	}
	if shape.HasPost {
		pg := graph.TracePostLayer(a.Model, a.Seq, shape.TP)
		sp.postFwd = pg.ForwardTime(a.DB, b)
		sp.postBwd = pg.BackwardTime(a.DB, b)
		if shape.TP > 1 {
			ar := cl.AllReduceTime(actBytesFwd, shape.TP)
			sp.postFwd += ar
			sp.postBwd += ar
		}
		postStash = pg.SavedActivationBytes()
		postPeakBwd = pg.PeakBackwardBytes()
	}

	// Pipeline p2p: boundary activation each direction per microbatch.
	if shape.NumStages > 1 {
		crossNode := shape.Devices()%cl.GPUsPerNode == 0
		sp.p2pTime = cl.P2PTime(actBytesFwd, crossNode)
	}

	// Optimizer step constants.
	oShard := 1.0
	if shape.ZeRO >= 1 {
		oShard = 1 / float64(shape.DP)
	}
	// GPU Adam is bandwidth bound: read+write params, grads, states. The
	// rank updates its ZeRO shard of the replicated states plus all of
	// its expert-local states.
	stepParams := paramsShardable*oShard + paramsLocal
	sp.stepComputeLayer = BytesAll * stepParams / cl.GPU.MemBandwidth
	sp.cpuStepLayerSec = stepParams / cpuAdamParamsPerSec

	// ---- Symbolic knob expressions ----
	l := symbolic.Var("l")
	ck := symbolic.Var("ckpt")
	wo := symbolic.Var("wo")
	gov := symbolic.Var("go")
	oo := symbolic.Var("oo")
	ao := symbolic.Var("ao")
	c := symbolic.Const

	hostBW := cl.HostLink.Bandwidth
	stash := c(lg.SavedActivationBytes().MustEval(bEnv))
	boundary := c(lg.BoundaryBytes().MustEval(bEnv))
	sp.fwdTransVal = lg.PeakForwardBytes().MustEval(bEnv)
	sp.bwdTransVal = lg.PeakBackwardBytes().MustEval(bEnv)
	fwdTrans := c(sp.fwdTransVal)
	bwdTrans := c(sp.bwdTransVal)
	pLayer := c(pLayerBytes)
	gLayer := c(gLayerBytes)

	// Offload channel times (pure bandwidth; DMA latency is amortized by
	// chunked streaming).
	bw := func(bytes *symbolic.Expr) *symbolic.Expr { return symbolic.Div(bytes, c(hostBW)) }

	h2dFwdN := bw(symbolic.Mul(wo, pLayer))
	d2hFwdN := bw(symbolic.Mul(ao, stash))
	h2dFwdC := bw(symbolic.Mul(wo, pLayer))
	d2hFwdC := bw(symbolic.Mul(ao, boundary))
	// Backward: refetch weights and offloaded activations, push gradients.
	h2dBwdN := bw(symbolic.Add(symbolic.Mul(wo, pLayer), symbolic.Mul(ao, stash)))
	d2hBwdN := bw(symbolic.Mul(gov, gLayer))
	h2dBwdC := bw(symbolic.Add(symbolic.Mul(wo, pLayer), symbolic.Mul(ao, boundary)))
	d2hBwdC := bw(symbolic.Mul(gov, gLayer))

	// Optimizer step (decoupled per layer, repositioned before the first
	// forward): offloaded fraction runs CPU Adam (grads up unless already
	// offloaded, params down); resident fraction is a GPU kernel.
	ooShard := symbolic.Mul(oo, c(oShard))
	stepH2D := bw(symbolic.Mul(ooShard, pLayer))
	gradUp := symbolic.Max(symbolic.Sub(oo, gov), c(0)) // GO already moved this fraction
	stepD2H := bw(symbolic.Mul(symbolic.Mul(gradUp, c(oShard)), gLayer))
	stepGPU := symbolic.Mul(symbolic.Sub(c(1), oo), c(sp.stepComputeLayer))
	stepCPU := symbolic.Mul(oo, c(sp.cpuStepLayerSec))

	// ---- Peak memory expression ----
	wShard, gShard := 1.0, 1.0
	if shape.ZeRO == 3 {
		wShard = 1 / float64(shape.DP)
	}
	if shape.ZeRO >= 2 {
		gShard = 1 / float64(shape.DP)
	}
	paramsPre, paramsPost := 0.0, 0.0
	if shape.HasPre {
		paramsPre = float64(a.Model.EmbeddingParams()) / float64(shape.TP)
	}
	if shape.HasPost {
		paramsPost = float64(int64(a.Model.Vocab)*int64(a.Model.Hidden)+int64(a.Model.Hidden)) / float64(shape.TP)
	}
	extraParams := c(paramsPre + paramsPost)
	// ZeRO shards only the replicated (dense + pre/post) parameters;
	// expert-local parameters are already partitioned by expert
	// parallelism and enter at full per-device size.
	stageShardable := symbolic.Add(symbolic.Mul(l, c(paramsShardable)), extraParams)
	stageLocal := symbolic.Mul(l, c(paramsLocal))

	one := c(1)
	residentStates := func(shard, bytes float64, off *symbolic.Expr) *symbolic.Expr {
		params := symbolic.Add(symbolic.Mul(stageShardable, c(shard)), stageLocal)
		return symbolic.Mul(params, c(bytes), symbolic.Sub(one, off))
	}
	wRes := residentStates(wShard, BytesParam, wo)
	gRes := residentStates(gShard, BytesGrad, gov)
	oRes := residentStates(oShard, BytesOptStates, oo)
	modelStates := symbolic.Add(wRes, gRes, oRes)

	// Transient full-precision weights for the 2-layer prefetch window
	// when weights are sharded or offloaded; always at least one layer's
	// full weights are live during its own compute.
	var wTransient *symbolic.Expr
	if shape.ZeRO == 3 {
		wTransient = c(2 * pLayerBytes)
	} else {
		// Offloaded fraction must be rematerialized for two layers.
		wTransient = symbolic.Mul(c(2*pLayerBytes), wo)
	}
	// ZeRO>=2: one layer's full gradient materializes before its
	// reduce-scatter.
	var gTransient *symbolic.Expr
	if shape.ZeRO >= 2 {
		gTransient = c(gLayerBytes)
	} else {
		gTransient = symbolic.Mul(c(gLayerBytes), gov)
	}

	// Activation stash per in-flight microbatch.
	inFlight := shape.inFlight()
	sp.inFlight = inFlight
	resident := symbolic.Sub(one, ao)
	actPerMB := symbolic.Mul(
		symbolic.Add(
			symbolic.Mul(ck, boundary),
			symbolic.Mul(symbolic.Sub(l, ck), stash),
		),
		resident,
	)
	if shape.HasPre && preStash != nil {
		actPerMB = symbolic.Add(actPerMB, symbolic.Mul(c(preStash.MustEval(bEnv)), resident))
	}
	if shape.HasPost && postStash != nil {
		// Post-section stash (logits etc.) lives only for the single
		// microbatch currently in backward on the last stage.
		actPerMB = symbolic.Add(actPerMB, symbolic.Div(c(postStash.MustEval(bEnv)), c(float64(inFlight))))
	}
	actTotal := symbolic.Mul(c(float64(inFlight)), actPerMB)

	// Recompute working set: a checkpointed layer rematerializes its full
	// stash during backward — but the backward-liveness peak (bwdTrans)
	// already counts the full stash of the layer currently in backward,
	// checkpointed or not. The only footprint recomputation can add on top
	// is a recompute-forward liveness peak exceeding the backward one.
	// Charging a whole extra stash here would double-count the
	// rematerialized tensors and make ckpt=0 -> ckpt=1 *raise* PeakMem by
	// one boundary tensor, violating the monotone-in-ckpt invariant
	// (checkpointing strictly shrinks the per-microbatch retained stash).
	// Engaged whenever ckpt >= 1; Min(ck,1) gates it.
	recompute := symbolic.Mul(symbolic.Min(ck, one),
		c(math.Max(0, sp.fwdTransVal-sp.bwdTransVal)))

	peakFwd := symbolic.Add(modelStates, wTransient, actTotal, fwdTrans)
	if shape.HasPost && postPeakBwd != nil {
		sp.postPeakBwdVal = postPeakBwd.MustEval(bEnv)
	}
	peakBwdTerms := []*symbolic.Expr{modelStates, wTransient, gTransient, actTotal, bwdTrans, recompute, c(sp.postPeakBwdVal)}
	peakBwd := symbolic.Add(peakBwdTerms...)
	// Optimizer step: per-layer working set of fully materialized states
	// (decoupling keeps this to one layer instead of the whole model).
	stepWS := c(BytesAll * (paramsShardable*oShard + paramsLocal))
	peakStep := symbolic.Add(modelStates, stepWS)
	peakMem := symbolic.Max(peakFwd, peakBwd, peakStep)

	outputs := make([]*symbolic.Expr, numOutputs)
	outputs[outPeakMem] = peakMem
	outputs[outH2DFwdN] = h2dFwdN
	outputs[outD2HFwdN] = d2hFwdN
	outputs[outH2DFwdC] = h2dFwdC
	outputs[outD2HFwdC] = d2hFwdC
	outputs[outH2DBwdN] = h2dBwdN
	outputs[outD2HBwdN] = d2hBwdN
	outputs[outH2DBwdC] = h2dBwdC
	outputs[outD2HBwdC] = d2hBwdC
	outputs[outStepH2DLayer] = stepH2D
	outputs[outStepD2HLayer] = stepD2H
	outputs[outStepGPULayer] = stepGPU
	outputs[outStepCPULayer] = stepCPU
	outputs[outModelStates] = modelStates
	outputs[outWTransient] = wTransient
	outputs[outGTransient] = gTransient
	outputs[outActPerMB] = actPerMB
	outputs[outRecompute] = recompute
	outputs[outStepWS] = stepWS

	prog, err := symbolic.Compile(outputs, knobVars)
	if err != nil {
		sp.err = err
		return sp
	}
	sp.prog = prog
	return sp
}

// Evaluate prices one candidate.
func (a *Analyzer) Evaluate(shape StageShape, k Knobs) (Result, error) {
	rs, err := a.EvaluateBatch(shape, []Knobs{k})
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// EvalScratch holds the reusable buffers of one evaluation stream. One
// scratch belongs to one goroutine at a time (callers in worker pools own
// one per worker); the zero value is ready to use and the buffers grow to
// the largest program and batch seen.
type EvalScratch struct {
	regs  []float64
	out   []float64
	frame []float64
	group grouper // tuple partition of the current ad-hoc batch
}

// EvaluateBatch prices many knob candidates under one shape with a single
// compiled-program sweep (the batched value substitution of §5.2).
func (a *Analyzer) EvaluateBatch(shape StageShape, ks []Knobs) ([]Result, error) {
	var sc EvalScratch
	return a.EvaluateBatchInto(nil, shape, ks, &sc)
}

// EvaluateBatchInto is EvaluateBatch with caller-owned result and scratch
// buffers: dst is reused when its capacity suffices (the returned slice
// aliases it), and sc's internal buffers persist across calls, so a
// stream of calls allocates nothing once they have grown. The batch is
// partitioned by offload tuple into sc on every call; callers pricing
// the same knobs under many shapes prepare a Batch once instead.
func (a *Analyzer) EvaluateBatchInto(dst []Result, shape StageShape, ks []Knobs, sc *EvalScratch) ([]Result, error) {
	sp := a.program(shape)
	if sp.err != nil {
		return nil, sp.err
	}
	if err := sc.group.build(ks); err != nil {
		return nil, err
	}
	return a.priceGroups(dst, sp, ks, &sc.group.tupleGroups, sc), nil
}

// EvaluatePreparedInto is EvaluateBatchInto over a prepared Batch: the
// tuple partition was computed when the batch was built.
func (a *Analyzer) EvaluatePreparedInto(dst []Result, shape StageShape, b *Batch, sc *EvalScratch) ([]Result, error) {
	sp := a.program(shape)
	if sp.err != nil {
		return nil, sp.err
	}
	if b.err != nil {
		return nil, b.err
	}
	return a.priceGroups(dst, sp, b.knobs, &b.groups, sc), nil
}

// priceGroups prices a validated, tuple-partitioned batch. Every tape
// output except the memory expressions, and every interference
// prediction, depends on the knobs only through the offload tuple, so
// each group runs the whole tape and the overlap composition once; its
// other members re-run the tape's l/ckpt suffix for their peak memory.
// A group of one is exactly the per-candidate evaluation.
func (a *Analyzer) priceGroups(dst []Result, sp *stageProgram, ks []Knobs, tg *tupleGroups, sc *EvalScratch) []Result {
	if cap(dst) < len(ks) {
		dst = make([]Result, len(ks))
	}
	results := dst[:len(ks)]
	if cap(sc.out) < numOutputs {
		sc.out = make([]float64, numOutputs)
	}
	if cap(sc.frame) < len(knobVars) {
		sc.frame = make([]float64, len(knobVars))
	}
	if n := sp.prog.NumRegs(); cap(sc.regs) < n {
		sc.regs = make([]float64, n)
	}
	out, frame, regs := sc.out[:numOutputs], sc.frame[:len(knobVars)], sc.regs[:cap(sc.regs)]
	for g := 0; g+1 < len(tg.starts); g++ {
		members := tg.order[tg.starts[g]:tg.starts[g+1]]
		prev := ks[members[0]]
		knobFrame(frame, prev)
		out = sp.prog.EvalFrame(frame, regs, out)
		terms := a.overlapTerms(sp, out)
		results[members[0]] = sp.compose(prev, &terms, out)
		for _, i := range members[1:] {
			k := ks[i]
			from := frameCkpt
			if k.Layers != prev.Layers {
				from = frameL
			}
			frame[frameL], frame[frameCkpt] = float64(k.Layers), float64(k.Ckpt)
			out = sp.prog.EvalFrameFrom(frame, regs, out, from)
			results[i] = sp.compose(k, &terms, out)
			prev = k
		}
	}
	return results
}

// overlapTerms are the per-layer region times of one offload tuple after
// the interference model has resolved each region's concurrent channels;
// N is a non-checkpointed layer, C a checkpointed one.
type overlapTerms struct {
	fwdN, fwdC           float64 // stable microbatch, forward
	bwdN, bwdC           float64 // stable microbatch, backward
	fwdFirstN, fwdFirstC float64 // first microbatch: repositioned optimizer steps ride the forward
	bwdLastN, bwdLastC   float64 // last microbatch: the gradient all-reduce rides the backward
}

// overlapTerms applies the interference model to the evaluated channel
// aggregates of one offload tuple.
func (a *Analyzer) overlapTerms(sp *stageProgram, out []float64) overlapTerms {
	var t overlapTerms
	// Stable forward: per-layer region = serial TP all-reduce + overlapped
	// {compute, ZeRO-3 gather (next layer), weight prefetch, activation
	// offload}.
	t.fwdN = sp.tpARFwd + a.overlap(interference.Times{sp.cFwd, sp.agTime, out[outH2DFwdN], out[outD2HFwdN]})
	t.fwdC = sp.tpARFwd + a.overlap(interference.Times{sp.cFwd, sp.agTime, out[outH2DFwdC], out[outD2HFwdC]})

	// Stable backward: non-checkpointed layers run bwd compute overlapped
	// with re-gather + reduce-scatter + refetch + gradient offload;
	// checkpointed layers prepend recomputation (fwd compute + fwd TP
	// all-reduces).
	t.bwdN = sp.tpARBwd + a.overlap(interference.Times{sp.cBwd, sp.agTime + sp.rsTime, out[outH2DBwdN], out[outD2HBwdN]})
	t.bwdC = sp.tpARBwd + sp.tpARFwd + a.overlap(interference.Times{
		sp.cBwd + sp.cFwd, 2*sp.agTime + sp.rsTime, out[outH2DBwdC], out[outD2HBwdC]})

	// First microbatch: repositioned optimizer steps overlap the forward.
	t.fwdFirstN = sp.tpARFwd + a.overlap(interference.Times{
		sp.cFwd + out[outStepGPULayer],
		sp.agTime,
		out[outH2DFwdN] + out[outStepH2DLayer],
		out[outD2HFwdN] + out[outStepD2HLayer],
	})
	t.fwdFirstC = sp.tpARFwd + a.overlap(interference.Times{
		sp.cFwd + out[outStepGPULayer],
		sp.agTime,
		out[outH2DFwdC] + out[outStepH2DLayer],
		out[outD2HFwdC] + out[outStepD2HLayer],
	})

	// Last microbatch: under plain DP / ZeRO-1 the full gradient
	// all-reduce fires once, overlapped with the last backward
	// (arGradLayer is 0 without data parallelism).
	if sp.arGradLayer > 0 {
		t.bwdLastN = sp.tpARBwd + a.overlap(interference.Times{sp.cBwd, sp.arGradLayer, out[outH2DBwdN], out[outD2HBwdN]})
		t.bwdLastC = sp.tpARBwd + sp.tpARFwd + a.overlap(interference.Times{
			sp.cBwd + sp.cFwd, sp.arGradLayer, out[outH2DBwdC], out[outD2HBwdC]})
	}
	return t
}

// compose scales a tuple's per-layer region times by the candidate's
// layer and checkpoint counts, producing t, d, and peak memory. out is
// the tape's output row for this candidate.
func (sp *stageProgram) compose(k Knobs, t *overlapTerms, out []float64) Result {
	nonCkpt := float64(k.Layers - k.Ckpt)
	ckpt := float64(k.Ckpt)

	fwdStage := nonCkpt*t.fwdN + ckpt*t.fwdC + sp.preFwd + sp.postFwd + sp.p2pTime
	bwdStage := nonCkpt*t.bwdN + ckpt*t.bwdC + sp.preBwd + sp.postBwd + sp.p2pTime
	stable := fwdStage + bwdStage

	// First microbatch: the first layer's prefetch/gather is exposed (it
	// cannot hide behind anything), and ZeRO-1/2 re-gather the updated
	// parameter shards once after the step.
	firstFwdStage := nonCkpt*t.fwdFirstN + ckpt*t.fwdFirstC + sp.preFwd + sp.postFwd + sp.p2pTime
	exposedPrefetch := sp.agTime + out[outH2DFwdN] + float64(k.Layers)*sp.regatherLayer
	// CPU Adam for the offloaded fraction runs on a single serial host
	// stream concurrently with the first forward pass, but layer k's step
	// must land before layer k's forward: exposure is whatever exceeds
	// the GPU's concurrent work (at least one layer's step is exposed).
	exposedCPUStep := 0.0
	if cpuTotal := float64(k.Layers) * out[outStepCPULayer]; cpuTotal > 0 {
		hideCapacity := math.Max(0, firstFwdStage-t.fwdFirstN)
		exposedCPUStep = math.Max(out[outStepCPULayer], cpuTotal-hideCapacity)
	}
	firstExtra := (firstFwdStage - fwdStage) + exposedPrefetch + exposedCPUStep

	lastExtra := 0.0
	if sp.arGradLayer > 0 {
		lastBwdStage := nonCkpt*t.bwdLastN + ckpt*t.bwdLastC + sp.preBwd + sp.postBwd + sp.p2pTime
		lastExtra = lastBwdStage - bwdStage
	}
	if lastExtra < 0 {
		lastExtra = 0
	}
	stepTotal := float64(k.Layers) * (out[outStepGPULayer] + out[outStepCPULayer])
	delta := math.Max(0, firstExtra) + lastExtra

	// Unhidden memory-optimization overhead: the gap between the
	// overlapped region and pure compute (reported in Figure 3 style).
	pureFwd := nonCkpt*(sp.tpARFwd+sp.cFwd) + ckpt*(sp.tpARFwd+sp.cFwd)
	pureBwd := nonCkpt*(sp.tpARBwd+sp.cBwd) + ckpt*(sp.tpARBwd+sp.tpARFwd+sp.cBwd+sp.cFwd)
	memOpt := stable - (pureFwd + pureBwd + sp.preFwd + sp.preBwd + sp.postFwd + sp.postBwd + 2*sp.p2pTime)

	return Result{
		Stable:  stable,
		Delta:   delta,
		PeakMem: out[outPeakMem],
		FwdTime: fwdStage, BwdTime: bwdStage,
		OptStepTime:    stepTotal,
		MemOptOverhead: math.Max(0, memOpt),
	}
}
