package schedule

import (
	"flag"
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/symbolic"
)

// referenceFull widens TestPropertyLiftedProgramMatchesPerShapeBuild from
// its default 1-in-23 sample of the shape grid to every shape (about a
// minute on two cores; `make property` sets it).
var referenceFull = flag.Bool("reference.full", false, "check the lifted stage programs against the per-shape reference on the full shape grid")

// refKnobVars is the reference program's frame: the six knobs, nothing
// else — every shape constant is a literal inside the tape.
var refKnobVars = []string{"wo", "go", "oo", "ao", "l", "ckpt"}

// referenceBuild is the per-shape build this package used before stage
// programs were lifted over shape coefficients, kept verbatim as the
// executable reference: it traces the layer graphs and assembles one
// symbolic program per shape, every shape constant a literal the
// constructors fold.
func (a *Analyzer) referenceBuild(shape StageShape) *stageProgram {
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
	secs, err := graph.Trace(a.Model, a.Seq, a.Flash)
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
		pg := secs.Pre.Bind(shape.TP)
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
		pg := secs.Post.Bind(shape.TP)
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

	prog, err := symbolic.Compile(outputs, refKnobVars)
	if err != nil {
		sp.err = err
		return sp
	}
	sp.prog = prog
	return sp
}

// referenceEvaluate prices one candidate through a reference program: the
// whole tape per candidate, then the same overlap composition the
// analyzer applies.
func (a *Analyzer) referenceEvaluate(sp *stageProgram, k Knobs, regs, out []float64) Result {
	frame := [...]float64{k.WO, k.GO, k.OO, k.AO, float64(k.Layers), float64(k.Ckpt)}
	out = sp.prog.EvalFrame(frame[:], regs, out)
	terms := a.overlapTerms(sp, out)
	return sp.compose(k, &terms, out)
}

// mistKnobGrid is the full MistSpace knob set at one layer count: the
// five checkpoint fractions crossed with {0, 0.5, 1}^4 offload tuples.
func mistKnobGrid(layers int) []Knobs {
	grid := []float64{0, 0.5, 1}
	var ks []Knobs
	for ck := 0; ck <= layers; ck += layers / 4 {
		for _, wo := range grid {
			for _, gov := range grid {
				for _, oo := range grid {
					for _, ao := range grid {
						ks = append(ks, Knobs{Layers: layers, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao})
					}
				}
			}
		}
	}
	return ks
}

// referenceModels is every dense catalog model plus a mixture-of-experts
// variant (8 experts, top-2) of one model per family.
func referenceModels() []model.Config {
	var cfgs []model.Config
	for _, name := range model.Names() {
		cfgs = append(cfgs, model.MustByName(name))
	}
	for _, base := range []string{"gpt3-1.3b", "llama-2.7b", "falcon-7b"} {
		cfgs = append(cfgs, model.MustMoEByName(base, 8, 2))
	}
	return cfgs
}

// TestPropertyLiftedProgramMatchesPerShapeBuild: a stage program that is
// a shared variant tape plus a coefficient fill prices every candidate
// to the same Result, == on every field, as the per-shape program
// referenceBuild compiles with the shape's constants as literals. The
// grid: every model of referenceModels, TP and DP in {1,2,4,8}, ZeRO 0-3,
// b in {1,2,4,8}, the four pre/post combinations, unpipelined plus
// pipelined at in-flight depths 1-8 (7488 canonical shapes per model),
// each under both Serialize values and the full MistSpace knob grid.
// Without -reference.full every model checks a different 1-in-23 slice
// of its shapes; 23 is coprime to every dimension's size, so a slice
// still meets every value of every dimension.
func TestPropertyLiftedProgramMatchesPerShapeBuild(t *testing.T) {
	const sample = 23
	ks := mistKnobGrid(8)
	degrees := []int{1, 2, 4, 8}
	for mi, cfg := range referenceModels() {
		mi, cfg := mi, cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			a := newTestAnalyzerFor(t, cfg, 8, true)
			batch := NewBatch(ks)
			var sc EvalScratch
			var got []Result
			var regs, out []float64
			enumerated, checked := 0, 0
			check := func(shape StageShape) {
				enumerated++
				if !*referenceFull && enumerated%sample != mi%sample {
					return
				}
				checked++
				ref := a.referenceBuild(shape)
				if ref.err != nil {
					t.Fatal(ref.err)
				}
				if n := ref.prog.NumRegs(); cap(regs) < n {
					regs = make([]float64, n)
				}
				for _, serialize := range []bool{false, true} {
					a.Serialize = serialize
					var err error
					if got, err = a.EvaluatePreparedInto(got, shape, batch, &sc); err != nil {
						t.Fatal(err)
					}
					for i, k := range ks {
						if want := a.referenceEvaluate(ref, k, regs, out); got[i] != want {
							t.Fatalf("serialize=%v shape %+v knobs %+v:\n  lifted    %+v\n  reference %+v",
								serialize, shape, k, got[i], want)
						}
					}
				}
			}
			for _, tp := range degrees {
				if cfg.Heads%tp != 0 {
					continue
				}
				for _, dp := range degrees {
					for zero := 0; zero <= 3; zero++ {
						if zero > 0 && dp == 1 {
							continue // canonically ZeRO-0
						}
						for _, b := range degrees {
							for prePost := 0; prePost < 4; prePost++ {
								shape := StageShape{
									B: b, DP: dp, TP: tp, ZeRO: zero,
									HasPre: prePost&1 != 0, HasPost: prePost&2 != 0,
									NumStages: 1, StageIdx: 0, GradAccum: 4,
								}
								check(shape) // not pipelined
								for inFlight := 1; inFlight <= 8; inFlight++ {
									shape.NumStages, shape.GradAccum = inFlight+1, inFlight
									check(shape)
								}
							}
						}
					}
				}
			}
			programs := a.VariantPrograms()
			t.Logf("%d of %d shapes x 2 Serialize x %d knobs, %d distinct variant programs", checked, enumerated, len(ks), programs)
			if programs > 16 {
				t.Errorf("stage programs share %d distinct programs, want <= 16", programs)
			}
		})
	}
}
