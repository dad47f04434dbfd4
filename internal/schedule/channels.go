package schedule

import "repro/internal/interference"

// Channels exposes the physical per-layer work quantities of one stage
// candidate: compute seconds, serial collectives, overlappable collective
// and copy traffic, optimizer-step work, and the memory components. The
// discrete-event execution engine consumes these and composes them with
// its own contention model (the fluid simulator) and an allocation
// ledger — independently of the analyzer's Algorithm-1 + closed-form
// composition — so prediction-accuracy experiments compare two genuinely
// different code paths over the same physical workload.
type Channels struct {
	// Per-layer stable-microbatch work.
	CFwd, CBwd       float64 // compute seconds (fwd / bwd)
	TPARFwd, TPARBwd float64 // serial tensor-parallel all-reduce
	AGTime           float64 // ZeRO-3 parameter all-gather per pass
	RSTime           float64 // ZeRO-2/3 gradient reduce-scatter (bwd)
	ARGradLayer      float64 // plain-DP gradient all-reduce (last microbatch)

	// Overlappable host-link copies per layer (seconds), split by layer
	// class (N = non-checkpointed, C = checkpointed).
	H2DFwdN, D2HFwdN, H2DFwdC, D2HFwdC float64
	H2DBwdN, D2HBwdN, H2DBwdC, D2HBwdC float64

	// Decoupled optimizer step, per layer.
	StepH2D, StepD2H, StepGPU, StepCPU float64

	// Boundary sections and pipeline p2p.
	PreFwd, PreBwd, PostFwd, PostBwd, P2P float64

	// Memory components (bytes).
	ModelStates  float64 // resident params+grads+optimizer states
	WTransient   float64 // weight prefetch window
	GTransient   float64 // gradient materialization
	ActPerMB     float64 // retained stash per in-flight microbatch
	FwdTransient float64 // per-layer forward liveness peak
	BwdTransient float64 // per-layer backward liveness peak
	RecomputeWS  float64 // rematerialization working set
	StepWS       float64 // optimizer-step working set
	PostPeakBwd  float64 // post-section backward peak
	InFlight     int     // closed-form in-flight microbatch count

	// Host RAM the offload ratios fill (bytes): ModelStates and ActPerMB
	// at zero offload, minus their values at the candidate's ratios.
	HostStates, HostActPerMB float64

	// MoEShare is the fraction of layer compute performed by routed
	// experts (0 for dense models); the execution engine applies routing
	// imbalance jitter to this share.
	MoEShare float64
}

// Channels evaluates the physical work quantities for one candidate.
func (a *Analyzer) Channels(shape StageShape, k Knobs) (Channels, error) {
	if err := k.Validate(); err != nil {
		return Channels{}, err
	}
	sp := a.program(shape)
	if sp.err != nil {
		return Channels{}, sp.err
	}
	frame := make([]float64, frameLen)
	copy(frame, sp.coefs[:])
	knobFrame(frame, k)
	regs := sp.prog.Scratch()
	out := sp.prog.EvalFrame(frame, regs, nil)
	ch := Channels{
		CFwd: sp.cFwd, CBwd: sp.cBwd,
		TPARFwd: sp.tpARFwd, TPARBwd: sp.tpARBwd,
		AGTime: sp.agTime, RSTime: sp.rsTime, ARGradLayer: sp.arGradLayer,
		H2DFwdN: out[outH2DFwdN], D2HFwdN: out[outD2HFwdN],
		H2DFwdC: out[outH2DFwdC], D2HFwdC: out[outD2HFwdC],
		H2DBwdN: out[outH2DBwdN], D2HBwdN: out[outD2HBwdN],
		H2DBwdC: out[outH2DBwdC], D2HBwdC: out[outD2HBwdC],
		StepH2D: out[outStepH2DLayer], StepD2H: out[outStepD2HLayer],
		StepGPU: out[outStepGPULayer], StepCPU: out[outStepCPULayer],
		PreFwd: sp.preFwd, PreBwd: sp.preBwd,
		PostFwd: sp.postFwd, PostBwd: sp.postBwd, P2P: sp.p2pTime,
		ModelStates: out[outModelStates], WTransient: out[outWTransient],
		GTransient: out[outGTransient], ActPerMB: out[outActPerMB],
		FwdTransient: sp.fwdTransVal, BwdTransient: sp.bwdTransVal,
		RecomputeWS: out[outRecompute], StepWS: out[outStepWS],
		PostPeakBwd: sp.postPeakBwdVal, InFlight: sp.inFlight,
		MoEShare: sp.moeShare,
	}
	// Zero offload: the frame agrees below frameWO, so only the tape's
	// suffix from there runs again.
	k.WO, k.GO, k.OO, k.AO = 0, 0, 0, 0
	knobFrame(frame, k)
	sp.prog.EvalLanes(frame, regs, 1, frameWO)
	ch.HostStates = sp.prog.Output(regs, 1, outModelStates)[0] - ch.ModelStates
	ch.HostActPerMB = sp.prog.Output(regs, 1, outActPerMB)[0] - ch.ActPerMB
	return ch, nil
}

// overlap composes concurrent channel work. With Serialize set (emulating
// overlap-unaware systems such as Aceso, Shortcoming #1) the channels
// execute back to back; otherwise the fitted interference model resolves
// the concurrency.
func (a *Analyzer) overlap(x interference.Times) float64 {
	if a.Serialize {
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		return sum
	}
	return a.Intf.Predict(x)
}
