// Package trainsim is the reproduction's execution engine: the
// discrete-event substitute for running a plan on a real GPU cluster
// (paper §6: "we use training throughput (samples per second) as our
// primary metric"). It plays out one training iteration of a full plan:
//
//   - per-stage, per-microbatch forward/backward times are composed from
//     the stage's physical work channels with the *fluid* bandwidth-
//     sharing contention model (not the analyzer's fitted Algorithm 1);
//   - the plan's 1F1B op order (pipeline.OneFOneB) is played once,
//     dependency by dependency, rather than through the Eq. 1 closed
//     form; iteration time, bubble and, for Trace, the timeline are all
//     read off that one run;
//   - peak memory is tracked by an allocation ledger that walks the same
//     op order, rather than the analyzer's closed-form in-flight count.
//
// The analyzer (prediction) and this engine (measurement) therefore share
// only the physical work quantities; their compositions are independent,
// which is what makes the §6.6 prediction-accuracy experiment meaningful.
package trainsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/schedule"
)

// Measurement is the result of executing one training iteration.
type Measurement struct {
	IterTime   float64   // seconds per iteration (global batch)
	Throughput float64   // samples per second
	PeakMem    []float64 // bytes, per stage
	Bubble     float64   // pipeline idle fraction

	// Host RAM the plan's offloading fills, in bytes, per node its
	// devices occupy (stages packed onto devices contiguously, as
	// hardware's collectives assume): the model states moved off each
	// device, and the activation stash moved off it times its stage's
	// in-flight depth in the 1F1B order. A node holds
	// Cluster.HostMemory().
	HostStates, HostStash []float64

	StageCosts []pipeline.MicrobatchCost // per-stage playback inputs
}

// OOM reports whether any stage exceeds the budget.
func (m Measurement) OOM(budget float64) bool {
	for _, pm := range m.PeakMem {
		if pm > budget {
			return true
		}
	}
	return false
}

// Engine executes plans for one workload on one cluster.
type Engine struct {
	Workload plan.Workload
	Cluster  *hardware.Cluster

	an    *schedule.Analyzer
	fluid *interference.Fluid
}

// run composes one overlapped region. The execution mode is the
// analyzer's: under Serialize (an overlap-unaware space, the Aceso
// runtime of Figure 12) communication runs back to back with
// computation; otherwise the fluid model shares the streams.
func (e *Engine) run(x interference.Times) float64 {
	if e.an.Serialize {
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		return sum
	}
	return e.fluid.Run(x)
}

// New builds an execution engine for the workload on the cluster. The
// analyzer is consulted only for physical work channels (Channels) and
// its execution mode (Serialize); its fitted interference model and
// Eq. 1 composition are never used here.
func New(w plan.Workload, cl *hardware.Cluster, an *schedule.Analyzer) *Engine {
	fl := interference.PCIeFluid()
	if cl.HasNVLink() {
		fl = interference.NVLinkFluid()
	}
	return &Engine{Workload: w, Cluster: cl, an: an, fluid: fl}
}

// Measure executes one iteration of the plan and reports throughput and
// per-stage peak memory.
func (e *Engine) Measure(p *plan.Plan) (Measurement, error) {
	m, _, err := e.play(p)
	return m, err
}

// play prices every stage, walks each stage's ledger over the plan's 1F1B
// op order, and plays that order once.
func (e *Engine) play(p *plan.Plan) (Measurement, pipeline.Run, error) {
	if err := p.Validate(e.Workload); err != nil {
		return Measurement{}, pipeline.Run{}, fmt.Errorf("trainsim: %w", err)
	}
	order := pipeline.OneFOneB(len(p.Stages), p.GradAccum)
	costs := make([]pipeline.MicrobatchCost, len(p.Stages))
	devices := 0
	for _, st := range p.Stages {
		devices += st.Shape.DP * st.Shape.TP
	}
	s, perNode := len(p.Stages), e.Cluster.GPUsPerNode
	nodes := (devices + perNode - 1) / perNode
	// The per-node host figures share the peaks' allocation: the search
	// benchmarks measure every plan they tune.
	figs := make([]float64, s+2*nodes)
	peaks := figs[:s:s]
	hostStates, hostStash := figs[s:s+nodes:s+nodes], figs[s+nodes:]
	dev := 0
	for i, st := range p.Stages {
		ch, err := e.an.Channels(st.Shape, st.Knobs)
		if err != nil {
			return Measurement{}, pipeline.Run{}, err
		}
		costs[i] = e.stageCost(st, ch)
		peaks[i] = stagePeakMem(ch, st.Knobs.Layers, order[i])
		stash := ch.HostActPerMB * float64(pipeline.InFlight(order[i]))
		for range st.Shape.DP * st.Shape.TP {
			hostStates[dev/perNode] += ch.HostStates
			hostStash[dev/perNode] += stash
			dev++
		}
	}
	run, err := pipeline.Play(costs, order)
	if err != nil {
		return Measurement{}, pipeline.Run{}, err
	}
	return Measurement{
		IterTime:   run.Makespan,
		Throughput: float64(e.Workload.GlobalBatch) / run.Makespan,
		PeakMem:    peaks,
		Bubble:     run.Bubble(),
		HostStates: hostStates,
		HostStash:  hostStash,
		StageCosts: costs,
	}, run, nil
}

// stageCost composes per-microbatch forward/backward times and the
// first/last extras with the fluid contention model.
func (e *Engine) stageCost(st plan.Stage, ch schedule.Channels) pipeline.MicrobatchCost {
	k := st.Knobs
	nonCkpt := float64(k.Layers - k.Ckpt)
	ckpt := float64(k.Ckpt)

	// Mixture-of-experts routing imbalance: the analyzer prices expert
	// compute at the capacity factor; real routers fluctuate around it.
	// Following the paper's §8 prescription ("multiple simulations to
	// obtain an average performance estimate") the engine samples a
	// per-microbatch load factor and applies the average to the expert
	// share of the compute channels.
	if ch.MoEShare > 0 {
		jitter := e.moeJitter(st.Shape.StageIdx, st.Shape.GradAccum)
		scale := 1 - ch.MoEShare + ch.MoEShare*jitter
		ch.CFwd *= scale
		ch.CBwd *= scale
	}

	fwdN := ch.TPARFwd + e.run(interference.Times{ch.CFwd, ch.AGTime, ch.H2DFwdN, ch.D2HFwdN})
	fwdC := ch.TPARFwd + e.run(interference.Times{ch.CFwd, ch.AGTime, ch.H2DFwdC, ch.D2HFwdC})
	fwd := nonCkpt*fwdN + ckpt*fwdC + ch.PreFwd + ch.PostFwd + ch.P2P

	bwdN := ch.TPARBwd + e.run(interference.Times{ch.CBwd, ch.AGTime + ch.RSTime, ch.H2DBwdN, ch.D2HBwdN})
	bwdC := ch.TPARBwd + ch.TPARFwd + e.run(interference.Times{
		ch.CBwd + ch.CFwd, 2*ch.AGTime + ch.RSTime, ch.H2DBwdC, ch.D2HBwdC})
	bwd := nonCkpt*bwdN + ckpt*bwdC + ch.PreBwd + ch.PostBwd + ch.P2P

	// First microbatch: optimizer steps are interleaved with the forward
	// (decoupled + repositioned); the first layer's prefetch and the
	// serial CPU-Adam overflow are exposed.
	fwdFirstN := ch.TPARFwd + e.run(interference.Times{
		ch.CFwd + ch.StepGPU, ch.AGTime, ch.H2DFwdN + ch.StepH2D, ch.D2HFwdN + ch.StepD2H})
	fwdFirstC := ch.TPARFwd + e.run(interference.Times{
		ch.CFwd + ch.StepGPU, ch.AGTime, ch.H2DFwdC + ch.StepH2D, ch.D2HFwdC + ch.StepD2H})
	firstFwd := nonCkpt*fwdFirstN + ckpt*fwdFirstC + ch.PreFwd + ch.PostFwd + ch.P2P
	firstExtra := firstFwd - fwd
	firstExtra += ch.AGTime + ch.H2DFwdN // exposed first-layer prefetch
	if st.Shape.ZeRO == 1 || st.Shape.ZeRO == 2 {
		pBytes := schedule.BytesParam * float64(e.Workload.Model.ParamsPerLayer()) / float64(st.Shape.TP)
		firstExtra += float64(k.Layers) * e.Cluster.AllGatherTime(pBytes, st.Shape.DP)
	}
	if cpuTotal := float64(k.Layers) * ch.StepCPU; cpuTotal > 0 {
		hide := firstFwd - fwdFirstN
		if hide < 0 {
			hide = 0
		}
		exposed := cpuTotal - hide
		if exposed < ch.StepCPU {
			exposed = ch.StepCPU
		}
		firstExtra += exposed
	}
	if firstExtra < 0 {
		firstExtra = 0
	}

	lastExtra := 0.0
	if ch.ARGradLayer > 0 && st.Shape.DP > 1 {
		bwdLastN := ch.TPARBwd + e.run(interference.Times{ch.CBwd, ch.ARGradLayer, ch.H2DBwdN, ch.D2HBwdN})
		bwdLastC := ch.TPARBwd + ch.TPARFwd + e.run(interference.Times{
			ch.CBwd + ch.CFwd, ch.ARGradLayer, ch.H2DBwdC, ch.D2HBwdC})
		lastBwd := nonCkpt*bwdLastN + ckpt*bwdLastC + ch.PreBwd + ch.PostBwd + ch.P2P
		if d := lastBwd - bwd; d > 0 {
			lastExtra = d
		}
	}

	return pipeline.MicrobatchCost{Fwd: fwd, Bwd: bwd, FirstExtra: firstExtra, LastExtra: lastExtra}
}

// moeJitter averages sampled per-microbatch routing load factors
// (relative to the capacity-factor baseline) over one iteration. The
// sampler is seeded per stage so measurements are reproducible.
func (e *Engine) moeJitter(stageIdx, g int) float64 {
	rng := rand.New(rand.NewSource(int64(7919*stageIdx + 13)))
	sum := 0.0
	for m := 0; m < g; m++ {
		// Load factor in [0.95, 1.15]: mild overflow beyond capacity
		// (dropped-token recompute, stragglers) skews above 1.
		sum += 0.95 + 0.2*rng.Float64()
	}
	return sum / float64(g)
}

// allocPage is the allocator block granularity of the simulated runtime:
// every distinct allocation is rounded up to a 2 MiB page, the caching-
// allocator fragmentation real frameworks exhibit. The analyzer's
// closed-form memory model ignores this, which is (part of) why the
// paper observes a ~2% memory prediction error (§6.6).
const allocPage = 2 << 20

// pageRound rounds an allocation up to the allocator granularity, one
// page per constituent tensor approximated by nTensors.
func pageRound(bytes float64, nTensors int) float64 {
	if bytes <= 0 {
		return 0
	}
	pages := math.Ceil(bytes / allocPage)
	return (pages + float64(nTensors-1)*0.5) * allocPage
}

// stagePeakMem tracks memory with an allocation ledger over the stage's
// op order: each forward adds an activation stash and each backward frees
// one, a backward briefly holding its transient working set first, and
// the decoupled optimizer step adds its working set before the first
// forward. Allocations are page-rounded.
func stagePeakMem(ch schedule.Channels, layers int, ops []pipeline.Op) float64 {
	layerTensors := 10 // stash tensors per layer, for page fragmentation
	actMB := pageRound(ch.ActPerMB, layers*layerTensors)
	base := pageRound(ch.ModelStates, layers*4) + pageRound(ch.WTransient, 2)
	peak := base + pageRound(ch.StepWS, 4) // repositioned optimizer step, no stashes yet
	retained := base
	for _, o := range ops {
		var held float64
		if o.Fwd {
			retained += actMB
			held = retained + pageRound(ch.FwdTransient, 4)
		} else {
			held = retained + pageRound(ch.BwdTransient+ch.GTransient+ch.RecomputeWS+ch.PostPeakBwd, 8)
			retained -= actMB
		}
		if held > peak {
			peak = held
		}
	}
	return peak
}
