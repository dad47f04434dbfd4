// Package mist is a from-scratch Go reproduction of "Mist: Efficient
// Distributed Training of Large Language Models via Memory-Parallelism
// Co-Optimization" (Zhu et al., EuroSys 2025).
//
// Mist is an automatic distributed-training optimizer: given an LLM, a
// GPU cluster and a global batch size, it jointly tunes parallelism
// (data/tensor/pipeline, microbatch size, gradient accumulation) and
// memory footprint reduction (activation checkpointing, ZeRO-1/2/3, and
// fractional weight/gradient/optimizer/activation offloading) to
// maximize training throughput under the GPU memory budget.
//
// This package is the public facade. A typical session:
//
//	w := mist.Workload{Model: mist.Model("gpt3-2.7b"), Seq: 2048,
//		Flash: true, GlobalBatch: 32}
//	cl := mist.L4Cluster(8)
//	res, err := mist.Tune(w, cl)       // full Mist search space
//	m, err := mist.Simulate(w, cl, res.Plan) // execute on the engine
//
// Baselines are search spaces (MegatronSpace, DeepSpeedSpace,
// AcesoSpace, ...): Compare takes a list of them, tunes each and
// measures each chosen plan in that space's execution mode, so an
// overlap-unaware space such as Aceso's runs serialized.
//
// The heavy lifting lives in the internal packages: internal/symbolic
// (the §5.2 expression engine), internal/graph (symbolic tracing and
// liveness analysis), internal/schedule (the §5.1 overlap-centric
// schedule template), internal/interference (Algorithm 1),
// internal/core (the §5.3 hierarchical tuner with MILP inter-stage
// optimization), internal/trainsim (the discrete-event execution engine
// standing in for a physical cluster) and internal/baselines (the
// comparison systems of §6). See DESIGN.md for the full inventory;
// `go run ./cmd/mistbench -exp all` prints the paper-vs-reproduction
// tables and README "Performance" has the committed numbers.
package mist

import (
	"io"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/trainsim"
)

// Re-exported core types; see the internal packages for full docs.
type (
	// Workload is a training job: model, sequence length, FlashAttention
	// on/off, and global batch size.
	Workload = plan.Workload

	// Plan is a complete training configuration: gradient accumulation
	// steps plus per-stage parallelism and memory-optimization knobs.
	Plan = plan.Plan

	// Stage is one pipeline stage of a Plan.
	Stage = plan.Stage

	// Cluster is an N-node x M-GPU device mesh with its interconnects.
	Cluster = hardware.Cluster

	// ModelConfig describes one transformer architecture.
	ModelConfig = model.Config

	// Space restricts the tuner's search space (baseline emulation and
	// ablations).
	Space = core.Space

	// TuneResult is a tuned plan plus tuning statistics.
	TuneResult = core.Result

	// Measurement is the execution engine's verdict for one plan.
	Measurement = trainsim.Measurement

	// Outcome is one (space, workload) tune-and-measure result.
	Outcome = baselines.Outcome
)

// ErrNoFeasiblePlan is returned by Tune when every configuration in the
// search space exceeds the memory budget.
var ErrNoFeasiblePlan = core.ErrNoFeasiblePlan

// Model returns a named model configuration from the Table 4 catalog
// (e.g. "gpt3-2.7b", "llama-7b", "falcon-22b"); it panics on unknown
// names. Use ModelByName for the error-returning form, and Models for
// the catalog listing.
func Model(name string) ModelConfig { return model.MustByName(name) }

// ModelByName is the error-returning form of Model.
func ModelByName(name string) (ModelConfig, error) { return model.ByName(name) }

// Models lists the catalog model names.
func Models() []string { return model.Names() }

// MoEModel derives a mixture-of-experts variant of a catalog model with
// the given expert count and top-k routing (the paper's §8 extension:
// expert parallelism over the data-parallel group, routing variability
// handled by averaged simulation). It panics on invalid shapes.
func MoEModel(denseName string, experts, topK int) ModelConfig {
	return model.MustMoEByName(denseName, experts, topK)
}

// L4Cluster builds the paper's PCIe platform (GCP G2: 24 GB NVIDIA L4,
// PCIe Gen3, 100 Gbps network) with the given total GPU count (2, 4 or 8
// on one node; multiples of 8 across nodes).
func L4Cluster(totalGPUs int) *Cluster {
	nodes, perNode, err := hardware.MeshForGPUs(totalGPUs)
	if err != nil {
		panic(err)
	}
	return hardware.L4Cluster(nodes, perNode)
}

// A100Cluster builds the paper's NVLink platform (AWS p4d: 40 GB A100,
// NVLink 3, 400 Gbps network).
func A100Cluster(totalGPUs int) *Cluster {
	nodes, perNode, err := hardware.MeshForGPUs(totalGPUs)
	if err != nil {
		panic(err)
	}
	return hardware.A100Cluster(nodes, perNode)
}

// Tune runs the full Mist auto-tuner on the workload.
func Tune(w Workload, cl *Cluster) (*TuneResult, error) {
	return TuneWithSpace(w, cl, core.MistSpace())
}

// TuneWithSpace runs the tuner restricted to the given search space.
func TuneWithSpace(w Workload, cl *Cluster, space Space) (*TuneResult, error) {
	t, err := core.New(w, cl, space)
	if err != nil {
		return nil, err
	}
	return t.Tune()
}

// Simulate executes a plan on the discrete-event engine and reports
// throughput, per-stage peak memory, and the pipeline bubble fraction.
func Simulate(w Workload, cl *Cluster, p *Plan) (Measurement, error) {
	an, err := core.CalibratedAnalyzer(w, cl, core.MistSpace())
	if err != nil {
		return Measurement{}, err
	}
	return trainsim.New(w, cl, an).Measure(p)
}

// TimelineEvent is one executed pipeline operation in a Trace.
type TimelineEvent = pipeline.Event

// Trace executes a plan and returns the per-op pipeline timeline along
// with the measurement; render it with WriteChromeTrace.
func Trace(w Workload, cl *Cluster, p *Plan) (Measurement, []TimelineEvent, error) {
	an, err := core.CalibratedAnalyzer(w, cl, core.MistSpace())
	if err != nil {
		return Measurement{}, nil, err
	}
	return trainsim.New(w, cl, an).Trace(p)
}

// WriteChromeTrace renders a timeline in the Chrome trace event format
// (load in chrome://tracing or ui.perfetto.dev).
func WriteChromeTrace(w io.Writer, events []TimelineEvent) error {
	return trainsim.WriteChromeTrace(w, events)
}

// Predict prices a plan with the symbolic analyzer (Eq. 1), without
// executing it; compare against Simulate for prediction accuracy.
func Predict(w Workload, cl *Cluster, p *Plan) (float64, error) {
	t, err := core.New(w, cl, core.MistSpace())
	if err != nil {
		return 0, err
	}
	return t.PredictPlan(p)
}

// Search space constructors for baseline emulation and ablations.
var (
	MistSpace       = core.MistSpace
	MegatronSpace   = core.MegatronSpace
	DeepSpeedSpace  = core.DeepSpeedSpace
	AcesoSpace      = core.AcesoSpace
	ThreeDSpace     = core.ThreeDSpace
	UniformSpace    = core.UniformHeuristicSpace
	BreakdownLadder = core.BreakdownLadder
)

// Compare tunes each space on the workload and measures the chosen plan
// in the space's execution mode (an overlap-unaware space, such as
// AcesoSpace, runs serialized). Outcomes are keyed by Space.Name.
func Compare(w Workload, cl *Cluster, spaces []Space) (map[string]*Outcome, error) {
	return baselines.Compare(w, cl, spaces)
}
