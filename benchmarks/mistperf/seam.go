package main

// seam.go is the only file of the benchmark that imports the program
// (repro/internal/...). Everything else reaches the program through the
// aliases below, so the list doubles as the benchmark's dependency
// contract: a later change that moves or renames one of these symbols
// keeps an alias at the old path and the benchmark compiles unedited.
//
// Program symbols the benchmark depends on:
//
//	plan        Workload, Plan (+ Validate)
//	model       ByName, Config
//	hardware    Cluster (+ MemoryBudget), MeshForGPUs, L4Cluster, A100Cluster
//	core        New, NewShared, CalibratedAnalyzer, Tuner (Warm, UseMILP,
//	            An, Tune, TuneContext), Result, Space and the six named
//	            space constructors
//	trainsim    New, Engine.Measure, Measurement (+ OOM)
//	baselines   Run, Mist, Megatron, Speedup                  (quality probe)
//	serve       NewLocalCluster, LocalClusterOptions, LocalCluster (IDs, Node,
//	            Handler, Close), Server (WaitJob, Stats, TraceRecorder),
//	            Option, WithTrace, WorkloadSpec (+ CanonicalKey), TuneResponse,
//	            SimulateResponse, JobStatus, JobsListResponse, Stats
//	trace       NewRecorder, StartSpan, Options, Recorder (StartTrace, Traces),
//	            Filter, TraceData, HeaderTrace, HeaderSpan
//	probe entry points
//	symbolic    Compile, Program (EvalFrame, Scratch, NumOutputs), MergeVars, Expr
//	graph       TraceLayer, Graph (PeakForwardBytes, PeakBackwardBytes,
//	            SavedActivationBytes, BoundaryBytes)
//	interference PCIeFluid, Fit, Model.Predict, Times
//	schedule    Analyzer (Evaluate, EvaluateBatchInto), StageShape,
//	            Knobs, Result, EvalScratch
//	evalcache   New, Cache (EvaluateSet, Len), NewKnobSet, KnobSet, Scratch
//	milp        NewProblem, Problem (SetBinary, SetObjective, AddConstraint,
//	            SolveMILP), EQ
//	pipeline    Playback1F1B, MicrobatchCost
//	store       InMemory, Open, Store (Put, Get, Nearest), Record, Fingerprint
//	cluster     NewRing, Ring (Owner, Replicas), DefaultVNodes, Member, Ok,
//	            HeaderServedBy
//	jobs        NewManager, Manager (Submit, Wait, Close)
//	metrics     NewRegistry, Registry (Counter, Histogram, WritePrometheus), Labels
//	slo         NewEngine, Engine (Tick, Evaluate), Config, Objective, Options
//	pilot       New, Pilot.Evaluate, Config, Inputs, MemberState

import (
	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/graph"
	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/milp"
	"repro/internal/model"
	"repro/internal/pilot"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/symbolic"
	"repro/internal/trace"
	"repro/internal/trainsim"
)

// Types, by layer.
type (
	planWorkload = plan.Workload
	planPlan     = plan.Plan
	hwCluster    = hardware.Cluster

	coreSpace  = core.Space
	coreTuner  = core.Tuner
	coreResult = core.Result

	simMeasurement = trainsim.Measurement

	symExpr = symbolic.Expr

	intfTimes = interference.Times

	schedAnalyzer = schedule.Analyzer
	schedShape    = schedule.StageShape
	schedKnobs    = schedule.Knobs
	schedResult   = schedule.Result
	schedScratch  = schedule.EvalScratch

	evalCache   = evalcache.Cache
	evalScratch = evalcache.Scratch
	evalKnobSet = evalcache.KnobSet

	pipeCost = pipeline.MicrobatchCost

	storeRecord      = store.Record
	storeFingerprint = store.Fingerprint

	metricsLabels = metrics.Labels

	sloConfig    = slo.Config
	sloObjective = slo.Objective
	sloOptions   = slo.Options

	pilotConfig = pilot.Config
	pilotInputs = pilot.Inputs
	pilotMember = pilot.MemberState

	clusterMember = cluster.Member

	serveSpec         = serve.WorkloadSpec
	serveFleet        = serve.LocalCluster
	serveFleetOptions = serve.LocalClusterOptions
	serveOption       = serve.Option
	serveTuneResp     = serve.TuneResponse
	serveSimResp      = serve.SimulateResponse
	serveJobStatus    = serve.JobStatus
	serveJobsList     = serve.JobsListResponse
	serveStats        = serve.Stats

	traceRecorder = trace.Recorder
	traceOptions  = trace.Options
	traceFilter   = trace.Filter
	traceData     = trace.TraceData
)

// Constants.
const (
	traceHeaderTrace = trace.HeaderTrace
	traceHeaderSpan  = trace.HeaderSpan

	clusterHeaderServedBy = cluster.HeaderServedBy
	clusterVNodes         = cluster.DefaultVNodes
	clusterOk             = cluster.Ok
	milpEQ                = milp.EQ

	sloAvailability = slo.TypeAvailability
	sloLatency      = slo.TypeLatency
	sloRate429      = slo.TypeRate429
	sloQueueDepth   = slo.TypeQueueDepth
)

// Constructors and free functions.
var (
	modelByName = model.ByName
	meshForGPUs = hardware.MeshForGPUs
	l4Cluster   = hardware.L4Cluster
	a100Cluster = hardware.A100Cluster

	coreNew                = core.New
	coreNewShared          = core.NewShared
	coreCalibratedAnalyzer = core.CalibratedAnalyzer
	coreSpaces             = map[string]func() coreSpace{
		"mist":      core.MistSpace,
		"megatron":  core.MegatronSpace,
		"deepspeed": core.DeepSpeedSpace,
		"aceso":     core.AcesoSpace,
		"3d":        core.ThreeDSpace,
		"uniform":   core.UniformHeuristicSpace,
	}

	simNew = trainsim.New

	baselinesRun      = baselines.Run
	baselinesMist     = baselines.Mist
	baselinesMegatron = baselines.Megatron
	baselinesSpeedup  = baselines.Speedup

	symCompile   = symbolic.Compile
	symMergeVars = symbolic.MergeVars

	graphTraceLayer = graph.TraceLayer

	intfPCIeFluid = interference.PCIeFluid
	intfFit       = interference.Fit

	evalNewKnobSet = evalcache.NewKnobSet

	milpNewProblem = milp.NewProblem

	pipePlayback1F1B = pipeline.Playback1F1B

	storeInMemory = store.InMemory
	storeOpen     = store.Open

	clusterNewRing = cluster.NewRing

	jobsNewManager = jobs.NewManager

	metricsNewRegistry = metrics.NewRegistry

	sloNewEngine = slo.NewEngine

	pilotNew = pilot.New

	serveNewFleet  = serve.NewLocalCluster
	serveWithTrace = serve.WithTrace

	traceNewRecorder = trace.NewRecorder
	traceStartSpan   = trace.StartSpan
)

// evalNewCache wraps an analyzer in a fresh evaluation cache (the
// program's constructor takes its Evaluator interface).
func evalNewCache(an *schedAnalyzer) *evalCache { return evalcache.New(an) }
