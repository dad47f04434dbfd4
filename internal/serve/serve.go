// Package serve exposes the Mist auto-tuner and the discrete-event
// execution engine as a concurrent HTTP/JSON service — the multi-user
// serving layer of a production tuning system.
//
// Endpoints:
//
//	POST /tune       — tune a (workload, cluster, space) triple; responses
//	                   are memoized in a plan cache so repeated requests
//	                   (and concurrent duplicates, which coalesce onto one
//	                   in-flight search) return instantly.
//	POST /simulate   — execute a plan on the engine; the plan is either
//	                   inlined in the request or tuned on demand through
//	                   the same plan cache, and it is priced on the
//	                   fingerprint's analyzer from the eval-cache registry.
//
// A repeat of either is a map lookup followed by a write of stored bytes
// (replies.go). Each endpoint remembers the bodies it has resolved, so a
// body seen before skips decoding, normalizing and keying, at the
// ingress node and again at the owner after a hop; and each plan-cache
// entry renders its /tune hit reply, and its reply to a /simulate
// without an inline plan, once. Bodies are read up to 1 MiB (413
// beyond).
//
// The other endpoints:
//
//	POST /jobs       — submit one tuning job or a batch asynchronously;
//	                   jobs run on a bounded priority worker pool.
//	GET  /jobs       — list jobs; GET /jobs/{id} — status and result;
//	DELETE /jobs/{id} — cancel (queued jobs immediately, running jobs via
//	                   their context).
//	GET  /healthz    — liveness probe.
//	GET  /stats      — request counters, plan-cache occupancy/evictions,
//	                   job-queue depth and worker utilization, plan-store
//	                   size, per-endpoint latency quantiles and
//	                   status-code counts.
//	GET  /metrics    — Prometheus text exposition of the registry
//	                   /stats is rendered from: every counter lives in
//	                   it once, so the two surfaces cannot disagree.
//
// The service degrades under load instead of hanging: every expensive
// synchronous endpoint class sits behind a bounded admission gate (at
// most MaxInflight executing, MaxQueue waiting; beyond that the request
// is refused immediately with 429 and a Retry-After hint), the async job
// queue is bounded the same way, and an optional per-request deadline is
// propagated through the tuner's context so abandoned searches stop
// burning CPU (504 on expiry). See Limits.
//
// With a plan store attached (WithStore), every tuned plan is durably
// written to disk and served back after a restart without re-searching.
//
// The handler is safe for arbitrary concurrency: the plan cache holds
// plans and their rendered replies, mutex-guarded with per-key in-flight
// coalescing; the
// eval-cache registry (evalreg.go) is the one owner of each fingerprint's
// analyzer and so of its rows, which tuner runs and /simulate share for
// the life of the process — a re-search of a known analyzer configuration
// starts ~fully warm — and the analyzer is itself concurrency-safe. The
// registry is bounded by total cached points (defaultEvalCachePoints);
// least-recently-used entries are dropped whole when it fills.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/plan"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/trainsim"
)

// WorkloadSpec names a (workload, cluster, space) triple in wire form.
// It is the plan-cache key: two requests with the same spec share one
// tuned plan.
type WorkloadSpec struct {
	Model    string `json:"model"`
	Platform string `json:"platform"`      // "l4" (default) or "a100"
	GPUs     int    `json:"gpus"`          // total GPU count
	Batch    int    `json:"batch"`         // global batch size
	Seq      int    `json:"seq,omitempty"` // 0: platform default (2048 L4, 4096 A100)
	NoFlash  bool   `json:"noFlash,omitempty"`
	Space    string `json:"space,omitempty"` // mist|megatron|deepspeed|aceso|3d|uniform
}

// Hard spec ceilings: requests beyond them are certainly abusive or
// mistaken (the search cost grows with each), so they are refused as
// bad requests instead of admitted into an unbounded search.
const (
	maxSpecGPUs  = 4096
	maxSpecBatch = 1 << 16
	maxSpecSeq   = 1 << 16
)

// normalize fills defaults and returns the resolved workload pieces.
func (ws *WorkloadSpec) normalize() (plan.Workload, *hardware.Cluster, core.Space, error) {
	var zero plan.Workload
	cfg, err := model.ByName(ws.Model)
	if err != nil {
		return zero, nil, core.Space{}, err
	}
	if ws.GPUs > maxSpecGPUs {
		return zero, nil, core.Space{}, fmt.Errorf("gpus %d exceeds limit %d", ws.GPUs, maxSpecGPUs)
	}
	if ws.Batch > maxSpecBatch {
		return zero, nil, core.Space{}, fmt.Errorf("batch %d exceeds limit %d", ws.Batch, maxSpecBatch)
	}
	if ws.Seq > maxSpecSeq {
		return zero, nil, core.Space{}, fmt.Errorf("seq %d exceeds limit %d", ws.Seq, maxSpecSeq)
	}
	if ws.Platform == "" {
		ws.Platform = "l4"
	}
	cl, seq, err := hardware.ClusterByName(ws.Platform, ws.GPUs)
	if err != nil {
		return zero, nil, core.Space{}, err
	}
	if ws.Seq == 0 {
		ws.Seq = seq
	}
	if ws.Space == "" {
		ws.Space = "mist"
	}
	space, err := core.SpaceByName(ws.Space)
	if err != nil {
		return zero, nil, core.Space{}, err
	}
	w := plan.Workload{Model: cfg, Seq: ws.Seq, Flash: !ws.NoFlash, GlobalBatch: ws.Batch}
	if err := w.Validate(); err != nil {
		return zero, nil, core.Space{}, err
	}
	return w, cl, space, nil
}

// fingerprint maps the spec onto the plan store's canonical identity;
// normalize must have run so defaults are resolved first.
func (ws *WorkloadSpec) fingerprint() store.Fingerprint {
	return store.Fingerprint{
		Model:    ws.Model,
		Platform: strings.ToLower(ws.Platform),
		GPUs:     ws.GPUs,
		Batch:    ws.Batch,
		Seq:      ws.Seq,
		Flash:    !ws.NoFlash,
		Space:    strings.ToLower(ws.Space),
	}
}

// key is the canonical plan-cache identity; normalize must have run so
// defaults are resolved before keying. It equals the plan store's index
// key, so the in-memory cache and the durable store agree about request
// identity.
func (ws *WorkloadSpec) key() string {
	return ws.fingerprint().Key()
}

// CanonicalKey resolves the spec's defaults and returns its canonical
// fingerprint key — the one identity shared by the plan cache, the
// durable store, and cluster ring ownership. The receiver is a copy;
// the caller's spec is left as written.
func (ws WorkloadSpec) CanonicalKey() (string, error) {
	if _, _, _, err := ws.normalize(); err != nil {
		return "", err
	}
	return ws.key(), nil
}

// TuneRequest is the /tune body.
type TuneRequest struct {
	WorkloadSpec
}

// TuneResponse is the /tune reply.
type TuneResponse struct {
	Plan           *plan.Plan `json:"plan"`
	Predicted      float64    `json:"predictedIterTime"` // seconds
	PredThroughput float64    `json:"predictedThroughput"`
	Candidates     int        `json:"candidates"`
	SGPairs        int        `json:"sgPairs"`
	ElapsedMS      float64    `json:"elapsedMs"`
	EvalCacheHits  uint64     `json:"evalCacheHits"`
	EvalCacheMiss  uint64     `json:"evalCacheMisses"`
	EvalHitRate    float64    `json:"evalCacheHitRate"`

	// Cached reports that the plan came from the serving-layer plan
	// cache (including coalescing onto a concurrent identical request)
	// rather than a fresh tuner run.
	Cached bool `json:"cached"`

	// FromStore reports that the plan was served from the durable plan
	// store (a previous process tuned it) without running a search;
	// StoreVersion is the stored record's write generation.
	FromStore    bool `json:"fromStore,omitempty"`
	StoreVersion int  `json:"storeVersion,omitempty"`

	// Incumbent-pruning telemetry of a fresh search (core.Result):
	// candidates the search's own incumbent bound pruned, and (pipeline
	// depth, grad accum) pairs it abandoned, floor-skipped ones included.
	// The names predate that account; they follow core.Result's, which
	// benchmarks/mistperf/seam.go pins (ROADMAP 10 (g)).
	WarmPruned       int `json:"warmPrunedCandidates,omitempty"`
	WarmAbortedPairs int `json:"warmAbortedPairs,omitempty"`
}

// SimulateRequest is the /simulate body: a workload spec plus an
// optional explicit plan. Without a plan the service tunes one (through
// the plan cache) and executes it.
type SimulateRequest struct {
	WorkloadSpec
	Plan *plan.Plan `json:"plan,omitempty"`
}

// SimulateResponse is the /simulate reply.
type SimulateResponse struct {
	IterTime   float64   `json:"iterTime"`
	Throughput float64   `json:"throughput"`
	Bubble     float64   `json:"bubble"`
	PeakMem    []float64 `json:"peakMem"`
	BudgetByte float64   `json:"memoryBudget"`
	OOM        bool      `json:"oom"`

	// TunedPlan echoes the plan when the service tuned it on demand.
	TunedPlan *plan.Plan `json:"tunedPlan,omitempty"`
}

// Stats is the /stats reply.
type Stats struct {
	TuneRequests     uint64 `json:"tuneRequests"`
	SimulateRequests uint64 `json:"simulateRequests"`
	PlanCacheHits    uint64 `json:"planCacheHits"`
	TunesRun         uint64 `json:"tunesRun"`
	PlanCacheSize    int    `json:"planCacheSize"`

	// Plan-cache pressure: the configured capacity and how many
	// completed entries have been evicted to stay under it.
	PlanCacheCap       int    `json:"planCacheCap"`
	PlanCacheEvictions uint64 `json:"planCacheEvictions"`

	// Cross-request evaluation-cache registry: live analyzer-config
	// fingerprints, total memoized (shape, knobs) pricings across them,
	// the configured point budget, and the cumulative cost of staying
	// under it (whole caches dropped, points those caches held).
	EvalCacheEntries       int    `json:"evalCacheEntries"`
	EvalCachePoints        int    `json:"evalCachePoints"`
	EvalCachePointCap      int    `json:"evalCachePointCap"`
	EvalCacheEvictions     uint64 `json:"evalCacheEvictions"`
	EvalCachePointsRetired uint64 `json:"evalCachePointsRetired"`

	// Durable plan store (zero-valued when no store is attached):
	// indexed plans and exact-fingerprint hits served without a search.
	StoreSize int    `json:"storeSize"`
	StoreHits uint64 `json:"storeHits"`

	// Async job queue and worker pool.
	JobsSubmitted     uint64  `json:"jobsSubmitted"`
	JobsDeduped       uint64  `json:"jobsDeduped"`
	JobsDone          uint64  `json:"jobsDone"`
	JobsFailed        uint64  `json:"jobsFailed"`
	JobsCanceled      uint64  `json:"jobsCanceled"`
	QueueDepth        int     `json:"queueDepth"`
	JobWorkers        int     `json:"jobWorkers"`
	BusyWorkers       int     `json:"busyWorkers"`
	WorkerUtilization float64 `json:"workerUtilization"`

	// Backpressure and the HTTP surface: total 429s issued (admission
	// gates and the job-queue bound) and per-endpoint request counts,
	// status codes, and latency quantiles from the metrics registry.
	Rejected429 uint64          `json:"rejected429"`
	HTTP        []EndpointStats `json:"http,omitempty"`

	// Sharded-tier traffic (zero-valued without a cluster): requests
	// forwarded to the owning peer, forward transport failures, plan
	// records replicated out, replication failures, and requests served
	// locally because no replica was reachable.
	ClusterForwards          uint64 `json:"clusterForwards,omitempty"`
	ClusterForwardErrors     uint64 `json:"clusterForwardErrors,omitempty"`
	ClusterReplications      uint64 `json:"clusterReplications,omitempty"`
	ClusterReplicationErrors uint64 `json:"clusterReplicationErrors,omitempty"`
	ClusterLocalFallbacks    uint64 `json:"clusterLocalFallbacks,omitempty"`

	// Elastic membership: the adopted view epoch, anti-entropy repair
	// traffic (records pushed to / pulled from peers, local records
	// released after handoff), and search-suppressing peer record
	// fetches on store misses.
	ClusterEpoch            int64  `json:"clusterEpoch,omitempty"`
	ClusterRebalancePushed  uint64 `json:"clusterRebalancePushed,omitempty"`
	ClusterRebalancePulled  uint64 `json:"clusterRebalancePulled,omitempty"`
	ClusterRebalanceDropped uint64 `json:"clusterRebalanceDropped,omitempty"`
	ClusterRebalanceErrors  uint64 `json:"clusterRebalanceErrors,omitempty"`
	ClusterRecordFetches    uint64 `json:"clusterRecordFetches,omitempty"`
	ClusterRecordFetchHits  uint64 `json:"clusterRecordFetchHits,omitempty"`
}

// planEntry is one plan-cache slot; ready closes when the tuner run
// completes, so concurrent requests for the same spec coalesce. A
// completed entry keeps its replies as rendered bytes: the /tune hit
// (Cached set) and the /simulate without an inline plan (validated,
// measured and encoded once).
type planEntry struct {
	ready chan struct{}
	resp  *TuneResponse
	err   error

	hit, simulated rendered
}

// defaultCacheCap bounds the plan cache: specs are client-controlled
// (seq is an arbitrary int), so an unbounded map is a memory-growth
// vector under varied or abusive traffic. Eviction is arbitrary among
// completed entries — a re-tune on a cold spec is correct, just slower
// (and free when the evicted plan is still in the durable store).
const defaultCacheCap = 1024

// defaultJobWorkers bounds the async pool: each tuner run already fans
// out across GOMAXPROCS, so a narrow pool keeps batch submissions from
// oversubscribing the process.
const defaultJobWorkers = 2

// Server is the tuning service. Create with New, mount via Handler, or
// run a full HTTP server lifecycle with Serve. Call Close when
// done to stop the job workers (Serve does so on shutdown).
type Server struct {
	mu    sync.Mutex
	plans map[string]*planEntry

	// What the bodies of /tune and /simulate resolved to (replies.go).
	tuneBodies, simulateBodies bodyMemo

	cacheCap   int // defaultCacheCap; in-package tests lower it
	store      *store.Store
	jobs       *jobs.Manager
	jobWorkers int
	evalReg    *evalRegistry

	cluster *cluster.Cluster
	log     *slog.Logger  // never nil; disabled without WithLogger (see logging.go)
	clock   clock.Ticking // SLO time source and every tick loop's ticker

	traceOpt *trace.Options
	trace    *trace.Recorder

	limits  Limits
	metrics *metrics.Registry
	count   eventCounters

	// The per-peer families the request path increments.
	forwards      *counterFamily[peerCode]
	forwardErrors *counterFamily[string]
	replications  *counterFamily[peerOutcome]

	tuneGate     *gate
	simulateGate *gate

	// The SLO and rebalancer loops (see tickLoop) run until
	// Close cancels loopCtx.
	loopCtx    context.Context
	loopCancel context.CancelFunc
	loopWG     sync.WaitGroup

	// SLO engine wiring (see slo_http.go): the declarative spec and the
	// built engine.
	sloCfg    *slo.Config
	sloEngine *slo.Engine

	// Elastic-membership machinery: the rebalancer's kick channel and
	// the per-epoch repaired-record memo (see rebalance.go).
	rbKick       chan struct{}
	rbOnce       sync.Once  // StartRebalancer; spent by Close
	rbRunMu      sync.Mutex // serializes RebalanceOnce passes
	repairMu     sync.Mutex // guards repairedAt, lastPull, lastPullDone
	repairedAt   map[string]cluster.RingID
	pulledPeers  map[string]cluster.RingID // peer id -> ring last fully pulled; only touched under rbRunMu
	lastPull     cluster.RingID
	lastPullDone bool
}

// eventCounters are the server's unlabelled event counters. Each is a
// series of s.metrics, resolved once in New (registry pointers are
// stable), so a request-path increment is one atomic add and /stats and
// /metrics read the same word. Events the labelled families already
// record (forwards, replications, 429s) have no counter here: /stats
// sums those families instead (see Stats).
type eventCounters struct {
	tuneRequests     *metrics.Counter
	simulateRequests *metrics.Counter
	planCacheHits    *metrics.Counter
	tunesRun         *metrics.Counter
	evictions        *metrics.Counter
	storeHits        *metrics.Counter
	localFallbacks   *metrics.Counter
	rebalancePushed  *metrics.Counter
	rebalancePulled  *metrics.Counter
	rebalanceDropped *metrics.Counter
	rebalanceErrors  *metrics.Counter
	recordFetches    *metrics.Counter
	recordFetchHits  *metrics.Counter
}

// registerCounters resolves the event counters and registers the
// point-in-time gauges and the one derived counter beside them.
func (s *Server) registerCounters() {
	c := func(name string) *metrics.Counter { return s.metrics.Counter(name, nil) }
	s.count = eventCounters{
		tuneRequests:     c("mist_tune_requests_total"),
		simulateRequests: c("mist_simulate_requests_total"),
		planCacheHits:    c("mist_plan_cache_hits_total"),
		tunesRun:         c("mist_tunes_run_total"),
		evictions:        c("mist_plan_cache_evictions_total"),
		storeHits:        c("mist_store_hits_total"),
		localFallbacks:   c("mist_cluster_local_fallbacks_total"),
		rebalancePushed:  c("mist_cluster_rebalance_pushed_total"),
		rebalancePulled:  c("mist_cluster_rebalance_pulled_total"),
		rebalanceDropped: c("mist_cluster_rebalance_dropped_total"),
		rebalanceErrors:  c("mist_cluster_rebalance_errors_total"),
		recordFetches:    c("mist_cluster_record_fetches_total"),
		recordFetchHits:  c("mist_cluster_record_fetch_hits_total"),
	}
	s.forwards = newCounterFamily(s.metrics, metricForwardsTotal, func(k peerCode) metrics.Labels {
		return metrics.Labels{"peer": k.peer, "code": strconv.Itoa(k.code)}
	})
	s.forwardErrors = newCounterFamily(s.metrics, metricForwardErrorsTotal, func(peer string) metrics.Labels {
		return metrics.Labels{"peer": peer}
	})
	s.replications = newCounterFamily(s.metrics, metricReplicationsTotal, func(k peerOutcome) metrics.Labels {
		return metrics.Labels{"peer": k.peer, "outcome": k.outcome}
	})
	s.metrics.CounterFunc("mist_http_rejected_total", nil, s.rejected429)
	g := func(name string, fn func() int) {
		s.metrics.RegisterGauge(name, nil, func() float64 { return float64(fn()) })
	}
	g("mist_plan_cache_size", s.planCacheSize)
	g("mist_plan_store_size", s.storeSize)
	g("mist_jobs_queue_depth", func() int { return s.jobs.Stats().QueueDepth })
	g("mist_jobs_busy_workers", func() int { return s.jobs.Stats().Busy })
}

// rejected429 totals the 429s the instrumentation middleware recorded
// under mist_http_requests_total{code="429"} (admission gates, the
// job-queue bound, relayed peer refusals).
func (s *Server) rejected429() uint64 {
	return s.metrics.SumCounters(metricRequestsTotal, metrics.Labels{"code": "429"})
}

func (s *Server) planCacheSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.plans)
}

func (s *Server) storeSize() int {
	if s.store == nil {
		return 0
	}
	return s.store.Len()
}

// Option configures a Server.
type Option func(*Server)

// WithStore attaches a durable plan store: tuned plans are written
// through and exact fingerprints are served from it without re-searching.
func WithStore(st *store.Store) Option {
	return func(s *Server) { s.store = st }
}

// WithJobWorkers sets the async job pool width (values < 1 keep the
// default).
func WithJobWorkers(n int) Option {
	return func(s *Server) {
		if n >= 1 {
			s.jobWorkers = n
		}
	}
}

// WithLimits sets the backpressure contract (zero fields keep their
// defaults; see Limits).
func WithLimits(l Limits) Option {
	return func(s *Server) { s.limits = l }
}

// WithCluster attaches this node's view of the sharded tier: requests
// for fingerprints owned by a peer are transparently forwarded, plans
// tuned here are write-through replicated to the fingerprint's other
// replicas, and GET /cluster exposes the topology. The cluster's
// health-prober lifecycle (Start/Stop) stays with the caller.
func WithCluster(cl *cluster.Cluster) Option {
	return func(s *Server) { s.cluster = cl }
}

// WithClock replaces the system clock as the SLO engine's time source
// and as the ticker behind the SLO and rebalancer loops. On a
// clock.Fake those loops are inert and a test drives SLOTick and
// RebalanceOnce itself; one Fake may be shared by every node of a
// LocalCluster. A nil clock is ignored.
func WithClock(c clock.Ticking) Option {
	return func(s *Server) { s.clock = c }
}

// WithTrace enables request tracing: a per-node recorder collects
// context-propagated spans into a bounded ring served at GET
// /debug/traces, and trace context travels across forwarded hops on
// X-Mist-Trace/X-Mist-Span. The recorder is built inside New (one per
// server, even when the same option list configures a whole
// LocalCluster); a zero Node label defaults to the cluster node id.
func WithTrace(opt trace.Options) Option {
	return func(s *Server) { s.traceOpt = &opt }
}

// New builds a service.
func New(opts ...Option) *Server {
	s := &Server{
		plans:       map[string]*planEntry{},
		cacheCap:    defaultCacheCap,
		jobWorkers:  defaultJobWorkers,
		metrics:     metrics.NewRegistry(),
		log:         disabledLogger,
		rbKick:      make(chan struct{}, 1),
		repairedAt:  map[string]cluster.RingID{},
		pulledPeers: map[string]cluster.RingID{},
	}
	// lastPullDone starts false ("never pulled"): the first repair pass
	// always pulls, which is how a node restarted with an empty store
	// (or booted via -join) refills itself without waiting for peers to
	// push.
	for _, o := range opts {
		o(s)
	}
	if s.clock == nil {
		s.clock = clock.System
	}
	s.loopCtx, s.loopCancel = context.WithCancel(context.Background())
	s.limits = s.limits.withDefaults()
	s.evalReg = newEvalRegistry(defaultEvalCachePoints, s.metrics)
	s.tuneGate = newGate("/tune", s.limits)
	s.simulateGate = newGate("/simulate", s.limits)
	// The job queue shares the admission bound; the manager treats 0 as
	// unbounded, so the tightest expressible bound is one queued job.
	qc := s.limits.MaxQueue
	if qc < 1 {
		qc = 1
	}
	s.jobs = jobs.NewManager(s.jobWorkers, qc)
	if s.traceOpt != nil {
		opt := *s.traceOpt
		if opt.Node == "" && s.cluster != nil {
			opt.Node = s.cluster.Self()
		}
		s.trace = trace.NewRecorder(opt)
	}
	s.registerCounters()
	s.registerRuntimeGauges()
	s.registerBuildInfoGauge()
	s.initSLO()
	if s.cluster != nil {
		// Every adopted membership change immediately kicks a repair
		// pass (the background loop must be started for it to run).
		s.cluster.SetOnViewChange(func(cluster.View) { s.KickRebalance() })
	}
	return s
}

// Close stops the job workers (canceling queued and running jobs), the
// background rebalancer, and the SLO tick loop. The plan store needs no
// teardown: every Put is already durable.
func (s *Server) Close() {
	// Spend the rebalancer's once: a StartRebalancer racing Close has
	// started its loop by the time Do returns, a later one starts none.
	s.rbOnce.Do(func() {})
	s.loopCancel()
	s.loopWG.Wait()
	s.jobs.Close()
}

// tickLoop starts a goroutine that runs fn on every tick of the
// server's clock, d apart (d <= 0: no ticks), and on every kick (nil:
// none), until Close. On a clock.Fake no tick ever arrives: the loop is
// inert and the test calls fn's exported twin (SLOTick, RebalanceOnce).
func (s *Server) tickLoop(d time.Duration, kick <-chan struct{}, fn func(context.Context)) {
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		var tick <-chan time.Time // nil blocks forever
		if d > 0 {
			var stop func()
			tick, stop = s.clock.Ticker(d)
			defer stop()
		}
		for {
			select {
			case <-s.loopCtx.Done():
				return
			case <-tick:
			case <-kick:
			}
			fn(s.loopCtx)
		}
	}()
}

// Store exposes the attached plan store (nil without one).
func (s *Server) Store() *store.Store { return s.store }

// Metrics exposes the request-metrics registry (the /metrics source);
// load harnesses use it to reconcile server-side totals against their
// own counts.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// TraceRecorder exposes the per-node trace recorder (nil without
// WithTrace); load harnesses audit its counters after a run.
func (s *Server) TraceRecorder() *trace.Recorder { return s.trace }

// evictOneLocked drops an arbitrary completed plan entry; in-flight
// entries are kept so coalesced waiters stay attached. Call with mu
// held.
func (s *Server) evictOneLocked() {
	for k, e := range s.plans {
		select {
		case <-e.ready:
			delete(s.plans, k)
			s.count.evictions.Inc()
			return
		default:
		}
	}
}

// Handler mounts the service routes. Expensive synchronous endpoints
// run behind their admission gates; every route is instrumented with a
// stable endpoint label (path parameters collapse to one series).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/tune", s.wrap("/tune", s.tuneGate, s.handleTune))
	mux.HandleFunc("/simulate", s.wrap("/simulate", s.simulateGate, s.handleSimulate))
	mux.HandleFunc("/healthz", s.wrap("/healthz", nil, s.handleHealthz))
	mux.HandleFunc("/stats", s.wrap("/stats", nil, s.handleStats))
	mux.HandleFunc("GET /metrics", s.wrap("/metrics", nil, s.handleMetrics))
	mux.HandleFunc("POST /jobs", s.wrap("/jobs", nil, s.handleJobsSubmit))
	mux.HandleFunc("GET /jobs", s.wrap("/jobs", nil, s.handleJobsList))
	mux.HandleFunc("GET /jobs/{id}", s.wrap("/jobs/{id}", nil, s.handleJobGet))
	mux.HandleFunc("DELETE /jobs/{id}", s.wrap("/jobs/{id}", nil, s.handleJobCancel))
	mux.HandleFunc("GET /cluster", s.wrap("/cluster", nil, s.handleClusterInfo))
	// Routes of an optional tier answer 404 when it is not attached; what
	// is attached is fixed by New, so the gate costs a request nothing.
	const noCluster, noSLO = "cluster mode not enabled", "no SLO config attached (see -slo-config)"
	peers, records := s.cluster != nil, s.cluster != nil && s.store != nil
	mux.HandleFunc("POST /cluster/replicate", s.wrap("/cluster/replicate", nil, gated(records, noCluster, s.handleReplicate)))
	mux.HandleFunc("POST /cluster/join", s.wrap("/cluster/join", nil, gated(peers, noCluster, s.handleClusterJoin)))
	mux.HandleFunc("POST /cluster/drain", s.wrap("/cluster/drain", nil, gated(peers, noCluster, s.handleClusterDrain)))
	mux.HandleFunc("GET /cluster/view", s.wrap("/cluster/view", nil, gated(peers, noCluster, s.handleClusterViewGet)))
	mux.HandleFunc("POST /cluster/view", s.wrap("/cluster/view", nil, gated(peers, noCluster, s.handleClusterViewPost)))
	mux.HandleFunc("POST /cluster/fetch", s.wrap("/cluster/fetch", nil, gated(records, noCluster, s.handleClusterFetch)))
	mux.HandleFunc("GET /cluster/records", s.wrap("/cluster/records", nil, gated(records, noCluster, s.handleClusterRecords)))
	mux.HandleFunc("GET /cluster/events", s.wrap("/cluster/events", nil, gated(peers, noCluster, s.handleClusterEvents)))
	mux.HandleFunc("GET /cluster/health", s.wrap("/cluster/health", nil, gated(s.sloEngine != nil, noSLO, s.handleClusterHealth)))
	mux.HandleFunc("GET /slo", s.wrap("/slo", nil, gated(s.sloEngine != nil, noSLO, s.handleSLO)))
	mux.HandleFunc("GET /debug/traces", s.wrap("/debug/traces", nil, s.handleDebugTraces))
	return mux
}

// gated is h when the tier a route belongs to is attached, and a 404
// saying why otherwise.
func gated(on bool, why string, h http.HandlerFunc) http.HandlerFunc {
	if on {
		return h
	}
	return func(rw http.ResponseWriter, _ *http.Request) { writeError(rw, http.StatusNotFound, errors.New(why)) }
}

// decodeBody decodes a JSON request body into v, answering 400 (and
// false) when it does not parse, 413 past maxBodyBytes.
func decodeBody(rw http.ResponseWriter, req *http.Request, v any) bool {
	err := json.NewDecoder(limitBody(req.Body)).Decode(v)
	if err != nil {
		writeBodyError(rw, fmt.Errorf("decoding request: %w", err))
	}
	return err == nil
}

// writeBodyError answers a body that could not be read or decoded: 413
// when it ran past maxBodyBytes, 400 otherwise.
func writeBodyError(rw http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeError(rw, status, err)
}

// tuneCtx resolves a spec through the plan cache under a context,
// running the tuner at most once per distinct spec. The returned
// response is a private copy with Cached set for this caller.
func (s *Server) tuneCtx(ctx context.Context, ws WorkloadSpec) (*TuneResponse, error) {
	if _, _, _, err := ws.normalize(); err != nil {
		return nil, &badRequestError{err}
	}
	e, searched, err := s.planFor(ctx, ws, ws.key())
	if err != nil {
		return nil, err
	}
	resp := *e.resp
	resp.Cached = !searched
	return &resp, nil
}

// planFor resolves a normalized spec, key its canonical key, through
// the plan cache, running the tuner at most once per distinct key, and
// returns the completed entry. searched reports that this call ran the
// search: its answer is the one not marked Cached. Cancellation aborts a
// search this call started; coalesced waiters on that search then see
// the error and the failed entry is dropped, so a later request simply
// retries.
func (s *Server) planFor(ctx context.Context, ws WorkloadSpec, key string) (e *planEntry, searched bool, err error) {
	s.mu.Lock()
	for {
		e, ok := s.plans[key]
		if !ok {
			break
		}
		s.mu.Unlock()
		s.count.planCacheHits.Inc()
		select {
		case <-e.ready:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			// A coalesced search killed by another caller's cancellation
			// is not this caller's failure: the entry is already deleted,
			// so retry with a fresh search instead of surfacing 500.
			if ctx.Err() == nil &&
				(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
				s.mu.Lock()
				continue
			}
			return nil, false, e.err
		}
		return e, false, nil
	}
	e = &planEntry{ready: make(chan struct{})}
	if len(s.plans) >= s.cacheCap {
		s.evictOneLocked()
	}
	s.plans[key] = e
	s.mu.Unlock()

	e.resp, e.err = s.runTune(ctx, ws)
	if e.err != nil {
		// Do not cache failures: a later identical request retries.
		s.mu.Lock()
		delete(s.plans, key)
		s.mu.Unlock()
	}
	close(e.ready)
	if e.err != nil {
		return nil, false, e.err
	}
	return e, true, nil
}

// responseFromRecord renders a stored plan record as the /tune reply
// it answers for — the one shape shared by local store hits and
// peer-fetched records, so the two no-search paths can never diverge.
func responseFromRecord(rec store.Record) *TuneResponse {
	return &TuneResponse{
		Plan:           rec.Plan,
		Predicted:      rec.Predicted,
		PredThroughput: rec.PredThroughput,
		FromStore:      true,
		StoreVersion:   rec.Version,
	}
}

// runTune answers a plan-cache miss of a normalized spec: from the
// durable store when the exact fingerprint was tuned by any earlier
// process, otherwise by a fresh search whose result is then written
// through to the store.
func (s *Server) runTune(ctx context.Context, ws WorkloadSpec) (*TuneResponse, error) {
	fp := ws.fingerprint()
	if s.store != nil {
		// The store-check span covers the local lookup plus the peer
		// fetch sweep; its ctx stays local so the search span that may
		// follow is a sibling, not a child.
		sctx, ssp := trace.StartSpan(ctx, "store-check")
		if rec, ok := s.store.Get(fp); ok {
			ssp.Annotate("outcome", "local-hit")
			ssp.End()
			s.count.storeHits.Inc()
			return responseFromRecord(rec), nil
		}
		if s.cluster != nil {
			// Elastic single-flight: before ever searching, ask the fleet
			// whether someone already holds this fingerprint. During a
			// membership transition a key's new owner sees a local miss
			// for a record that lives at its previous replicas; a round
			// of cheap peer lookups keeps "one search per fingerprint"
			// true across every join/drain/kill, at a cost that is noise
			// next to one tuner run.
			if rec, ok := s.fetchRecordFromPeers(sctx, fp); ok {
				ssp.Annotate("outcome", "peer-hit")
				ssp.End()
				return responseFromRecord(rec), nil
			}
		}
		ssp.Annotate("outcome", "miss")
		ssp.End()
	}
	w, cl, space, err := ws.normalize()
	if err != nil {
		return nil, &badRequestError{err}
	}
	s.count.tunesRun.Inc()
	// The prepare span covers tuner construction (operator DB +
	// interference fit — real milliseconds, skipped entirely when the
	// fingerprint's analyzer is already in the eval-cache registry);
	// without it the gap between store-check and search would be
	// unaccounted trace time.
	_, psp := trace.StartSpan(ctx, "prepare")
	an, reused, err := s.evalReg.acquire(ws, w, cl, space)
	if err != nil {
		psp.Annotate("error", err.Error())
		psp.End()
		return nil, &badRequestError{err}
	}
	psp.Annotate("evalCacheReused", reused)
	tn, err := core.NewShared(w, cl, an, space, nil)
	if err != nil {
		psp.Annotate("error", err.Error())
		psp.End()
		return nil, err
	}
	psp.End()
	tctx, tsp := trace.StartSpan(ctx, "search")
	res, err := tn.TuneContext(tctx)
	if err != nil {
		tsp.Annotate("error", err.Error())
		tsp.End()
		return nil, err
	}
	tsp.Annotate("candidates", res.Candidates)
	tsp.Annotate("sgPairs", res.SGPairs)
	tsp.Annotate("evalCacheHitRate", res.CacheHitRate())
	tsp.End()
	// The search just grew its fingerprint's rows; shed the coldest
	// fingerprints if the registry is now over its point budget.
	s.evalReg.enforceCap(evalKey(ws, space))
	resp := &TuneResponse{
		Plan:             res.Plan,
		Predicted:        res.Predicted,
		PredThroughput:   res.PredThroughput,
		Candidates:       res.Candidates,
		SGPairs:          res.SGPairs,
		ElapsedMS:        float64(res.Elapsed) / float64(time.Millisecond),
		EvalCacheHits:    res.EvalCacheHits,
		EvalCacheMiss:    res.EvalCacheMisses,
		EvalHitRate:      res.CacheHitRate(),
		WarmPruned:       res.WarmPruned,
		WarmAbortedPairs: res.WarmAbortedPairs,
	}
	if s.store != nil {
		// Best-effort persistence: a full disk must not fail the request
		// — the plan is still correct and cached in memory. A stored plan
		// lands on the fingerprint's other replicas before the reply, so
		// a node failover right after it loses nothing; the round joins
		// this request's trace.
		if rec, err := s.store.Put(store.Record{
			Fingerprint:    fp,
			Plan:           res.Plan,
			Predicted:      res.Predicted,
			PredThroughput: res.PredThroughput,
		}); err == nil {
			resp.StoreVersion = rec.Version
			if s.cluster != nil {
				s.writeThrough(ctx, rec)
			}
		}
	}
	return resp, nil
}

// keyedIngress is the one preamble of the fingerprint-keyed endpoints
// (/tune, /simulate, single-spec POST /jobs): read the body (whole — a
// non-owner replays it verbatim), decode it into v, resolve the defaults
// of spec (a field of v) in place, and relay the request when a peer
// owns its fingerprint; key is the spec's canonical key. ok=false: the
// response is already written (a 400 or 413, or the owner's relayed
// answer). A non-empty batch (the other field of a POST /jobs) carries
// no key: v comes back decoded but unresolved, to be accepted locally.
//
// A body memo skips decoding, normalizing and keying a body it has seen
// resolve before; only spec is set then, so it remembers only bodies
// whose v holds nothing else (an inline /simulate plan is decoded every
// time).
func (s *Server) keyedIngress(rw http.ResponseWriter, req *http.Request, memo *bodyMemo, v any, spec *WorkloadSpec, batch *[]JobSpec) (key string, ok bool) {
	body, err := io.ReadAll(limitBody(req.Body))
	if err != nil {
		writeBodyError(rw, fmt.Errorf("reading request: %w", err))
		return "", false
	}
	if e, hit := memo.get(body); hit {
		*spec = e.spec
		return e.key, !s.proxyKeyed(rw, req, e.key, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return "", false
	}
	if batch != nil && len(*batch) > 0 {
		return "", true
	}
	if _, _, _, err = spec.normalize(); err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return "", false
	}
	key = spec.key()
	if sr, inline := v.(*SimulateRequest); !inline || sr.Plan == nil {
		memo.put(body, memoSpec{*spec, key})
	}
	return key, !s.proxyKeyed(rw, req, key, body)
}

func (s *Server) handleTune(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s.count.tuneRequests.Inc()
	var tr TuneRequest
	key, ok := s.keyedIngress(rw, req, &s.tuneBodies, &tr, &tr.WorkloadSpec, nil)
	if !ok {
		return
	}
	// The request context carries the per-request deadline (see wrap)
	// and client disconnects; both propagate into the running search.
	e, searched, err := s.planFor(req.Context(), tr.WorkloadSpec, key)
	if err != nil {
		writeError(rw, statusFor(err), err)
		return
	}
	if searched {
		writeJSON(rw, http.StatusOK, e.resp)
		return
	}
	b, _ := e.hit.get(func() ([]byte, error) {
		resp := *e.resp
		resp.Cached = true
		return encodeJSON(&resp), nil
	})
	writeRendered(rw, b)
}

func (s *Server) handleSimulate(rw http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		writeError(rw, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s.count.simulateRequests.Inc()
	// A non-owner relays to the fingerprint's owner (plan cache and
	// calibrated analyzer live there), inline plan included.
	var sr SimulateRequest
	key, ok := s.keyedIngress(rw, req, &s.simulateBodies, &sr, &sr.WorkloadSpec, nil)
	if !ok {
		return
	}
	if sr.Plan != nil {
		resp, err := s.simulate(sr.WorkloadSpec, sr.Plan, nil)
		if err != nil {
			writeError(rw, statusFor(err), err)
			return
		}
		writeJSON(rw, http.StatusOK, resp)
		return
	}
	e, _, err := s.planFor(req.Context(), sr.WorkloadSpec, key)
	if err != nil {
		writeError(rw, statusFor(err), err)
		return
	}
	b, err := e.simulated.get(func() ([]byte, error) {
		resp, err := s.simulate(sr.WorkloadSpec, e.resp.Plan, e.resp.Plan)
		if err != nil {
			return nil, err
		}
		return encodeJSON(resp), nil
	})
	if err != nil {
		writeError(rw, statusFor(err), err)
		return
	}
	writeRendered(rw, b)
}

// simulate measures plan p for a normalized spec on the spec's analyzer
// from the eval-cache registry; tuned is echoed as the reply's TunedPlan.
// A plan that does not fit the workload, or a spec without an analyzer,
// is a bad request; a failed measurement is the server's.
func (s *Server) simulate(ws WorkloadSpec, p, tuned *plan.Plan) (*SimulateResponse, error) {
	w, cl, space, err := ws.normalize()
	if err != nil {
		return nil, &badRequestError{err}
	}
	if err := p.Validate(w); err != nil {
		return nil, &badRequestError{fmt.Errorf("invalid plan: %w", err)}
	}
	an, err := s.evalReg.analyzer(ws, w, cl, space)
	if err != nil {
		return nil, &badRequestError{err}
	}
	m, err := trainsim.New(w, cl, an).Measure(p)
	if err != nil {
		return nil, err
	}
	return &SimulateResponse{
		IterTime:   m.IterTime,
		Throughput: m.Throughput,
		Bubble:     m.Bubble,
		PeakMem:    m.PeakMem,
		BudgetByte: cl.MemoryBudget(),
		OOM:        m.OOM(cl.MemoryBudget()),
		TunedPlan:  tuned,
	}, nil
}

func (s *Server) handleHealthz(rw http.ResponseWriter, req *http.Request) {
	hb := cluster.Heartbeat{OK: true}
	if s.cluster != nil {
		// The epoch and membership fingerprint piggyback on every probe
		// reply: peers compare them to their own and reconcile views
		// (behind on epoch, or diverged at the same epoch) — membership
		// anti-entropy on the existing probe cadence, no extra
		// round-trips.
		id := s.cluster.ViewID()
		hb.ViewStamp = &cluster.ViewStamp{Epoch: id.Epoch, ViewFp: fmt.Sprintf("%016x", id.Fp)}
	}
	writeJSON(rw, http.StatusOK, hb)
}

func (s *Server) handleStats(rw http.ResponseWriter, req *http.Request) {
	writeJSON(rw, http.StatusOK, s.Stats())
}

// Serve runs the service on ln until ctx is canceled, then shuts down
// gracefully, draining in-flight requests for up to grace and stopping
// the job workers. The caller binds ln, so a node can be reachable
// before it joins a cluster.
func (s *Server) Serve(ctx context.Context, ln net.Listener, grace time.Duration) error {
	srv := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err // unexpected server exit
	case <-ctx.Done():
	}
	// The serve context is already done here; the grace period needs a
	// root ancestor or Shutdown would return before draining anything.
	//mistlint:ignore ctxflow graceful drain runs after the serve context is canceled
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	s.Close()
	return err
}

// Stats snapshots the service: a view of the metrics registry (event
// counters by handle, the labelled cluster and HTTP families by sum,
// the per-endpoint latency fold) plus the point-in-time sizes of the
// caches, store and job pool.
func (s *Server) Stats() Stats {
	c := &s.count
	st := Stats{
		TuneRequests:       c.tuneRequests.Value(),
		SimulateRequests:   c.simulateRequests.Value(),
		PlanCacheHits:      c.planCacheHits.Value(),
		TunesRun:           c.tunesRun.Value(),
		PlanCacheSize:      s.planCacheSize(),
		PlanCacheCap:       s.cacheCap,
		PlanCacheEvictions: c.evictions.Value(),
		StoreSize:          s.storeSize(),
		StoreHits:          c.storeHits.Value(),
		Rejected429:        s.rejected429(),

		ClusterForwards:      s.metrics.SumCounters(metricForwardsTotal, nil),
		ClusterForwardErrors: s.metrics.SumCounters(metricForwardErrorsTotal, nil),
		ClusterReplications:  s.metrics.SumCounters(metricReplicationsTotal, metrics.Labels{"outcome": "ok"}),
		// skipped-down targets are neither: the repairer retries them.
		ClusterReplicationErrors: s.metrics.SumCounters(metricReplicationsTotal, metrics.Labels{"outcome": "error"}) +
			s.metrics.SumCounters(metricReplicationsTotal, metrics.Labels{"outcome": "rejected"}),
		ClusterLocalFallbacks: c.localFallbacks.Value(),

		ClusterRebalancePushed:  c.rebalancePushed.Value(),
		ClusterRebalancePulled:  c.rebalancePulled.Value(),
		ClusterRebalanceDropped: c.rebalanceDropped.Value(),
		ClusterRebalanceErrors:  c.rebalanceErrors.Value(),
		ClusterRecordFetches:    c.recordFetches.Value(),
		ClusterRecordFetchHits:  c.recordFetchHits.Value(),

		HTTP: s.httpStats(),
	}
	st.EvalCacheEntries, st.EvalCachePoints = s.evalReg.snapshot()
	st.EvalCachePointCap = s.evalReg.capPoints
	st.EvalCacheEvictions = s.evalReg.evictions.Value()
	st.EvalCachePointsRetired = s.evalReg.retired.Value()
	js := s.jobs.Stats()
	st.JobsSubmitted = js.Submitted
	st.JobsDeduped = js.Deduped
	st.JobsDone = js.Done
	st.JobsFailed = js.Failed
	st.JobsCanceled = js.Canceled
	st.QueueDepth = js.QueueDepth
	st.JobWorkers = js.Workers
	st.BusyWorkers = js.Busy
	if js.Workers > 0 {
		st.WorkerUtilization = float64(js.Busy) / float64(js.Workers)
	}
	if s.cluster != nil {
		st.ClusterEpoch = s.cluster.Epoch()
	}
	return st
}

// badRequestError marks client-side failures (unknown model, bad shape).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func statusFor(err error) int {
	var bad *badRequestError
	var over *overloadError
	var remote *cluster.StatusError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.As(err, &remote):
		// A proxied peer already classified the failure; relay its code.
		return remote.Status
	case errors.As(err, &over), errors.Is(err, jobs.ErrQueueFull):
		// Backpressure: the admission gate or the job queue is full.
		// Degrade promptly with a retry hint instead of hanging.
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		// The per-request deadline expired mid-search.
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the code is a formality it won't read.
		return http.StatusServiceUnavailable
	case errors.Is(err, core.ErrNoFeasiblePlan):
		// The search space genuinely contains no plan under the memory
		// budget: the request was well-formed but unsatisfiable.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(v)
}

func writeError(rw http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// The backpressure contract: every 429/503 carries a hint for
		// when to come back.
		rw.Header().Set("Retry-After", retryAfter)
	}
	writeJSON(rw, status, cluster.ErrorReply{Error: err.Error()})
}
