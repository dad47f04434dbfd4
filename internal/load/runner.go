package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/slo"
	"repro/internal/trace"
)

// Target executes one HTTP request. *http.Client satisfies it for live
// servers; NewHandlerTarget adapts an in-process http.Handler so a
// scenario can run with zero network variance.
type Target interface {
	Do(req *http.Request) (*http.Response, error)
}

type handlerTarget struct{ h http.Handler }

// NewHandlerTarget wraps an in-process handler as a Target.
func NewHandlerTarget(h http.Handler) Target { return handlerTarget{h: h} }

func (t handlerTarget) Do(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// Options configures one load run. Duration and MaxOps are both
// optional, but at least one must bound the run.
type Options struct {
	Scenario    string        // scenario name (see ScenarioNames)
	Seed        int64         // op-stream seed
	Concurrency int           // parallel workers (default 4)
	Rate        float64       // target arrival rate, ops/sec (0: unpaced)
	Duration    time.Duration // stop feeding new ops after this long
	MaxOps      int           // stop after this many ops (0: unlimited)

	// TraceSample stamps every Nth op with a deterministic X-Mist-Trace
	// id, forcing the server to record it end to end (0: off, 1: every
	// op). Audit the result with AuditTraces after the run.
	TraceSample int

	// SLOConfig, when set, scores the finished run's client-side series
	// against the spec (one-shot, whole run as the window): the report
	// gains an `slo` section and callers are expected to exit non-zero
	// when the verdict is unmet.
	SLOConfig *slo.Config
}

// EndpointReport aggregates one endpoint's results.
type EndpointReport struct {
	Requests     uint64            `json:"requests"`
	StatusCounts map[string]uint64 `json:"statusCounts"`
	P50Ms        float64           `json:"p50Ms"`
	P95Ms        float64           `json:"p95Ms"`
	P99Ms        float64           `json:"p99Ms"`
	MeanMs       float64           `json:"meanMs"`
	MaxMs        float64           `json:"maxMs"`
}

// Report is the machine-readable result of a load run, suitable for
// BENCH.json trajectory tracking.
type Report struct {
	Scenario        string                     `json:"scenario"`
	Seed            int64                      `json:"seed"`
	Concurrency     int                        `json:"concurrency"`
	RateLimit       float64                    `json:"rateLimit,omitempty"`
	ElapsedSeconds  float64                    `json:"elapsedSeconds"`
	Requests        uint64                     `json:"requests"`
	ThroughputRPS   float64                    `json:"throughputRps"`
	TransportErrors uint64                     `json:"transportErrors"`
	StatusCounts    map[string]uint64          `json:"statusCounts"`
	Server5xx       uint64                     `json:"server5xx"`
	Endpoints       map[string]*EndpointReport `json:"endpoints"`

	// TracedOps counts sampled ops that produced a response; filled when
	// Options.TraceSample > 0. TraceAudit and Phases are filled by the
	// caller from AuditTraces (the runner itself does not know the
	// fleet's per-node debug endpoints).
	TracedOps  uint64                  `json:"tracedOps,omitempty"`
	TraceAudit *TraceAudit             `json:"traceAudit,omitempty"`
	Phases     map[string]*PhaseReport `json:"phases,omitempty"`

	// SLO is the run verdict (filled when Options.SLOConfig is set);
	// FleetHealth is the servers' own GET /cluster/health fold, filled
	// by the caller for reconciliation (the runner only knows its
	// client-side view).
	SLO         *slo.RunScore    `json:"slo,omitempty"`
	FleetHealth *slo.FleetReport `json:"fleetHealth,omitempty"`
}

// endpointOf maps an op onto the serving layer's endpoint labels, so a
// load report reconciles 1:1 against the server's /metrics series.
func endpointOf(k OpKind) string {
	switch k {
	case OpTune:
		return "/tune"
	case OpSimulate:
		return "/simulate"
	case OpJobSubmit, OpJobList:
		return "/jobs"
	case OpJobCancel:
		return "/jobs/{id}"
	default:
		return "/stats"
	}
}

// recorder caches the stable series pointers behind (endpoint, code)
// keys so the per-op recording cost is a short locked map lookup plus
// atomic adds — no label-map allocation per request.
type recorder struct {
	reg    *metrics.Registry
	mu     sync.Mutex
	hists  map[string]*metrics.Histogram
	counts map[string]*metrics.Counter
}

func newRecorder(reg *metrics.Registry) *recorder {
	return &recorder{
		reg:    reg,
		hists:  map[string]*metrics.Histogram{},
		counts: map[string]*metrics.Counter{},
	}
}

func (r *recorder) observe(ep string, code int, d time.Duration) {
	key := ep + "|" + strconv.Itoa(code)
	r.mu.Lock()
	h, ok := r.hists[ep]
	if !ok {
		h = r.reg.Histogram("load_request_seconds", metrics.Labels{"endpoint": ep})
		r.hists[ep] = h
	}
	c, ok := r.counts[key]
	if !ok {
		c = r.reg.Counter("load_requests_total", metrics.Labels{
			"endpoint": ep, "code": strconv.Itoa(code),
		})
		r.counts[key] = c
	}
	r.mu.Unlock()
	h.Observe(d)
	c.Inc()
}

// jobTracker remembers recently submitted job ids so cancel ops have a
// live target; bounded so an all-submit run cannot grow it.
type jobTracker struct {
	mu  sync.Mutex
	ids []string
}

const maxTrackedJobs = 256

func (t *jobTracker) push(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ids) >= maxTrackedJobs {
		t.ids = t.ids[1:]
	}
	t.ids = append(t.ids, id)
}

func (t *jobTracker) pop() (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.ids) == 0 {
		return "", false
	}
	id := t.ids[0]
	t.ids = t.ids[1:]
	return id, true
}

// Run replays the scenario against the target and aggregates a report.
// The op sequence fed to the workers is deterministic in (scenario,
// seed); scheduling across workers is not, so aggregate counts — not
// arrival order — are the replayable quantity.
func Run(ctx context.Context, target Target, opts Options) (*Report, error) {
	stream, err := NewStream(opts.Scenario, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.Concurrency < 1 {
		opts.Concurrency = 4
	}
	if opts.Duration <= 0 && opts.MaxOps <= 0 {
		return nil, fmt.Errorf("load: unbounded run (set Duration or MaxOps)")
	}
	// The duration bounds op ADMISSION (the feeder below), not in-flight
	// completion: ops already handed to a worker finish gracefully after
	// the deadline, so a timed run ends with drained workers, not a tail
	// of 504s. The caller's ctx still aborts in-flight requests — that
	// is the SIGINT/teardown path.
	admitCtx := ctx
	if opts.Duration > 0 {
		var cancel context.CancelFunc
		admitCtx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	reg := metrics.NewRegistry()
	rec := newRecorder(reg)
	sampler := newTraceSampler(opts.TraceSample, opts.Seed)
	var (
		tracker   jobTracker
		transport metrics.Counter
	)

	ops := make(chan Op)
	go func() {
		defer close(ops)
		var pace *time.Ticker
		if opts.Rate > 0 {
			interval := time.Duration(float64(time.Second) / opts.Rate)
			if interval > 0 { // rates past 1e9/s truncate to 0: run unpaced
				pace = time.NewTicker(interval)
				defer pace.Stop()
			}
		}
		for i := 0; opts.MaxOps <= 0 || i < opts.MaxOps; i++ {
			op := stream.Next()
			select {
			case ops <- op:
			case <-admitCtx.Done():
				return
			}
			if pace != nil {
				select {
				case <-pace.C:
				case <-admitCtx.Done():
					return
				}
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range ops {
				runOp(ctx, target, op, rec, &tracker, &transport, sampler)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Scenario:        opts.Scenario,
		Seed:            opts.Seed,
		Concurrency:     opts.Concurrency,
		RateLimit:       opts.Rate,
		ElapsedSeconds:  elapsed.Seconds(),
		TransportErrors: transport.Value(),
		StatusCounts:    map[string]uint64{},
		Endpoints:       map[string]*EndpointReport{},
	}
	// Same fold as the server's /stats (metrics.SummarizeEndpoints), so
	// the report reconciles with /metrics by construction.
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, es := range reg.SummarizeEndpoints("load_requests_total", "load_request_seconds") {
		rep.Endpoints[es.Endpoint] = &EndpointReport{
			Requests:     es.Requests,
			StatusCounts: es.Codes,
			P50Ms:        ms(es.P50),
			P95Ms:        ms(es.P95),
			P99Ms:        ms(es.P99),
			MeanMs:       ms(es.Mean),
			MaxMs:        ms(es.Max),
		}
		rep.Requests += es.Requests
		for code, n := range es.Codes {
			rep.StatusCounts[code] += n
			if len(code) == 3 && code[0] == '5' {
				rep.Server5xx += n
			}
		}
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if sampler != nil {
		rep.TracedOps = sampler.sent.Load()
	}
	if opts.SLOConfig != nil {
		score, err := slo.Score(reg, "load_requests_total", "load_request_seconds", *opts.SLOConfig)
		if err != nil {
			return nil, fmt.Errorf("load: slo scoring: %w", err)
		}
		rep.SLO = &score
	}
	return rep, nil
}

// runOp executes one op and records its outcome under the run's
// context, so canceling the run aborts in-flight requests instead of
// waiting them out. Cancel ops with no tracked job degrade to a list
// (keeps the request count stable without inventing 404 noise).
func runOp(ctx context.Context, target Target, op Op, rec *recorder, tracker *jobTracker, transport *metrics.Counter, sampler *traceSampler) {
	var (
		method = http.MethodPost
		path   string
		body   io.Reader
	)
	switch op.Kind {
	case OpTune:
		path = "/tune"
	case OpSimulate:
		path = "/simulate"
	case OpJobSubmit:
		path = "/jobs"
	case OpJobList:
		method, path = http.MethodGet, "/jobs"
	case OpStats:
		method, path = http.MethodGet, "/stats"
	case OpJobCancel:
		id, ok := tracker.pop()
		if !ok {
			method, path = http.MethodGet, "/jobs"
			op.Kind = OpJobList
			break
		}
		method, path = http.MethodDelete, "/jobs/"+id
	default:
		return
	}
	if body == nil && len(op.Body) > 0 && method == http.MethodPost {
		body = bytes.NewReader(op.Body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://inproc"+path, body)
	if err != nil {
		transport.Inc()
		return
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	// A stamped X-Mist-Trace forces the server to record this op end to
	// end — the client is the sampling edge, no server-side flag needed.
	tid := sampler.pick()
	if tid != "" {
		req.Header.Set(trace.HeaderTrace, tid)
	}

	ep := endpointOf(op.Kind)
	start := time.Now()
	resp, err := target.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		transport.Inc()
		return
	}
	if tid != "" {
		sampler.delivered()
	}
	defer resp.Body.Close()
	rec.observe(ep, resp.StatusCode, elapsed)

	if op.Kind == OpJobSubmit && resp.StatusCode == http.StatusAccepted {
		var st struct {
			ID string `json:"id"`
		}
		if json.NewDecoder(resp.Body).Decode(&st) == nil && st.ID != "" {
			tracker.push(st.ID)
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
}
