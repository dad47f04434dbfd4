package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Limits is the serving layer's backpressure contract. Each expensive
// synchronous endpoint class (/tune, /simulate) gets its own admission
// gate: at most MaxInflight requests execute at once, at most MaxQueue
// more wait for a slot, and anything beyond that is refused immediately
// with 429 and a Retry-After hint — the server never hangs and never
// queues unboundedly. MaxQueue also bounds the async job queue (POST
// /jobs past the bound answers 429 the same way). RequestTimeout is the
// per-request deadline, propagated through the tuner's context so a
// search in progress is abandoned (504) rather than left running for a
// client that has given up.
type Limits struct {
	// MaxInflight caps concurrently executing requests per endpoint
	// class (default: GOMAXPROCS, min 2).
	MaxInflight int
	// MaxQueue caps requests waiting for an execution slot per class,
	// and the async job queue depth (default 256; values < 0 mean 0 —
	// refuse whenever saturated).
	MaxQueue int
	// RequestTimeout bounds one synchronous request end to end,
	// including admission wait (default 0: no deadline).
	RequestTimeout time.Duration
}

const defaultMaxQueue = 256

func (l Limits) withDefaults() Limits {
	if l.MaxInflight < 1 {
		l.MaxInflight = maxInflightDefault()
	}
	if l.MaxQueue == 0 {
		l.MaxQueue = defaultMaxQueue
	}
	if l.MaxQueue < 0 {
		l.MaxQueue = 0
	}
	return l
}

func maxInflightDefault() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return n
}

// overloadError is the admission gate's refusal: the endpoint's run
// slots and wait queue are both full.
type overloadError struct {
	endpoint string
}

func (e *overloadError) Error() string {
	return fmt.Sprintf("serve: %s overloaded (admission queue full), retry after %ss",
		e.endpoint, retryAfter)
}

// gate is one endpoint class's admission control: a slot semaphore plus
// a bounded wait counter. acquire either returns promptly with an
// overloadError (queue full) or waits — bounded by the request context —
// for a slot.
type gate struct {
	endpoint string
	slots    chan struct{}
	waiting  atomic.Int64
	maxWait  int64
}

func newGate(endpoint string, l Limits) *gate {
	return &gate{
		endpoint: endpoint,
		slots:    make(chan struct{}, l.MaxInflight),
		maxWait:  int64(l.MaxQueue),
	}
}

func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	// All slots busy: join the wait queue if it has room. The atomic
	// add is the admission decision, so the bound is strict — waiting
	// never exceeds maxWait.
	if g.waiting.Add(1) > g.maxWait {
		g.waiting.Add(-1)
		return &overloadError{endpoint: g.endpoint}
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (g *gate) release() { <-g.slots }

// Metric family names exposed at /metrics and folded into /stats.
const (
	metricRequestsTotal  = "mist_http_requests_total"
	metricRequestSeconds = "mist_http_request_seconds"
)

// statusRecorder captures the response code written by a handler so the
// instrumentation middleware can label its counters.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// counterFamily hands out the counters of one labelled family by label
// tuple, resolving each tuple in the registry once per server: a
// registry lookup renders its label set, so a request path asks here
// and pays a short map lookup instead. Each server has its own (the
// handles are its registry's).
type counterFamily[K comparable] struct {
	reg    *metrics.Registry
	name   string
	labels func(K) metrics.Labels

	mu    sync.Mutex
	byKey map[K]*metrics.Counter
}

func newCounterFamily[K comparable](reg *metrics.Registry, name string, labels func(K) metrics.Labels) *counterFamily[K] {
	return &counterFamily[K]{reg: reg, name: name, labels: labels, byKey: map[K]*metrics.Counter{}}
}

// get returns the family's counter for the label tuple k.
func (f *counterFamily[K]) get(k K) *metrics.Counter {
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.byKey[k]
	if !ok {
		c = f.reg.Counter(f.name, f.labels(k))
		f.byKey[k] = c
	}
	return c
}

// wrap is the middleware stack applied to every route: per-request
// deadline, admission gate (nil for cheap endpoints), and latency +
// status-code instrumentation under a stable endpoint label. The
// histogram is resolved once at mount time and code counters once per
// route and code (registry pointers are stable), so the per-request
// cost is a short map lookup plus atomic adds — no label allocation on
// the hot path this package exists to measure.
func (s *Server) wrap(endpoint string, g *gate, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Histogram(metricRequestSeconds, metrics.Labels{"endpoint": endpoint})
	codes := newCounterFamily(s.metrics, metricRequestsTotal, func(code int) metrics.Labels {
		return metrics.Labels{"endpoint": endpoint, "code": strconv.Itoa(code)}
	})
	observe := func(code int, d time.Duration, traceID string) {
		codes.get(code).Inc()
		// Sampled requests leave their trace id as the latency bucket's
		// exemplar, so an SLO latency breach links straight to a
		// /debug/traces entry from the offending latency band.
		hist.ObserveTrace(d, traceID)
	}
	return func(rw http.ResponseWriter, req *http.Request) {
		start := time.Now()
		// Request identity: assigned at ingress, reused across forwarded
		// hops (the forwarding node already stamped the header), echoed
		// to the client, and carried in the context into job records and
		// log lines.
		rid := req.Header.Get(cluster.HeaderRequestID)
		if rid == "" {
			rid = newRequestID()
		}
		ctx := trace.WithRequestID(req.Context(), rid)
		if s.limits.RequestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.limits.RequestTimeout)
			defer cancel()
		}
		// Trace root: a request arriving with X-Mist-Trace continues the
		// sender's trace (its portion here is a hop, parented under the
		// sender's span); otherwise local sampling may start a fresh one
		// on operation endpoints.
		var rootSp *trace.Span
		if s.trace != nil {
			name := req.Method + " " + endpoint
			if tid := req.Header.Get(trace.HeaderTrace); tid != "" {
				ctx, rootSp = s.trace.ContinueTrace(ctx, name, tid, req.Header.Get(trace.HeaderSpan), rid)
			} else if tracedEndpoint(endpoint) {
				ctx, rootSp = s.trace.StartTrace(ctx, name, rid)
			}
		}
		req = req.WithContext(ctx)
		sr := &statusRecorder{ResponseWriter: rw, code: http.StatusOK}
		sr.Header().Set(cluster.HeaderRequestID, rid)
		if s.cluster != nil {
			sr.Header().Set(cluster.HeaderServedBy, s.cluster.Self())
		}
		finish := func() {
			observe(sr.code, time.Since(start), rootSp.TraceID())
			if s.logging(ctx) {
				s.log.LogAttrs(ctx, slog.LevelInfo, "request",
					slog.String("method", req.Method), slog.String("endpoint", endpoint),
					slog.Int("code", sr.code), slog.Duration("took", time.Since(start)))
			}
			rootSp.Annotate("code", sr.code)
			rootSp.End()
		}
		if g != nil && !s.admittedUpstream(req) {
			actx, asp := trace.StartSpan(req.Context(), "admission")
			err := g.acquire(actx)
			asp.End()
			if err != nil {
				writeError(sr, statusFor(err), err)
				finish()
				return
			}
			defer g.release()
		}
		h(sr, req)
		finish()
	}
}

// EndpointStats is the /stats view of one instrumented endpoint.
type EndpointStats struct {
	Endpoint string            `json:"endpoint"`
	Requests uint64            `json:"requests"`
	Codes    map[string]uint64 `json:"codes"`
	P50Ms    float64           `json:"p50Ms"`
	P95Ms    float64           `json:"p95Ms"`
	P99Ms    float64           `json:"p99Ms"`
	MeanMs   float64           `json:"meanMs"`
	MaxMs    float64           `json:"maxMs"`
}

// httpStats folds the metrics registry into per-endpoint summaries,
// sorted by endpoint for stable /stats output.
func (s *Server) httpStats() []EndpointStats {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	sums := s.metrics.SummarizeEndpoints(metricRequestsTotal, metricRequestSeconds)
	out := make([]EndpointStats, len(sums))
	for i, es := range sums {
		out[i] = EndpointStats{
			Endpoint: es.Endpoint,
			Requests: es.Requests,
			Codes:    es.Codes,
			P50Ms:    ms(es.P50),
			P95Ms:    ms(es.P95),
			P99Ms:    ms(es.P99),
			MeanMs:   ms(es.Mean),
			MaxMs:    ms(es.Max),
		}
	}
	return out
}

// handleMetrics renders the registry in the Prometheus text exposition
// format — the whole of /metrics: every counter, gauge and histogram
// the server exposes is a registry series.
func (s *Server) handleMetrics(rw http.ResponseWriter, req *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rw.WriteHeader(http.StatusOK)
	s.metrics.WritePrometheus(rw)
}

// retryAfter is the Retry-After hint, in seconds, every 429 and 503
// carries.
const retryAfter = "1"
