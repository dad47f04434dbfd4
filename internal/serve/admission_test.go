package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

func TestGateRefusesBeyondQueueBound(t *testing.T) {
	g := newGate("/tune", Limits{MaxInflight: 1, MaxQueue: 1}.withDefaults())
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second caller waits (queue slot 1); third must be refused at once.
	waited := make(chan error, 1)
	go func() { waited <- g.acquire(context.Background()) }()
	// Give the waiter time to enter the queue.
	deadline := time.Now().Add(2 * time.Second)
	for g.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	err := g.acquire(context.Background())
	var over *overloadError
	if !errors.As(err, &over) {
		t.Fatalf("over-bound acquire returned %v, want overloadError", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refusal took %v, want prompt", d)
	}
	g.release() // waiter gets the slot
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	g.release()
	// Queue drained: a fresh acquire succeeds again.
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("post-drain acquire: %v", err)
	}
	g.release()
}

// Driving an endpoint past MaxInflight+MaxQueue yields prompt 429s with
// Retry-After while admitted requests complete normally, concurrency
// never exceeds the inflight bound, and the counters reconcile.
func TestAdmissionOverloadReturns429(t *testing.T) {
	s := New(WithLimits(Limits{MaxInflight: 1, MaxQueue: 2}))
	defer s.Close()

	block := make(chan struct{})
	var inflight, maxInflight atomic.Int64
	h := s.wrap("/tune", s.tuneGate, func(rw http.ResponseWriter, req *http.Request) {
		cur := inflight.Add(1)
		for {
			prev := maxInflight.Load()
			if cur <= prev || maxInflight.CompareAndSwap(prev, cur) {
				break
			}
		}
		<-block
		inflight.Add(-1)
		writeJSON(rw, http.StatusOK, map[string]bool{"ok": true})
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	const clients = 10
	type result struct {
		status     int
		retryAfter string
		elapsed    time.Duration
	}
	results := make(chan result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(start)}
		}()
	}

	// 1 executes + 2 queued = 3 admitted; 7 must be refused promptly
	// even though the admitted ones are still blocked.
	var refused []result
	for i := 0; i < clients-3; i++ {
		select {
		case r := <-results:
			refused = append(refused, r)
		case <-time.After(10 * time.Second):
			t.Fatalf("refusals not prompt: got %d of %d", len(refused), clients-3)
		}
	}
	for _, r := range refused {
		if r.status != http.StatusTooManyRequests {
			t.Errorf("refused request: status %d, want 429", r.status)
		}
		if r.retryAfter != "1" {
			t.Errorf("429 with Retry-After %q, want \"1\"", r.retryAfter)
		}
	}
	close(block) // admitted requests drain
	wg.Wait()
	close(results)
	ok := 0
	for r := range results {
		if r.status == http.StatusOK {
			ok++
		}
	}
	if ok != 3 {
		t.Errorf("%d admitted requests succeeded, want 3", ok)
	}
	if m := maxInflight.Load(); m > 1 {
		t.Errorf("observed %d concurrent executions, inflight bound is 1", m)
	}
	st := s.Stats()
	if st.Rejected429 != uint64(clients-3) {
		t.Errorf("stats report %d rejections, want %d", st.Rejected429, clients-3)
	}
	var ep *EndpointStats
	for i := range st.HTTP {
		if st.HTTP[i].Endpoint == "/tune" {
			ep = &st.HTTP[i]
		}
	}
	if ep == nil {
		t.Fatalf("no /tune endpoint stats: %+v", st.HTTP)
	}
	if ep.Requests != clients || ep.Codes["429"] != uint64(clients-3) || ep.Codes["200"] != 3 {
		t.Errorf("endpoint stats %+v", *ep)
	}
}

// A per-request deadline propagates into the running search: an
// expensive tune under a tiny timeout returns 504, not a hang.
func TestRequestTimeoutAbortsSearch(t *testing.T) {
	const deadline = 5 * time.Millisecond
	s := New(WithLimits(Limits{RequestTimeout: deadline}))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A paper-scale cell: an uninterrupted search prices 2 370 060
	// candidates, about 200 ms through a server on 2 vCPUs — 40 deadlines —
	// so the deadline always expires mid-search.
	spec := WorkloadSpec{Model: "gpt3-22b", GPUs: 64, Batch: 256, Space: "mist"}
	body, _ := json.Marshal(TuneRequest{WorkloadSpec: spec})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	d := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("status %d, want 504", resp.StatusCode)
	}
	// The failed search is not cached; a retry is admitted cleanly.
	if st := s.Stats(); st.PlanCacheSize != 0 {
		t.Errorf("timed-out search left a cache entry: %+v", st)
	}

	// The search stops between stage shapes, so the reply comes a few
	// shapes' pricing after the deadline: well under the same search
	// uninterrupted, timed here on a server without the limit.
	free := New()
	defer free.Close()
	fs := httptest.NewServer(free.Handler())
	defer fs.Close()
	start = time.Now()
	full, err := http.Post(fs.URL+"/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	full.Body.Close()
	if searched := time.Since(start); full.StatusCode != http.StatusOK || 4*d > searched {
		t.Errorf("the deadline-bound request took %v, the uninterrupted search %v (status %d): want under a quarter of it",
			d, searched, full.StatusCode)
	}
}

// The async job queue shares the bound: flooding POST /jobs past
// MaxQueue answers 429 + Retry-After instead of queueing unboundedly.
func TestJobSubmitBackpressure(t *testing.T) {
	s := New(WithJobWorkers(1), WithLimits(Limits{MaxQueue: 1}))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	saw429 := false
	for i := 0; i < 50 && !saw429; i++ {
		// Distinct, moderately expensive cold specs keep the single
		// worker busy while the queue bound is probed.
		spec := JobSpec{WorkloadSpec: WorkloadSpec{
			Model: "gpt3-2.7b", GPUs: 4, Batch: 32, Seq: 1024 + 16*i, Space: "mist",
		}}
		body, _ := json.Marshal(JobsSubmitRequest{JobSpec: spec})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests {
			saw429 = true
			if ra := resp.Header.Get("Retry-After"); ra != "1" {
				t.Errorf("429 with Retry-After %q, want \"1\"", ra)
			}
		} else if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if !saw429 {
		t.Fatal("queue bound never enforced across 50 rapid submissions")
	}
	if st := s.Stats(); st.QueueDepth > 1 {
		t.Errorf("queue depth %d exceeds bound 1", st.QueueDepth)
	}
}

func TestStatusForBackpressureMapping(t *testing.T) {
	if got := statusForSubmit(jobs.ErrQueueFull); got != http.StatusTooManyRequests {
		t.Errorf("ErrQueueFull -> %d, want 429", got)
	}
	if got := statusFor(context.DeadlineExceeded); got != http.StatusGatewayTimeout {
		t.Errorf("DeadlineExceeded -> %d, want 504", got)
	}
	if got := statusFor(fmt.Errorf("wrapped: %w", context.DeadlineExceeded)); got != http.StatusGatewayTimeout {
		t.Errorf("wrapped DeadlineExceeded -> %d, want 504", got)
	}
	rec := httptest.NewRecorder()
	writeError(rec, http.StatusTooManyRequests, &overloadError{endpoint: "/tune"})
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After %q, want \"1\"", ra)
	}
}

// GET /metrics renders the Prometheus exposition and its totals match
// the requests actually served.
func TestMetricsEndpoint(t *testing.T) {
	s := New()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(TuneRequest{WorkloadSpec: smallSpec()})
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tune %d: status %d", i, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	data, _ := io.ReadAll(resp.Body)
	out := string(data)
	for _, want := range []string{
		`mist_http_requests_total{code="200",endpoint="/tune"} 2`,
		`mist_http_request_seconds_count{endpoint="/tune"} 2`,
		"# TYPE mist_http_request_seconds histogram",
		"mist_tunes_run_total 1",
		"mist_plan_cache_hits_total 1",
		"mist_plan_cache_size 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
}

// A forwarded hop must not queue behind the target node's admission
// gate: the forwarder holds its own gate slot for the whole hop, so
// re-admitting the hop is hold-and-wait across nodes, and two nodes
// forwarding into each other's full gates deadlock permanently. The
// fleet-wide bound is preserved by the ingress gates; the hop rides
// the slot already charged there.
func TestForwardedHopBypassesAdmission(t *testing.T) {
	lc, err := NewLocalCluster(LocalClusterOptions{
		Nodes:    2,
		Replicas: 1,
		// MaxQueue -1 means no wait queue: a saturated gate refuses at
		// once, which keeps the direct-request probe below prompt.
		ServerOptions: []Option{WithLimits(Limits{MaxInflight: 1, MaxQueue: -1})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	// Saturate n1's only /tune slot, as a stuck local request would.
	srv := lc.Node("n1")
	srv.tuneGate.slots <- struct{}{}
	defer func() { <-srv.tuneGate.slots }()

	body := `{"model":"gpt3-1.3b","gpus":2,"batch":8,"space":"deepspeed"}`

	// A direct client request finds the gate full and is refused.
	direct := httptest.NewRequest(http.MethodPost, "http://n1/tune", strings.NewReader(body))
	direct.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	lc.Handler("n1").ServeHTTP(rec, direct)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("direct request with full gate: got %d, want 429", rec.Code)
	}

	// The same request marked as a peer hop executes despite the full
	// gate instead of blocking on it.
	fwd := httptest.NewRequest(http.MethodPost, "http://n1/tune", strings.NewReader(body))
	fwd.Header.Set("Content-Type", "application/json")
	fwd.Header.Set(cluster.HeaderForwardedBy, "n2")
	fwdRec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		lc.Handler("n1").ServeHTTP(fwdRec, fwd)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("forwarded hop blocked on the saturated admission gate")
	}
	if fwdRec.Code != http.StatusOK {
		t.Fatalf("forwarded hop: got %d (%s), want 200", fwdRec.Code, fwdRec.Body.String())
	}
}
