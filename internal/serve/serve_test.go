package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/schedule"
)

// smallSpec is a workload cheap enough to tune in test time; the
// DeepSpeed space keeps the candidate grid compact.
func smallSpec() WorkloadSpec {
	return WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Space: "deepspeed"}
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(&readTee{r: resp, buf: &buf}).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	} else {
		_, _ = buf.ReadFrom(resp.Body)
	}
	return resp.StatusCode, buf.String()
}

type readTee struct {
	r   *http.Response
	buf *bytes.Buffer
}

func (rt *readTee) Read(p []byte) (int, error) {
	n, err := rt.r.Body.Read(p)
	rt.buf.Write(p[:n])
	return n, err
}

func TestTuneAndPlanCache(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var first TuneResponse
	status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &first)
	if status != http.StatusOK {
		t.Fatalf("first /tune: status %d body %s", status, body)
	}
	if first.Plan == nil || first.Predicted <= 0 {
		t.Fatalf("bad tune response: %+v", first)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	// Hit counts depend on the workload's stage structure (this tiny
	// 2-GPU spec has no duplicate points), but traffic must be reported.
	if first.EvalCacheMiss == 0 {
		t.Error("tuner reported no evaluation-cache traffic")
	}

	var second TuneResponse
	status, body = postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &second)
	if status != http.StatusOK {
		t.Fatalf("second /tune: status %d body %s", status, body)
	}
	if !second.Cached {
		t.Error("repeated request not served from the plan cache")
	}
	a, _ := json.Marshal(first.Plan)
	b, _ := json.Marshal(second.Plan)
	if !bytes.Equal(a, b) {
		t.Errorf("cached plan differs:\n%s\nvs\n%s", a, b)
	}

	st := s.Stats()
	if st.TunesRun != 1 {
		t.Errorf("tuner ran %d times, want 1", st.TunesRun)
	}
	if st.PlanCacheHits != 1 || st.TuneRequests != 2 || st.PlanCacheSize != 1 {
		t.Errorf("stats %+v", st)
	}
}

// Concurrent identical requests coalesce onto a single tuner run and
// all receive the same plan.
func TestConcurrentTuneRequestsCoalesce(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	plans := make([][]byte, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp TuneResponse
			status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &resp)
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d body %s", i, status, body)
				return
			}
			plans[i], _ = json.Marshal(resp.Plan)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(plans[0], plans[i]) {
			t.Errorf("client %d received a different plan", i)
		}
	}
	if st := s.Stats(); st.TunesRun != 1 {
		t.Errorf("tuner ran %d times under concurrent identical requests, want 1", st.TunesRun)
	}
}

func TestSimulateTunesOnDemandAndAcceptsInlinePlan(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sim SimulateResponse
	status, body := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: smallSpec()}, &sim)
	if status != http.StatusOK {
		t.Fatalf("/simulate: status %d body %s", status, body)
	}
	if sim.IterTime <= 0 || sim.Throughput <= 0 || len(sim.PeakMem) == 0 {
		t.Fatalf("bad measurement: %+v", sim)
	}
	if sim.TunedPlan == nil {
		t.Error("on-demand tuned plan not echoed")
	}
	if sim.OOM {
		t.Error("tuned plan OOMs in simulation")
	}
	// The on-demand tune populated the plan cache.
	if st := s.Stats(); st.TunesRun != 1 || st.SimulateRequests != 1 {
		t.Errorf("stats %+v", st)
	}

	// Re-simulate with the tuned plan inlined: no further tuner runs.
	var sim2 SimulateResponse
	req := SimulateRequest{WorkloadSpec: smallSpec(), Plan: sim.TunedPlan}
	status, body = postJSON(t, ts.URL+"/simulate", req, &sim2)
	if status != http.StatusOK {
		t.Fatalf("inline-plan /simulate: status %d body %s", status, body)
	}
	if sim2.TunedPlan != nil {
		t.Error("inline-plan simulate should not echo a tuned plan")
	}
	if sim2.IterTime != sim.IterTime {
		t.Errorf("inline plan measured %v, on-demand %v", sim2.IterTime, sim.IterTime)
	}
	if st := s.Stats(); st.TunesRun != 1 {
		t.Errorf("inline-plan simulate re-ran the tuner: %+v", st)
	}

	// The measurement runs in the space's execution mode: a plan with a
	// gradient all-reduce to hide (DP=2, full checkpointing) is slower
	// under Aceso's serialized runtime than under Mist's overlapped one.
	layers := 24 // gpt3-1.3b
	dp2 := &plan.Plan{GradAccum: 2, Stages: []plan.Stage{{
		Shape: schedule.StageShape{B: 2, DP: 2, TP: 1, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 2},
		Knobs: schedule.Knobs{Layers: layers, Ckpt: layers},
	}}}
	iterTime := map[string]float64{}
	for _, space := range []string{"aceso", "mist"} {
		spec := smallSpec()
		spec.Space = space
		var m SimulateResponse
		status, body := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: spec, Plan: dp2}, &m)
		if status != http.StatusOK {
			t.Fatalf("%s inline-plan /simulate: status %d body %s", space, status, body)
		}
		iterTime[space] = m.IterTime
	}
	if !(iterTime["aceso"] > iterTime["mist"]) {
		t.Errorf("aceso measured %.4fs, mist %.4fs: serialized execution should be slower",
			iterTime["aceso"], iterTime["mist"])
	}
}

func TestErrorPaths(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Unknown model -> 400, and the failure is not cached.
	bad := smallSpec()
	bad.Model = "gpt9-999t"
	status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: bad}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("unknown model: status %d body %s", status, body)
	}
	// Malformed JSON -> 400.
	resp, err := http.Post(ts.URL+"/tune", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	// GET /tune -> 405.
	resp, err = http.Get(ts.URL + "/tune")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /tune: status %d", resp.StatusCode)
	}
	// Infeasible workload -> 422 (no plan fits 2 GPUs without memory
	// optimizations at seq 4096).
	infeasible := WorkloadSpec{Model: "gpt3-7b", GPUs: 2, Batch: 8, Seq: 4096, Space: "3d"}
	infeasible.Space = "3d"
	status, body = postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: infeasible}, nil)
	if status != http.StatusUnprocessableEntity {
		t.Errorf("infeasible workload: status %d body %s", status, body)
	}
	if st := s.Stats(); st.PlanCacheSize != 0 {
		t.Errorf("failed requests were cached: %+v", st)
	}

	if status, _ := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: bad}, nil); status != http.StatusBadRequest {
		t.Errorf("simulate with unknown model: status %d", status)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := New()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status %d", resp.StatusCode)
	}
	var health map[string]bool
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil || !health["ok"] {
		t.Errorf("bad health body: %v %v", health, err)
	}

	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TuneRequests != 0 || st.TunesRun != 0 {
		t.Errorf("fresh server has traffic: %+v", st)
	}
}

// Full lifecycle: serve on a real socket, answer a request, then cancel
// the context and verify the graceful shutdown completes.
func TestListenAndServeGracefulShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- New().Serve(ctx, ln, 5*time.Second) }()

	// Wait for the listener to come up.
	url := "http://" + addr + "/healthz"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graceful shutdown timed out")
	}
}
