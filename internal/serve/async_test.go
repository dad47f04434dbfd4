package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// TestBadRequestTable is the table-driven error-path contract: every
// malformed or unresolvable request to /tune and /simulate must come
// back as 400, never 500.
func TestBadRequestTable(t *testing.T) {
	s := New()
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"malformed JSON", `{"model": "gpt3-1.3b",`},
		{"not JSON at all", `tune my model please`},
		{"unknown model", `{"model":"gpt9-999t","gpus":2,"batch":8}`},
		{"unknown platform", `{"model":"gpt3-1.3b","platform":"tpu","gpus":2,"batch":8}`},
		{"unknown space", `{"model":"gpt3-1.3b","gpus":2,"batch":8,"space":"quantum"}`},
		{"zero gpus", `{"model":"gpt3-1.3b","gpus":0,"batch":8}`},
		{"bad gpu count", `{"model":"gpt3-1.3b","gpus":12,"batch":8}`},
		{"zero batch", `{"model":"gpt3-1.3b","gpus":2,"batch":0}`},
		{"negative seq", `{"model":"gpt3-1.3b","gpus":2,"batch":8,"seq":-5}`},
	}
	for _, endpoint := range []string{"/tune", "/simulate"} {
		for _, tc := range cases {
			t.Run(endpoint+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+endpoint, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					var buf bytes.Buffer
					buf.ReadFrom(resp.Body)
					t.Errorf("status %d, want 400; body %s", resp.StatusCode, buf.String())
				}
				var errBody map[string]string
				if err := json.NewDecoder(resp.Body).Decode(&errBody); err == nil && errBody["error"] == "" {
					t.Error("error body missing explanation")
				}
			})
		}
	}
	// Nothing was cached for failed requests and no searches ran.
	if st := s.Stats(); st.PlanCacheSize != 0 || st.TunesRun != 0 {
		t.Errorf("failed requests left state: %+v", st)
	}
}

// TestCacheCapAndEvictions lowers the plan cache's bound: filling it
// past the bound evicts completed entries and counts them.
func TestCacheCapAndEvictions(t *testing.T) {
	s := New()
	s.cacheCap = 2
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Three distinct specs (different batch) through a 2-slot cache.
	for _, b := range []int{8, 16, 32} {
		spec := smallSpec()
		spec.Batch = b
		status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: spec}, &TuneResponse{})
		if status != http.StatusOK {
			t.Fatalf("tune batch=%d: status %d body %s", b, status, body)
		}
	}
	st := s.Stats()
	if st.PlanCacheCap != 2 {
		t.Errorf("cap = %d, want 2", st.PlanCacheCap)
	}
	if st.PlanCacheSize > 2 {
		t.Errorf("cache size %d exceeds cap 2", st.PlanCacheSize)
	}
	if st.PlanCacheEvictions == 0 {
		t.Error("no evictions counted after overflowing the cache")
	}
}

// TestStorePersistenceAcrossRestart is the durability acceptance: plans
// tuned by one server instance are served by a fresh instance over the
// same directory without re-running the search.
func TestStorePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(WithStore(st1))
	ts1 := httptest.NewServer(s1.Handler())

	var first TuneResponse
	status, body := postJSON(t, ts1.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &first)
	if status != http.StatusOK {
		t.Fatalf("first tune: status %d body %s", status, body)
	}
	if first.FromStore {
		t.Error("fresh search claimed to come from the store")
	}
	if s1.Stats().TunesRun != 1 {
		t.Fatalf("stats after first tune: %+v", s1.Stats())
	}
	ts1.Close()
	s1.Close() // "kill" the first server

	// Restart over the same directory: the plan must come from disk.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Fatalf("restarted store has %d plans, want 1", st2.Len())
	}
	s2 := New(WithStore(st2))
	defer s2.Close()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	var again TuneResponse
	status, body = postJSON(t, ts2.URL+"/tune", TuneRequest{WorkloadSpec: smallSpec()}, &again)
	if status != http.StatusOK {
		t.Fatalf("post-restart tune: status %d body %s", status, body)
	}
	if !again.FromStore {
		t.Error("post-restart plan not served from the store")
	}
	if again.StoreVersion != 1 {
		t.Errorf("store version %d, want 1", again.StoreVersion)
	}
	stats := s2.Stats()
	if stats.TunesRun != 0 {
		t.Errorf("restarted server re-ran the search: %+v", stats)
	}
	if stats.StoreHits != 1 || stats.StoreSize != 1 {
		t.Errorf("store stats: %+v", stats)
	}
	a, _ := json.Marshal(first.Plan)
	b, _ := json.Marshal(again.Plan)
	if !bytes.Equal(a, b) {
		t.Errorf("stored plan differs from the tuned one:\n%s\nvs\n%s", a, b)
	}
}

// TestJobsLifecycle drives the full async API over HTTP: batch submit
// with priorities and a duplicate, polling to completion, result
// retrieval, dedup accounting, and list/stats.
func TestJobsLifecycle(t *testing.T) {
	s := New(WithJobWorkers(2))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec := smallSpec()
	dup := smallSpec() // same workload: must dedup onto the first job
	other := smallSpec()
	other.Batch = 16
	body, _ := json.Marshal(JobsSubmitRequest{Jobs: []JobSpec{
		{WorkloadSpec: spec, Priority: 1},
		{WorkloadSpec: dup},
		{WorkloadSpec: other, Priority: 5},
	}})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch JobsListResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status %d", resp.StatusCode)
	}
	if len(batch.Jobs) != 3 {
		t.Fatalf("submitted 3 specs, got %d statuses", len(batch.Jobs))
	}
	if batch.Jobs[1].ID != batch.Jobs[0].ID || !batch.Jobs[1].Deduped {
		t.Errorf("duplicate spec not deduped: %+v vs %+v", batch.Jobs[1], batch.Jobs[0])
	}
	if batch.Jobs[2].ID == batch.Jobs[0].ID {
		t.Error("distinct specs shared a job")
	}

	// Poll both distinct jobs to completion.
	poll := func(id string) JobStatus {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(ts.URL + "/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			switch st.State {
			case "done", "failed", "canceled":
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", id, st.State)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, id := range []string{batch.Jobs[0].ID, batch.Jobs[2].ID} {
		final := poll(id)
		if final.State != "done" {
			t.Fatalf("job %s: %s (%s)", id, final.State, final.Error)
		}
		if final.Result == nil || final.Result.Plan == nil || final.Result.PredThroughput <= 0 {
			t.Fatalf("job %s has no usable result: %+v", id, final.Result)
		}
		if len(final.Events) < 3 {
			t.Errorf("job %s has %d events, want >= 3 (submitted/started/done)", id, len(final.Events))
		}
	}

	// GET /jobs lists all of them.
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list JobsListResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 2 {
		t.Errorf("GET /jobs returned %d jobs, want 2", len(list.Jobs))
	}

	// Unknown job: 404. Settled job cancel: 409.
	resp, _ = http.Get(ts.URL + "/jobs/job-999999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job GET: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+batch.Jobs[0].ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of settled job: %d, want 409", resp.StatusCode)
	}

	st := s.Stats()
	if st.JobsSubmitted != 2 || st.JobsDeduped != 1 || st.JobsDone != 2 {
		t.Errorf("job stats: %+v", st)
	}
	if st.JobWorkers != 2 {
		t.Errorf("worker count: %+v", st)
	}
	// The two distinct workloads ran exactly two searches (the dedup
	// plus the plan cache kept everything else away from the tuner).
	if st.TunesRun != 2 {
		t.Errorf("tuner ran %d times, want 2", st.TunesRun)
	}
}

// TestJobSubmitValidation: invalid specs are rejected at submit time
// with 400 — single and batch (whole batch refused, its valid half
// rolled back) — on a bare server and on a cluster node alike: there a
// job's wire id carries the node prefix, and a rollback that cancels by
// it must still find the job.
func TestJobSubmitValidation(t *testing.T) {
	bare := New()
	defer bare.Close()
	lc, err := NewLocalCluster(LocalClusterOptions{Nodes: 2, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	for name, s := range map[string]*Server{"bare": bare, "cluster node": lc.Node("n1")} {
		t.Run(name, func(t *testing.T) { testJobSubmitValidation(t, s) })
	}
}

func testJobSubmitValidation(t *testing.T, s *Server) {
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"model":"gpt9-999t","gpus":2,"batch":8}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad single submit: %d", resp.StatusCode)
	}

	// Every pool worker is held by a gate task until the test lets go, so
	// the rejected batch's valid job is still queued when the rollback
	// cancels it: canceled, never done, however fast a search is.
	release := make(chan struct{})
	defer close(release)
	workers := s.jobs.Stats().Workers
	for range workers {
		if _, _, err := s.jobs.Submit(context.Background(), "", 0, func(ctx context.Context, _ func(string)) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); s.jobs.Stats().Busy != workers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("gate tasks did not occupy every worker")
		}
	}

	batch := `{"jobs":[{"model":"gpt3-1.3b","gpus":2,"batch":8,"space":"deepspeed"},{"model":"nope","gpus":2,"batch":8}]}`
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad batch submit: %d", resp.StatusCode)
	}
	// The valid half of the rejected batch must not linger as live work:
	// its job was canceled alongside the rejection, and only the gates
	// are still running.
	live := 0
	for _, j := range s.jobs.List() {
		if !j.State.Terminal() {
			live++
		}
	}
	if live != workers {
		t.Errorf("rejected batch left %d live jobs, want only the %d gates", live, workers)
	}
	if st := s.Stats(); st.JobsDone != 0 || st.JobsCanceled != 1 {
		t.Errorf("rejected batch: %d jobs done, %d canceled; want 0 and 1", st.JobsDone, st.JobsCanceled)
	}
}

// TestJobCancellationOverHTTP cancels a queued job via DELETE: with a
// single worker busy on a gate job, the queued tune never runs.
func TestJobCancellationOverHTTP(t *testing.T) {
	s := New(WithJobWorkers(1))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the lone worker with a slow search (bigger spec), then
	// queue a second job and cancel it while it waits.
	slow := smallSpec()
	slow.Batch = 32
	body, _ := json.Marshal(JobSpec{WorkloadSpec: slow})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var slowSt JobStatus
	json.NewDecoder(resp.Body).Decode(&slowSt)
	resp.Body.Close()

	body, _ = json.Marshal(JobSpec{WorkloadSpec: smallSpec()})
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var queued JobStatus
	json.NewDecoder(resp.Body).Decode(&queued)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+queued.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var canceled JobStatus
	json.NewDecoder(resp.Body).Decode(&canceled)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	// Either the cancel landed while queued (state canceled now) or the
	// job slipped into running first and will settle canceled; in both
	// cases it must not finish as done.
	final, err := s.WaitJob(context.Background(), queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && final.State == "done" {
		t.Errorf("canceled job completed: %+v", final)
	}
}
