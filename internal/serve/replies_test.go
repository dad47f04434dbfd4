package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/schedule"
	"repro/internal/trainsim"
)

// post sends one raw body to h and returns the recorder.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// mustPost is post that wants the status code want.
func mustPost(t *testing.T, h http.Handler, path string, body []byte, want int) []byte {
	t.Helper()
	rec := post(h, path, body)
	if rec.Code != want {
		t.Fatalf("POST %s %.80s: status %d, want %d: %s", path, body, rec.Code, want, rec.Body)
	}
	return rec.Body.Bytes()
}

func (bm *bodyMemo) len() int {
	bm.mu.RLock()
	defer bm.mu.RUnlock()
	return len(bm.m)
}

// encoderBytes is what json.Encoder writes for v, trailing newline
// included: every JSON reply's wire form.
func encoderBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func specBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRepeatRepliesAreEncoderBytes: the stored replies are byte for
// byte what json.Encoder writes for the reply a repeat answered before
// they were stored — the /tune hit is the search's reply with Cached
// set, the plan-less /simulate is a fresh measurement of the tuned plan
// — on the first repeat and on later ones, served locally and through
// a forwarding hop.
func TestRepeatRepliesAreEncoderBytes(t *testing.T) {
	lc, err := NewLocalCluster(LocalClusterOptions{Nodes: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	spec := smallSpec()
	key, err := spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := lc.Cluster("n1").Owner(key)
	var other string
	for _, id := range lc.IDs() {
		if id != owner {
			other = id
		}
	}
	local, hop := lc.Handler(owner), lc.Handler(other)
	body := specBody(t, TuneRequest{WorkloadSpec: spec})

	first := mustPost(t, local, "/tune", body, http.StatusOK)
	var searched TuneResponse
	if err := json.Unmarshal(first, &searched); err != nil {
		t.Fatal(err)
	}
	if searched.Cached {
		t.Fatal("a search's own answer says Cached")
	}
	if want := encoderBytes(t, &searched); !bytes.Equal(first, want) {
		t.Errorf("the search's reply is not the encoder's:\n%s\nwant\n%s", first, want)
	}
	hit := searched
	hit.Cached = true
	wantHit := encoderBytes(t, &hit)

	ws := spec
	w, cl, space, err := ws.normalize()
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.CalibratedAnalyzer(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trainsim.New(w, cl, an).Measure(searched.Plan)
	if err != nil {
		t.Fatal(err)
	}
	wantSim := encoderBytes(t, &SimulateResponse{
		IterTime: m.IterTime, Throughput: m.Throughput, Bubble: m.Bubble, PeakMem: m.PeakMem,
		BudgetByte: cl.MemoryBudget(), OOM: m.OOM(cl.MemoryBudget()), TunedPlan: searched.Plan,
	})

	for i := 0; i < 2; i++ {
		for name, h := range map[string]http.Handler{"local": local, "forwarded": hop} {
			if got := mustPost(t, h, "/tune", body, http.StatusOK); !bytes.Equal(got, wantHit) {
				t.Errorf("%s /tune hit %d:\n%s\nwant\n%s", name, i, got, wantHit)
			}
			if got := mustPost(t, h, "/simulate", body, http.StatusOK); !bytes.Equal(got, wantSim) {
				t.Errorf("%s /simulate repeat %d:\n%s\nwant\n%s", name, i, got, wantSim)
			}
		}
	}
	if lc.Node(other).Stats().ClusterForwards == 0 {
		t.Error("nothing was forwarded")
	}
}

// TestBodyMemoIsPerEndpoint: a /tune body that carries a "plan" field
// resolves by /tune's memo (/tune ignores the field), and the same bytes
// sent to /simulate still measure the inline plan, every time.
func TestBodyMemoIsPerEndpoint(t *testing.T) {
	s := New()
	defer s.Close()
	h := s.Handler()
	spec := smallSpec()
	mustPost(t, h, "/tune", specBody(t, TuneRequest{WorkloadSpec: spec}), http.StatusOK)
	// A plan other than the tuned one: one stage, DP over both GPUs,
	// full checkpointing.
	layers := 24 // gpt3-1.3b
	inline := &plan.Plan{GradAccum: 2, Stages: []plan.Stage{{
		Shape: schedule.StageShape{B: 2, DP: 2, TP: 1, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 2},
		Knobs: schedule.Knobs{Layers: layers, Ckpt: layers},
	}}}
	body := specBody(t, SimulateRequest{WorkloadSpec: spec, Plan: inline})

	for i := 0; i < 2; i++ {
		mustPost(t, h, "/tune", body, http.StatusOK)
	}
	if n := s.tuneBodies.len(); n != 2 {
		t.Errorf("/tune remembers %d bodies, want 2 (plain and with a plan field)", n)
	}
	var want SimulateResponse
	for i := 0; i < 2; i++ {
		var got SimulateResponse
		if err := json.Unmarshal(mustPost(t, h, "/simulate", body, http.StatusOK), &got); err != nil {
			t.Fatal(err)
		}
		if got.TunedPlan != nil {
			t.Fatalf("inline-plan /simulate %d answered for the tuned plan", i)
		}
		if i == 0 {
			want = got
		} else if got.IterTime != want.IterTime {
			t.Errorf("inline-plan /simulate %d measured %v, first %v", i, got.IterTime, want.IterTime)
		}
	}
	var onDemand SimulateResponse
	if err := json.Unmarshal(mustPost(t, h, "/simulate", specBody(t, TuneRequest{WorkloadSpec: spec}), http.StatusOK), &onDemand); err != nil {
		t.Fatal(err)
	}
	if onDemand.IterTime == want.IterTime {
		t.Fatal("the inline plan measures like the tuned one; the test tells nothing apart")
	}
	if n := s.simulateBodies.len(); n != 1 {
		t.Errorf("/simulate remembers %d bodies, want 1 (the plan-less one)", n)
	}
}

// TestBodyMemoBounded: after more distinct bodies than the memo's entry
// bound, it holds at most the bound, and a body longer than the memo's
// body cap is answered but not remembered.
func TestBodyMemoBounded(t *testing.T) {
	s := New()
	defer s.Close()
	h := s.Handler()
	spec := smallSpec()
	base := specBody(t, TuneRequest{WorkloadSpec: spec})
	for i := 0; i <= bodyMemoEntries; i++ {
		// An unknown field is ignored by the decoder: every body is the
		// same spec, and distinct bytes.
		body := fmt.Appendf(bytes.TrimSuffix(base[:len(base):len(base)], []byte("}")), `,"n":%d}`, i)
		mustPost(t, h, "/tune", body, http.StatusOK)
	}
	if n := s.tuneBodies.len(); n != bodyMemoEntries {
		t.Errorf("memo holds %d bodies after %d distinct ones, want %d", n, bodyMemoEntries+1, bodyMemoEntries)
	}
	if st := s.Stats(); st.TunesRun != 1 || st.PlanCacheHits != bodyMemoEntries {
		t.Errorf("tunesRun %d, planCacheHits %d: want 1 and %d", st.TunesRun, st.PlanCacheHits, bodyMemoEntries)
	}

	s2 := New()
	defer s2.Close()
	h2 := s2.Handler()
	padded := append([]byte(strings.Repeat(" ", bodyMemoMaxBytes)), base...)
	for i := 0; i < 2; i++ {
		mustPost(t, h2, "/tune", padded, http.StatusOK)
	}
	if n := s2.tuneBodies.len(); n != 0 {
		t.Errorf("a %d-byte body was remembered; the cap is %d", len(padded), bodyMemoMaxBytes)
	}
}

// TestFailuresAreNotRemembered: a body that answered 400 is decoded and
// refused again, and a plan-less /simulate whose measurement failed
// stores no reply, so the next request measures again.
func TestFailuresAreNotRemembered(t *testing.T) {
	s := New()
	defer s.Close()
	h := s.Handler()
	for _, body := range []string{
		`{"model":"nope","gpus":2,"batch":8}`,
		`{"model":"gpt3-1.3b","gpus":2,"batch":8,"space":"nope"}`,
		`{"model":"gpt3-1.3b","gpus":2`,
	} {
		for _, path := range []string{"/tune", "/simulate"} {
			for i := 0; i < 2; i++ {
				mustPost(t, h, path, []byte(body), http.StatusBadRequest)
			}
		}
	}
	if a, b := s.tuneBodies.len(), s.simulateBodies.len(); a+b != 0 {
		t.Errorf("refused bodies were remembered: %d by /tune, %d by /simulate", a, b)
	}

	spec := smallSpec()
	body := specBody(t, TuneRequest{WorkloadSpec: spec})
	mustPost(t, h, "/tune", body, http.StatusOK)
	key, err := spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	e := s.plans[key]
	s.mu.Unlock()
	good := e.resp.Plan
	e.resp.Plan = &plan.Plan{GradAccum: 1} // no stages: fails validation
	for i := 0; i < 2; i++ {
		mustPost(t, h, "/simulate", body, http.StatusBadRequest)
		if e.simulated.done.Load() {
			t.Fatal("a failed /simulate stored its reply")
		}
	}
	e.resp.Plan = good
	var sim SimulateResponse
	if err := json.Unmarshal(mustPost(t, h, "/simulate", body, http.StatusOK), &sim); err != nil {
		t.Fatal(err)
	}
	if sim.TunedPlan == nil || sim.IterTime <= 0 {
		t.Errorf("the retried /simulate answered %+v", sim)
	}
}

// TestConcurrentFirstHitsRenderOnce races the first hits of one plan
// cache entry: a reply is rendered once however many requests want it
// first, every caller gets the same bytes, and the request counters
// count what they counted before replies were stored.
func TestConcurrentFirstHitsRenderOnce(t *testing.T) {
	var r rendered
	var renders atomic.Int32
	const callers = 16
	got := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = r.get(func() ([]byte, error) {
				renders.Add(1)
				time.Sleep(5 * time.Millisecond)
				return []byte("reply\n"), nil
			})
		}()
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Errorf("%d renders for %d concurrent first gets, want 1", n, callers)
	}
	for i := range got {
		if &got[i][0] != &got[0][0] {
			t.Errorf("caller %d got its own bytes, not the stored reply", i)
		}
	}

	s := New()
	defer s.Close()
	h := s.Handler()
	body := specBody(t, TuneRequest{WorkloadSpec: smallSpec()})
	mustPost(t, h, "/tune", body, http.StatusOK)
	replies := map[string][][]byte{"/tune": make([][]byte, callers), "/simulate": make([][]byte, callers)}
	for path, out := range replies {
		for i := range out {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec := post(h, path, body); rec.Code == http.StatusOK {
					out[i] = rec.Body.Bytes()
				}
			}()
		}
	}
	wg.Wait()
	for path, out := range replies {
		for i := range out {
			if out[i] == nil || !bytes.Equal(out[i], out[0]) {
				t.Errorf("%s caller %d: %q, caller 0: %q", path, i, out[i], out[0])
			}
		}
	}
	st := s.Stats()
	if st.TuneRequests != callers+1 || st.SimulateRequests != callers || st.PlanCacheHits != 2*callers || st.TunesRun != 1 {
		t.Errorf("tune %d, simulate %d, plan-cache hits %d, tunes run %d; want %d, %d, %d, 1",
			st.TuneRequests, st.SimulateRequests, st.PlanCacheHits, st.TunesRun, callers+1, callers, 2*callers)
	}
}
