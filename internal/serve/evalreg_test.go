package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/metrics"
	"repro/internal/opdb"
	"repro/internal/trainsim"
)

// TestEvalCachePersistsAcrossRequests pins the cross-request fast path:
// with a plan cache too small to remember earlier specs (and no durable
// store), a re-tune must run a fresh search — but against the
// fingerprint's persistent evaluation cache, so nearly every candidate
// pricing is a hit.
func TestEvalCachePersistsAcrossRequests(t *testing.T) {
	s := New()
	s.cacheCap = 1
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specA := smallSpec()
	specB := smallSpec()
	specB.Batch = 16 // different plan-cache key, same analyzer fingerprint

	var first TuneResponse
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specA}, &first); status != http.StatusOK {
		t.Fatalf("tune A: status %d body %s", status, body)
	}
	if first.EvalCacheMiss == 0 {
		t.Fatal("first search reported no eval-cache misses; the test premise is broken")
	}
	// Tuning B evicts A's plan-cache entry (cap 1).
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specB}, nil); status != http.StatusOK {
		t.Fatalf("tune B: status %d body %s", status, body)
	}

	var again TuneResponse
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specA}, &again); status != http.StatusOK {
		t.Fatalf("re-tune A: status %d body %s", status, body)
	}
	if again.Cached {
		t.Fatal("re-tune served from the plan cache; it was supposed to be evicted")
	}
	if again.EvalHitRate < 0.95 {
		t.Errorf("re-search hit rate %.3f, want ~1.0 (hits %d, misses %d)",
			again.EvalHitRate, again.EvalCacheHits, again.EvalCacheMiss)
	}

	st := s.Stats()
	if st.TunesRun != 3 {
		t.Errorf("ran %d searches, want 3", st.TunesRun)
	}
	// A and B differ only in batch, which the fingerprint excludes:
	// one shared registry entry, never evicted at the default cap.
	if st.EvalCacheEntries != 1 || st.EvalCachePoints == 0 {
		t.Errorf("registry holds %d entries / %d points, want 1 entry with points",
			st.EvalCacheEntries, st.EvalCachePoints)
	}
	if st.EvalCacheEvictions != 0 {
		t.Errorf("%d evictions at the default cap", st.EvalCacheEvictions)
	}
	if st.EvalCachePointCap != defaultEvalCachePoints {
		t.Errorf("point cap %d, want default %d", st.EvalCachePointCap, defaultEvalCachePoints)
	}
}

// TestEvalCacheCapEvictsColdFingerprint pins the bound: a 1-point budget
// forces every fingerprint change to retire the previous cache, so a
// re-tune of the first spec re-prices from scratch and the eviction
// counters advance.
func TestEvalCacheCapEvictsColdFingerprint(t *testing.T) {
	s := New()
	s.cacheCap, s.evalReg.capPoints = 1, 1
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specA := smallSpec()
	specB := smallSpec()
	specB.Model = "falcon-1.3b" // distinct analyzer fingerprint

	var first TuneResponse
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specA}, &first); status != http.StatusOK {
		t.Fatalf("tune A: status %d body %s", status, body)
	}
	// B's search makes A's cache the eviction victim (B is protected as
	// the entry just used).
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specB}, nil); status != http.StatusOK {
		t.Fatalf("tune B: status %d body %s", status, body)
	}

	var again TuneResponse
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specA}, &again); status != http.StatusOK {
		t.Fatalf("re-tune A: status %d body %s", status, body)
	}
	if again.Cached {
		t.Fatal("re-tune served from the plan cache; it was supposed to be evicted")
	}
	if again.EvalCacheMiss == 0 {
		t.Error("re-tune after eviction reported no misses; the cache survived a 1-point cap")
	}
	if again.EvalHitRate > 0.5 {
		t.Errorf("re-search after eviction hit rate %.3f; expected a cold cache", again.EvalHitRate)
	}

	st := s.Stats()
	if st.EvalCacheEvictions < 1 {
		t.Errorf("%d evictions, want at least 1", st.EvalCacheEvictions)
	}
	if st.EvalCachePointsRetired == 0 {
		t.Error("evictions retired no points")
	}
	if st.EvalCachePointCap != 1 {
		t.Errorf("point cap %d, want 1", st.EvalCachePointCap)
	}
	// Only the most recent fingerprint's cache survives a 1-point cap.
	if st.EvalCacheEntries != 1 {
		t.Errorf("registry holds %d entries, want 1", st.EvalCacheEntries)
	}
}

// TestAnalyzerOnlyEntriesBounded pins the /simulate-path bound: the
// fingerprint components are user-controlled (Seq up to 65536, GPUs up
// to 4096), so analyzer-only traffic — which calibrates an analyzer but
// memoizes ~0 points — must still be charged against the cap and aged
// out. A budget of one entry overhead keeps at most the just-used
// fingerprint alive no matter how many distinct specs pass through.
func TestAnalyzerOnlyEntriesBounded(t *testing.T) {
	r := newEvalRegistry(entryOverheadPoints, metrics.NewRegistry())
	const fingerprints = 5
	for i := 0; i < fingerprints; i++ {
		ws := smallSpec()
		ws.Seq = 512 << i // distinct analyzer fingerprint per iteration
		w, cl, space, err := ws.normalize()
		if err != nil {
			t.Fatalf("normalize seq=%d: %v", ws.Seq, err)
		}
		if _, err := r.analyzer(ws, w, cl, space); err != nil {
			t.Fatalf("analyzer seq=%d: %v", ws.Seq, err)
		}
	}
	entries, _ := r.snapshot()
	evictions := r.evictions.Value()
	if entries != 1 {
		t.Errorf("registry holds %d analyzer-only entries, want 1 (the protected last-used)", entries)
	}
	if want := uint64(fingerprints - 1); evictions != want {
		t.Errorf("%d evictions across %d distinct simulate-only fingerprints, want %d",
			evictions, fingerprints, want)
	}

	// The surviving entry is still the shared one: re-acquiring the last
	// fingerprint must reuse it, not rebuild.
	ws := smallSpec()
	ws.Seq = 512 << (fingerprints - 1)
	w, cl, space, err := ws.normalize()
	if err != nil {
		t.Fatal(err)
	}
	_, reused, err := r.acquire(ws, w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	if !reused {
		t.Error("last-used fingerprint was evicted; the keep protection failed")
	}
}

// TestEnforceCapUnderCapAllocatesNothing: a search that leaves the
// registry under its cap — nearly every search — sums the charges and
// returns; only a total past the cap builds the victim list (which once
// cost every search a fresh slice of all entries, ~5 KB at 64).
func TestEnforceCapUnderCapAllocatesNothing(t *testing.T) {
	r := newEvalRegistry(defaultEvalCachePoints, metrics.NewRegistry())
	var keep string
	for i := 0; i < 4; i++ {
		ws := smallSpec()
		ws.Seq = 512 << i // distinct analyzer fingerprint per iteration
		w, cl, space, err := ws.normalize()
		if err != nil {
			t.Fatalf("normalize seq=%d: %v", ws.Seq, err)
		}
		if _, err := r.analyzer(ws, w, cl, space); err != nil {
			t.Fatalf("analyzer seq=%d: %v", ws.Seq, err)
		}
		keep = evalKey(ws, space)
	}
	if got := testing.AllocsPerRun(100, func() { r.enforceCap(keep) }); got != 0 {
		t.Errorf("enforceCap under the cap allocates %.0f per call, want 0", got)
	}
	if entries, _ := r.snapshot(); entries != 4 || r.evictions.Value() != 0 {
		t.Errorf("registry holds %d entries after %d evictions, want 4 and 0", entries, r.evictions.Value())
	}
}

// TestSimulatePricesOnTheRegistrysAnalyzer: the eval-cache registry is the
// one owner of a fingerprint's analyzer. After the registry evicts a
// fingerprint and rebuilds its analyzer, /simulate of that fingerprint —
// its plan still in the plan cache — prices on the rebuilt analyzer, the
// registry's entry, not on the one its search used. The rebuilt analyzer
// is given an A100's operator database so that its answers tell it apart.
func TestSimulatePricesOnTheRegistrysAnalyzer(t *testing.T) {
	s := New()
	s.evalReg.capPoints = 1
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specA, specB := smallSpec(), smallSpec()
	specB.Model = "falcon-1.3b" // distinct analyzer fingerprint
	var tuned TuneResponse
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specA}, &tuned); status != http.StatusOK {
		t.Fatalf("tune A: status %d body %s", status, body)
	}
	// B's search makes A's registry entry the eviction victim (a 1-point cap).
	if status, body := postJSON(t, ts.URL+"/tune", TuneRequest{WorkloadSpec: specB}, nil); status != http.StatusOK {
		t.Fatalf("tune B: status %d body %s", status, body)
	}
	w, cl, space, err := specA.normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := evalKey(specA, space)
	s.evalReg.mu.Lock()
	_, held := s.evalReg.entries[key]
	s.evalReg.mu.Unlock()
	if held {
		t.Fatal("the registry still holds A after B's search; the test premise is broken")
	}
	rebuilt, err := s.evalReg.analyzer(specA, w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt.DB = opdb.New(hardware.A100())
	want, err := trainsim.New(w, cl, rebuilt).Measure(tuned.Plan)
	if err != nil {
		t.Fatal(err)
	}
	searched, err := core.CalibratedAnalyzer(w, cl, space)
	if err != nil {
		t.Fatal(err)
	}
	if other, err := trainsim.New(w, cl, searched).Measure(tuned.Plan); err != nil || other.IterTime == want.IterTime {
		t.Fatalf("the A100 database does not change the measurement (%v, %v); the test compares nothing", other.IterTime, err)
	}

	var got SimulateResponse
	if status, body := postJSON(t, ts.URL+"/simulate", SimulateRequest{WorkloadSpec: specA, Plan: tuned.Plan}, &got); status != http.StatusOK {
		t.Fatalf("simulate A: status %d body %s", status, body)
	}
	if got.IterTime != want.IterTime {
		t.Errorf("/simulate measured %v s, the registry's analyzer %v s: it priced on another analyzer", got.IterTime, want.IterTime)
	}
	s.evalReg.mu.Lock()
	e := s.evalReg.entries[key]
	s.evalReg.mu.Unlock()
	if e == nil || e.an != rebuilt {
		t.Error("the registry no longer holds the rebuilt analyzer after /simulate")
	}
}

// TestEvalKeyBytes pins evalKey byte for byte against the fmt rendering
// it was first defined by, mixed-case names included: a drifted byte
// splits one fingerprint's analyzer into two registry entries.
func TestEvalKeyBytes(t *testing.T) {
	for _, c := range []struct {
		ws      WorkloadSpec
		overlap bool
		want    string
	}{
		{WorkloadSpec{Model: "gpt3-1.3b", Platform: "l4", GPUs: 2, Seq: 2048}, true,
			"gpt3-1.3b|l4|2|2048|flash=true|serialize=false"},
		{WorkloadSpec{Model: "Llama-7B", Platform: "A100", GPUs: 4096, Seq: 65536, NoFlash: true}, false,
			"llama-7b|a100|4096|65536|flash=false|serialize=true"},
		{WorkloadSpec{Model: "Falcon-1.3B", Platform: "L4", GPUs: -1, Seq: -7, Space: "DeepSpeed"}, true,
			"falcon-1.3b|l4|-1|-7|flash=true|serialize=false"},
		{WorkloadSpec{}, false, "||0|0|flash=true|serialize=true"},
	} {
		space := core.Space{OverlapAware: c.overlap}
		got := evalKey(c.ws, space)
		if got != c.want {
			t.Errorf("%+v overlap=%v: evalKey = %q, want %q", c.ws, c.overlap, got, c.want)
		}
		ref := fmt.Sprintf("%s|%s|%d|%d|flash=%v|serialize=%v",
			strings.ToLower(c.ws.Model), strings.ToLower(c.ws.Platform),
			c.ws.GPUs, c.ws.Seq, !c.ws.NoFlash, !space.OverlapAware)
		if got != ref {
			t.Errorf("%+v overlap=%v: evalKey = %q, fmt rendering %q", c.ws, c.overlap, got, ref)
		}
	}
}
