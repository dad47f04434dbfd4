package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
)

// The allocation ledger of the serving tier's read path. mistperf's
// fleet-warm workload is these four operations and nothing else, and
// its allocs_per_op bound is 2 %, so a request-path allocation is a
// measurable fraction of the budget. One harness, external API only,
// so the same file measures any two commits.

// allocsPer reports the mean allocations of one request through h,
// request and recorder construction included (the body reader is
// reused); the first call, outside the measurement, must already
// answer want.
func allocsPer(t *testing.T, h http.Handler, method, path string, body []byte, want int) float64 {
	t.Helper()
	rd := bytes.NewReader(body)
	do := func() int {
		rd.Reset(body)
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(); code != want {
		t.Fatalf("%s %s: status %d, want %d", method, path, code, want)
	}
	return testing.AllocsPerRun(200, func() { do() })
}

// TestCachedTuneHitAllocs pins the cached /tune hit on a bare server
// with logging off: 49 allocations when a disabled logger still built
// its variadic arguments on every request, 44 once it did not.
func TestCachedTuneHitAllocs(t *testing.T) {
	s := serve.New()
	defer s.Close()
	h := s.Handler()
	body, err := json.Marshal(serve.TuneRequest{WorkloadSpec: clusterSpec(0)})
	if err != nil {
		t.Fatal(err)
	}
	got := allocsPer(t, h, http.MethodPost, "/tune", body, http.StatusOK)
	t.Logf("bare cached /tune hit: %.0f allocs", got)
	if got > 44 && !raceEnabled {
		t.Errorf("cached /tune hit allocates %.0f per request, want <= 44", got)
	}
}

// TestFleetReadPathAllocs reports the four fleet-warm operations on a
// 3-node, R=2 LocalCluster. It pins nothing — the numbers move with the
// Go release — but `go test -run FleetReadPathAllocs -v` on two commits
// is the before/after table a change to this tier owes.
func TestFleetReadPathAllocs(t *testing.T) {
	lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{Nodes: 3, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	key, err := clusterSpec(0).CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := lc.Cluster("n1").Owner(key)
	other := ""
	for _, id := range lc.IDs() {
		if id != owner {
			other = id
			break
		}
	}
	body, err := json.Marshal(serve.TuneRequest{WorkloadSpec: clusterSpec(0)})
	if err != nil {
		t.Fatal(err)
	}
	local, hop := lc.Handler(owner), lc.Handler(other)
	t.Logf("cached /tune hit, served locally: %.0f allocs",
		allocsPer(t, local, http.MethodPost, "/tune", body, http.StatusOK))
	t.Logf("cached /tune hit, forwarded one hop: %.0f allocs",
		allocsPer(t, hop, http.MethodPost, "/tune", body, http.StatusOK))
	t.Logf("/stats: %.0f allocs", allocsPer(t, local, http.MethodGet, "/stats", nil, http.StatusOK))
	t.Logf("/metrics: %.0f allocs", allocsPer(t, local, http.MethodGet, "/metrics", nil, http.StatusOK))
	if got := lc.Node(other).Stats().ClusterForwards; got == 0 {
		t.Error("the forwarded hit was not forwarded")
	}
}
