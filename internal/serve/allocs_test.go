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
// its variadic arguments on every request, 44 once it did not, 30 once
// a repeated body skipped decoding and the hit wrote its stored reply.
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
	if got > 30 && !serve.RaceEnabled {
		t.Errorf("cached /tune hit allocates %.0f per request, want <= 30", got)
	}
}

// hitFleet is a 3-node, R=2 LocalCluster whose owner of clusterSpec(0)
// has tuned it: body is that spec's /tune and plan-less /simulate body,
// owner the node that holds its plan and other a node that forwards.
func hitFleet(tb testing.TB) (lc *serve.LocalCluster, body []byte, owner, other string) {
	tb.Helper()
	lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{Nodes: 3, Replicas: 2})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(lc.Close)
	key, err := clusterSpec(0).CanonicalKey()
	if err != nil {
		tb.Fatal(err)
	}
	owner = lc.Cluster("n1").Owner(key)
	for _, id := range lc.IDs() {
		if id != owner {
			other = id
			break
		}
	}
	body, err = json.Marshal(serve.TuneRequest{WorkloadSpec: clusterSpec(0)})
	if err != nil {
		tb.Fatal(err)
	}
	rec := httptest.NewRecorder()
	lc.Handler(owner).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tune", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("tune on %s: %d %s", owner, rec.Code, rec.Body)
	}
	return lc, body, owner, other
}

// TestFleetReadPathAllocs reports the four fleet-warm operations on a
// 3-node, R=2 LocalCluster — `go test -run FleetReadPathAllocs -v` on
// two commits is the before/after table a change to this tier owes —
// and pins five of them. /metrics took 6 961 allocations while each
// scrape re-rendered every label set with fmt and a map per bucket
// line, 28 once series text was rendered at registration. The
// forwarded hit took 109 while each forward rendered its per-peer
// label set, 98 once the handles were resolved once per server, 71 once
// a repeated body skipped decoding at both ends and the owner wrote its
// stored reply. A plan-less /simulate repeat took 63 locally and 113
// forwarded while each one re-measured the plan and encoded the reply,
// 34 and 71 once it wrote the reply its plan-cache entry rendered once.
// Every keyed request in cluster mode routes once at its ingress node:
// the local and forwarded rows each took 2 more while cluster.Route
// built its list from three slices instead of one.
func TestFleetReadPathAllocs(t *testing.T) {
	lc, body, owner, other := hitFleet(t)
	local, hop := lc.Handler(owner), lc.Handler(other)
	tuneLocal := allocsPer(t, local, http.MethodPost, "/tune", body, http.StatusOK)
	t.Logf("cached /tune hit, served locally: %.0f allocs", tuneLocal)
	forwarded := allocsPer(t, hop, http.MethodPost, "/tune", body, http.StatusOK)
	t.Logf("cached /tune hit, forwarded one hop: %.0f allocs", forwarded)
	simLocal := allocsPer(t, local, http.MethodPost, "/simulate", body, http.StatusOK)
	t.Logf("plan-less /simulate repeat, served locally: %.0f allocs", simLocal)
	simForwarded := allocsPer(t, hop, http.MethodPost, "/simulate", body, http.StatusOK)
	t.Logf("plan-less /simulate repeat, forwarded one hop: %.0f allocs", simForwarded)
	t.Logf("/stats: %.0f allocs", allocsPer(t, local, http.MethodGet, "/stats", nil, http.StatusOK))
	scrape := allocsPer(t, local, http.MethodGet, "/metrics", nil, http.StatusOK)
	t.Logf("/metrics: %.0f allocs", scrape)
	if !serve.RaceEnabled {
		for _, c := range []struct {
			what       string
			got, limit float64
		}{
			{"local cached /tune hit", tuneLocal, 32},
			{"forwarded cached /tune hit", forwarded, 69},
			{"local plan-less /simulate repeat", simLocal, 32},
			{"forwarded plan-less /simulate repeat", simForwarded, 69},
			{"/metrics scrape", scrape, 100},
		} {
			if c.got > c.limit {
				t.Errorf("%s allocates %.0f per request, want <= %.0f", c.what, c.got, c.limit)
			}
		}
	}
	if got := lc.Node(other).Stats().ClusterForwards; got == 0 {
		t.Error("the forwarded hits were not forwarded")
	}
}

// BenchmarkTuneHit times the repeated request on a 3-node, R=2
// LocalCluster: a cached /tune hit served by the owner (local) and
// through one forwarding hop (forwarded), and a plan-less /simulate
// repeat served by the owner (simulate). Run it with -benchmem; its
// allocations are part of what bench-regression gates.
func BenchmarkTuneHit(b *testing.B) {
	lc, body, owner, other := hitFleet(b)
	for _, c := range []struct{ name, node, path string }{
		{"local", owner, "/tune"},
		{"forwarded", other, "/tune"},
		{"simulate", owner, "/simulate"},
	} {
		h := lc.Handler(c.node)
		b.Run(c.name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, rd))
				if rec.Code != http.StatusOK {
					b.Fatalf("POST %s on %s: %d %s", c.path, c.node, rec.Code, rec.Body)
				}
			}
		})
	}
}

// BenchmarkScrape times the two views of one node's counters on a
// 3-node, R=2 LocalCluster that has answered a few tunes, forwarded and
// replicated: GET /metrics (the Prometheus exposition) and GET /stats
// (the JSON fold of the same registry). Run it with -benchmem; its
// allocations are part of what bench-regression gates.
func BenchmarkScrape(b *testing.B) {
	lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{Nodes: 3, Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	for _, seq := range []int{512, 640, 768, 896} {
		body, err := json.Marshal(serve.TuneRequest{WorkloadSpec: clusterSpec(seq)})
		if err != nil {
			b.Fatal(err)
		}
		for _, id := range lc.IDs() {
			rec := httptest.NewRecorder()
			lc.Handler(id).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tune", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("tune seq %d on %s: %d %s", seq, id, rec.Code, rec.Body)
			}
		}
	}
	h := lc.Handler(lc.IDs()[0])
	for _, path := range []string{"/metrics", "/stats"} {
		b.Run(path[1:], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("GET %s: %d", path, rec.Code)
				}
			}
		})
	}
}
