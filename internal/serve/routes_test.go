package serve_test

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/serve"
	"repro/internal/slo"
)

// endpointRef matches the ways README.md cites an API path: a curl
// against localhost, or an inline `GET /path` / `/path` mention in a
// table or prose.
var endpointRef = regexp.MustCompile(
	`localhost:[0-9]+(/[A-Za-z0-9_/{}.-]+)|(?:GET|POST|DELETE) (/[A-Za-z0-9_/{}.-]+)|` + "`" + `(/[A-Za-z0-9_/{}.-]+)` + "`")

// TestREADMEEndpointsRouted pins the docs to the route table: every
// endpoint README.md documents, and every route of the table in
// DESIGN.md "Node-to-node protocol", must resolve in serve.Handler(). A
// route the mux does not know answers with the stdlib's plain-text
// "404 page not found"; everything this service serves — including its
// own not-found and method-not-allowed conditions — answers JSON. That
// discrimination is what lets the test accept any wired response
// (200, 400, 404 for an unknown job id, 405 for a GET on a POST
// route) while rejecting a documented path that fell off the mux.
func TestREADMEEndpointsRouted(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, protocol, found := strings.Cut(string(design), "\n## Node-to-node protocol\n")
	protocol, _, _ = strings.Cut(protocol, "\n## ")
	if n := len(endpointRef.FindAllString(protocol, -1)); !found || n < 15 {
		t.Fatalf("DESIGN.md protocol table scan found %d endpoint mentions — the section moved or the regex broke", n)
	}
	paths := map[string]bool{}
	for _, m := range endpointRef.FindAllStringSubmatch(string(readme)+protocol, -1) {
		p := m[1] + m[2] + m[3] // exactly one group matches
		if i := strings.IndexAny(p, "?#"); i >= 0 {
			p = p[:i]
		}
		p = strings.TrimRight(p, "/.")
		switch {
		case p == "" || !strings.HasPrefix(p, "/"):
			continue
		case strings.HasPrefix(p, "/debug/pprof"):
			continue // served by net/http/pprof on -debug-addr, not Handler()
		case strings.Contains(p, "."):
			continue // a file path (README.md, slo.json), not an endpoint
		}
		// Concretize path parameters ({id} and documented examples).
		p = strings.ReplaceAll(p, "{id}", "job-000001")
		paths[p] = true
	}
	if len(paths) < 10 {
		t.Fatalf("README endpoint scan found only %v — the extraction regex broke", paths)
	}

	// An SLO-bearing cluster node serves every surface the README
	// documents, including /cluster/* and /slo. The committed exemplar
	// config doubles as the fixture here, so the README's pointer to it
	// stays honest too.
	sloCfg, err := slo.LoadConfig("../../testdata/slo.json")
	if err != nil {
		t.Fatal(err)
	}
	lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{
		Nodes:    2,
		Replicas: 2,
		ServerOptions: []serve.Option{
			serve.WithSLO(sloCfg),
			serve.WithClock(clock.NewFake(time.Unix(0, 0))),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	h := lc.Node(lc.IDs()[0]).Handler()
	for p := range paths {
		req := httptest.NewRequest(http.MethodGet, p, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		ct := rec.Header().Get("Content-Type")
		if rec.Code == http.StatusNotFound && strings.HasPrefix(ct, "text/plain") {
			t.Errorf("README or the DESIGN protocol table documents %s but the mux does not route it", p)
		}
	}
}
