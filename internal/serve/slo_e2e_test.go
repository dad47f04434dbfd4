package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/slo"
)

// newFakeClock is the hand-cranked clock one whole fleet shares: on it
// every node's SLO and rebalancer loops are inert and the test
// drives each tick itself.
func newFakeClock() *clock.Fake {
	return clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

func sloTestConfig() slo.Config {
	return slo.Config{
		IntervalMs: 1000,
		ClearEvals: 2,
		Objectives: []slo.Objective{
			{Name: "availability", Type: slo.TypeAvailability, Target: 0.99,
				WindowS: 10, FastS: 2, ConfirmS: 4, FastBurn: 10, SlowBurn: 3},
			{Name: "p99-latency", Type: slo.TypeLatency, Target: 0.99, Bound: 2000,
				WindowS: 10, FastS: 2, ConfirmS: 4},
		},
	}
}

func newSLOCluster(t *testing.T) (*LocalCluster, *clock.Fake) {
	t.Helper()
	clock := newFakeClock()
	lc, err := NewLocalCluster(LocalClusterOptions{
		Nodes: 3,
		ServerOptions: []Option{
			WithSLO(sloTestConfig()),
			WithClock(clock),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, id := range lc.IDs() {
			if s := lc.Node(id); s != nil {
				s.Close()
			}
		}
	})
	return lc, clock
}

func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code == http.StatusOK && out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: %v (%s)", path, err, rec.Body.String())
		}
	}
	return rec.Code
}

// feedNode records count requests directly into a node's request
// metrics — the same families the middleware writes — so tests induce
// precise traffic mixes (including the 5xx storm of a killed backend)
// without running real searches.
func feedNode(s *Server, endpoint, code string, count int, lat time.Duration) {
	s.Metrics().Counter(metricRequestsTotal, metrics.Labels{"endpoint": endpoint, "code": code}).Add(uint64(count))
	h := s.Metrics().Histogram(metricRequestSeconds, metrics.Labels{"endpoint": endpoint})
	for i := 0; i < count; i++ {
		h.Observe(lat)
	}
}

// tickAll advances virtual time one interval and ticks every node.
func tickAll(lc *LocalCluster, clock *clock.Fake) {
	clock.Advance(time.Second)
	for _, id := range lc.IDs() {
		lc.Node(id).SLOTick()
	}
}

func hasEvent(cl *cluster.Cluster, typ string) bool {
	for _, ev := range cl.Events(0) {
		if ev.Type == typ {
			return true
		}
	}
	return false
}

// TestSLOEndToEnd drives a healthy 3-node cluster and pins that every
// node's GET /slo, the fleet GET /cluster/health, and the /metrics
// gauges all reconcile.
func TestSLOEndToEnd(t *testing.T) {
	lc, clock := newSLOCluster(t)
	for i := 0; i < 5; i++ {
		for _, id := range lc.IDs() {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		tickAll(lc, clock)
	}
	var totalGood float64
	for _, id := range lc.IDs() {
		var rep slo.NodeReport
		if code := getJSON(t, lc.Handler(id), "/slo", &rep); code != http.StatusOK {
			t.Fatalf("node %s GET /slo: %d", id, code)
		}
		if !rep.Healthy || rep.Node != id || len(rep.Objectives) != 2 {
			t.Fatalf("node %s report: healthy=%v node=%q objectives=%d", id, rep.Healthy, rep.Node, len(rep.Objectives))
		}
		for _, st := range rep.Objectives {
			if st.State != slo.StateOK || st.BudgetRemaining != 1 {
				t.Errorf("node %s objective %s: state %s remaining %v", id, st.Name, st.State, st.BudgetRemaining)
			}
			if st.Name == "availability" {
				totalGood += st.Windows[slo.WinBudget].Good
			}
		}
	}
	if totalGood != 300 {
		t.Errorf("summed node good events %v, want 300 (3 nodes x 5 ticks x 20)", totalGood)
	}
	var fleet slo.FleetReport
	if code := getJSON(t, lc.Handler("n1"), "/cluster/health", &fleet); code != http.StatusOK {
		t.Fatalf("GET /cluster/health: %d", code)
	}
	if fleet.Nodes != 3 || len(fleet.Unreachable) != 0 || fleet.State != slo.FleetHealthy || fleet.Score != 1 {
		t.Fatalf("fleet: %+v", fleet)
	}
	// The fleet fold must hold exactly the events the nodes reported.
	for _, st := range fleet.Objectives {
		if st.Name == "availability" && st.Windows[slo.WinBudget].Good != totalGood {
			t.Errorf("fleet availability good %v, want %v", st.Windows[slo.WinBudget].Good, totalGood)
		}
	}
	// Gauges ride the regular /metrics exposition.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	lc.Handler("n1").ServeHTTP(rec, req)
	body := rec.Body.String()
	for _, want := range []string{
		`mist_slo_budget_remaining{objective="availability"} 1`,
		`mist_slo_state{objective="availability"} 0`,
		"mist_slo_burn_fast{",
		"mist_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestSLOKillDrill induces a dependency failure on one node (a 5xx
// storm in its request metrics, the signature of a killed backend),
// and pins the drill the CI slo-smoke job runs: the fast-burn page
// appears on the cluster event timeline within the detection bound,
// the fleet verdict goes critical, and after recovery the alert
// resolves and the fleet heals.
func TestSLOKillDrill(t *testing.T) {
	lc, clock := newSLOCluster(t)
	// Baseline: all healthy.
	for i := 0; i < 4; i++ {
		for _, id := range lc.IDs() {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		tickAll(lc, clock)
	}
	// Drill: n2's traffic goes full 5xx. Detection bound: the fast
	// window (2 ticks) plus one confirming tick.
	const detectionBound = 3
	victim := lc.Node("n2")
	paged := -1
	for i := 0; i < detectionBound && paged < 0; i++ {
		feedNode(lc.Node("n1"), "/tune", "200", 20, 5*time.Millisecond)
		feedNode(victim, "/tune", "500", 50, 5*time.Millisecond)
		feedNode(lc.Node("n3"), "/tune", "200", 20, 5*time.Millisecond)
		tickAll(lc, clock)
		if hasEvent(lc.Cluster("n2"), cluster.EventSLOPage) {
			paged = i + 1
		}
	}
	if paged < 0 {
		t.Fatalf("no slo-page event within %d ticks of the 5xx storm; events: %+v",
			detectionBound, lc.Cluster("n2").Events(0))
	}
	t.Logf("fast-burn page fired after %d ticks", paged)
	var fleet slo.FleetReport
	if code := getJSON(t, lc.Handler("n1"), "/cluster/health", &fleet); code != http.StatusOK {
		t.Fatalf("GET /cluster/health during drill: %d", code)
	}
	if fleet.State != slo.FleetCritical {
		t.Fatalf("fleet state during drill: %q, want critical", fleet.State)
	}
	if fleet.Score >= 1 {
		t.Errorf("fleet score during drill: %v, want budget visibly spent", fleet.Score)
	}
	// The victim's own /slo must agree with the fleet verdict.
	var rep slo.NodeReport
	getJSON(t, lc.Handler("n2"), "/slo", &rep)
	if rep.Healthy {
		t.Error("victim node reports healthy mid-drill")
	}

	// Recovery: clean traffic until the bad burst ages out of the
	// alerting windows (confirm = 4 ticks) and hysteresis clears
	// (ClearEvals = 2), well within the budget window.
	resolved := -1
	for i := 0; i < 10 && resolved < 0; i++ {
		for _, id := range lc.IDs() {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		tickAll(lc, clock)
		if hasEvent(lc.Cluster("n2"), cluster.EventSLOResolved) {
			resolved = i + 1
		}
	}
	if resolved < 0 {
		t.Fatalf("no slo-resolved event after recovery; events: %+v", lc.Cluster("n2").Events(0))
	}
	t.Logf("alert resolved %d ticks after recovery", resolved)
	// The page and its resolution interleave on one timeline with the
	// cluster's own events, ordered by sequence number.
	pageSeq, resolveSeq := int64(-1), int64(-1)
	for _, ev := range lc.Cluster("n2").Events(0) {
		switch ev.Type {
		case cluster.EventSLOPage:
			if pageSeq < 0 {
				pageSeq = ev.Seq
			}
		case cluster.EventSLOResolved:
			resolveSeq = ev.Seq
		}
	}
	if pageSeq < 0 || resolveSeq <= pageSeq {
		t.Errorf("timeline order: page seq %d, resolve seq %d", pageSeq, resolveSeq)
	}
}

// TestSLONotConfigured pins the surfaces' behavior without a spec.
func TestSLONotConfigured(t *testing.T) {
	s := New()
	defer s.Close()
	h := s.Handler()
	if code := getJSON(t, h, "/slo", nil); code != http.StatusNotFound {
		t.Errorf("GET /slo without config: %d, want 404", code)
	}
	if code := getJSON(t, h, "/cluster/health", nil); code != http.StatusNotFound {
		t.Errorf("GET /cluster/health without config: %d, want 404", code)
	}
	if s.SLOEngine() != nil {
		t.Error("engine built without a spec")
	}
}

// TestSLOSingleNodeFleet pins /cluster/health without cluster mode: a
// fleet of one.
func TestSLOSingleNodeFleet(t *testing.T) {
	s := New(WithSLO(sloTestConfig()), WithClock(newFakeClock()))
	defer s.Close()
	feedNode(s, "/tune", "200", 50, 5*time.Millisecond)
	s.SLOTick()
	var fleet slo.FleetReport
	if code := getJSON(t, s.Handler(), "/cluster/health", &fleet); code != http.StatusOK {
		t.Fatalf("GET /cluster/health: %d", code)
	}
	if fleet.Nodes != 1 || fleet.State != slo.FleetHealthy {
		t.Errorf("single-node fleet: %+v", fleet)
	}
}

// TestBuildInfo pins the shared -version helper.
func TestBuildInfo(t *testing.T) {
	bi := ReadBuildInfo()
	if bi.Version == "" || bi.Go == "" {
		t.Fatalf("build info %+v", bi)
	}
	if s := bi.String(); !strings.Contains(s, bi.Go) {
		t.Errorf("String() = %q", s)
	}
}

// TestClusterHealthDuringJoin hammers GET /cluster/health while an
// operator join (LocalCluster.Join, the mirror of `mistserve -join`)
// changes the membership: every reply is well-formed (200, node count
// from before or after the join), nothing panics, and the joiner shows
// up once the view settles. Run under -race this pins the fleet-fold
// path against membership mutation.
func TestClusterHealthDuringJoin(t *testing.T) {
	lc, clock := newSLOCluster(t)
	for i := 0; i < 2; i++ {
		for _, id := range []string{"n1", "n2", "n3"} {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		tickAll(lc, clock)
	}

	stop := make(chan struct{})
	var started, wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				var fleet struct {
					Nodes int `json:"nodes"`
				}
				req := httptest.NewRequest(http.MethodGet, "/cluster/health", nil)
				rec := httptest.NewRecorder()
				lc.Handler("n1").ServeHTTP(rec, req)
				if first {
					started.Done()
				}
				if rec.Code != http.StatusOK {
					t.Errorf("GET /cluster/health during join: %d %s", rec.Code, rec.Body.String())
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &fleet); err != nil || fleet.Nodes < 3 || fleet.Nodes > 4 {
					t.Errorf("GET /cluster/health during join: nodes %d, err %v (%s)", fleet.Nodes, err, rec.Body.String())
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	// Join only once every fan-out is in flight, then keep the SLO
	// engines ticking on the grown fleet while the fan-outs continue.
	started.Wait()
	if _, err := lc.Join(context.Background(), "n4"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for _, id := range lc.IDs() {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		tickAll(lc, clock)
	}
	close(stop)
	wg.Wait()
	if got := len(lc.Cluster("n1").Members()); got != 4 {
		t.Fatalf("n4 never joined: %d members", got)
	}
	// After the dust settles the joiner is a first-class health member.
	var fleet map[string]any
	if code := getJSON(t, lc.Handler("n1"), "/cluster/health", &fleet); code != http.StatusOK {
		t.Fatalf("GET /cluster/health after join: %d", code)
	}
	if n, ok := fleet["nodes"].(float64); !ok || int(n) != 4 {
		t.Errorf("fleet nodes after join: %v, want 4", fleet["nodes"])
	}
}

// do2 issues one JSON request against a handler (internal-package twin
// of the external harness's do helper).
func do2(t *testing.T, h http.Handler, method, path string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s reply (%d: %s): %v", method, path, rec.Code, rec.Body.String(), err)
		}
	}
	return rec
}
