// End-to-end tests of elastic membership: joins, drains, and
// kill-then-drain repair, pinning the acceptance invariants — after
// every transition each fingerprint sits on exactly R live replicas,
// no request 5xxes, and the fleet never re-runs a search (sum of
// searches == distinct fingerprints, every record Version==1).
package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// settle drives repair to a fixed point and audits; any violation is
// fatal with the full list.
func settleAndAudit(t *testing.T, lc *serve.LocalCluster) *serve.ReplicationAudit {
	t.Helper()
	if err := lc.Settle(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	audit, err := lc.AuditReplication()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range audit.Violations {
		t.Errorf("audit violation: %s", v)
	}
	return audit
}

func tuneOK(t *testing.T, h http.Handler, sp serve.WorkloadSpec) *serve.TuneResponse {
	t.Helper()
	var resp serve.TuneResponse
	rec := do(t, h, http.MethodPost, "/tune", nil, serve.TuneRequest{WorkloadSpec: sp}, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("tune: %d %s", rec.Code, rec.Body.String())
	}
	return &resp
}

// A join mid-life moves ownership to the new node without ever
// re-searching: the joined node answers every fingerprint from
// migrated records, replication lands at exactly R across the grown
// membership, and the epoch advances everywhere.
func TestClusterJoinMigratesWithoutResearch(t *testing.T) {
	lc := newCluster(t, 3, 2)
	specs := []serve.WorkloadSpec{
		clusterSpec(512), clusterSpec(640), clusterSpec(768),
		clusterSpec(896), clusterSpec(1024), clusterSpec(1152),
	}
	for _, sp := range specs {
		tuneOK(t, lc.Handler("n1"), sp)
	}
	before := sumTunesRun(lc)
	if before != uint64(len(specs)) {
		t.Fatalf("seeding ran %d searches for %d specs", before, len(specs))
	}

	if _, err := lc.Join(context.Background(), "n4"); err != nil {
		t.Fatal(err)
	}
	// The join broadcast is synchronous: every node is on epoch 1 with
	// four members by the time Join returns.
	for _, id := range lc.IDs() {
		cl := lc.Cluster(id)
		if cl.Epoch() != 1 || len(cl.Members()) != 4 {
			t.Errorf("node %s at epoch %d with %d members, want 1/4", id, cl.Epoch(), len(cl.Members()))
		}
	}

	audit := settleAndAudit(t, lc)
	if audit.Fingerprints != len(specs) {
		t.Errorf("audit saw %d fingerprints, want %d", audit.Fingerprints, len(specs))
	}
	// The new node actually took ownership of something (records
	// migrated to it) — with 6 keys and 128 vnodes this is
	// deterministic for the fixed id set.
	if n := lc.Node("n4").Store().Len(); n == 0 {
		t.Error("joined node holds no records after settle")
	}

	// Every spec through the joined node: answered, and never by a new
	// search.
	for _, sp := range specs {
		resp := tuneOK(t, lc.Handler("n4"), sp)
		if !resp.Cached && !resp.FromStore {
			t.Errorf("spec %v served by a fresh search after join: %+v", sp.Seq, resp)
		}
	}
	if after := sumTunesRun(lc); after != before {
		t.Errorf("join caused re-search: TunesRun %d -> %d", before, after)
	}
}

// A graceful drain: the drained node hands every record off, the
// survivors restore R, and the drained node keeps answering — by
// forwarding — with zero 5xx and zero re-search.
func TestClusterDrainHandsOffWithoutResearch(t *testing.T) {
	lc := newCluster(t, 3, 2)
	specs := []serve.WorkloadSpec{
		clusterSpec(512), clusterSpec(640), clusterSpec(768), clusterSpec(896),
	}
	for _, sp := range specs {
		tuneOK(t, lc.Handler("n2"), sp)
	}
	before := sumTunesRun(lc)

	if err := lc.Drain(context.Background(), "n1"); err != nil {
		t.Fatal(err)
	}
	if lc.Cluster("n1").InRing() {
		t.Error("drained node still believes it is in the ring")
	}
	for _, id := range []string{"n2", "n3"} {
		if got := lc.Cluster(id).Epoch(); got != 1 {
			t.Errorf("node %s at epoch %d after drain, want 1", id, got)
		}
	}

	audit := settleAndAudit(t, lc)
	if got := lc.Node("n1").Store().Len(); got != 0 {
		t.Errorf("drained node still holds %d records", got)
	}
	if audit.Replicas != 2 || len(audit.Live) != 2 {
		t.Errorf("audit %+v: want R=2 over 2 live members", audit)
	}

	// The drained node still serves every spec (forwarding into the
	// ring it left), without a single new search.
	for _, sp := range specs {
		resp := tuneOK(t, lc.Handler("n1"), sp)
		if !resp.Cached && !resp.FromStore {
			t.Errorf("drained node answered spec %v with a fresh search: %+v", sp.Seq, resp)
		}
	}
	if after := sumTunesRun(lc); after != before {
		t.Errorf("drain caused re-search: TunesRun %d -> %d", before, after)
	}

	// Topology reflects the drain from both sides.
	var drainedInfo, survivorInfo serve.ClusterInfo
	do(t, lc.Handler("n1"), http.MethodGet, "/cluster", nil, nil, &drainedInfo)
	if !drainedInfo.Drained || drainedInfo.Epoch != 1 {
		t.Errorf("drained node /cluster: %+v", drainedInfo)
	}
	do(t, lc.Handler("n2"), http.MethodGet, "/cluster", nil, nil, &survivorInfo)
	if survivorInfo.Drained || len(survivorInfo.Members) != 2 {
		t.Errorf("survivor /cluster: %+v", survivorInfo)
	}
}

// Permanent node loss: kill a replica holder, then declare the loss by
// draining the dead member. Repair restores every fingerprint to R
// live copies among the survivors — from the surviving replicas, never
// by re-searching.
func TestClusterKillThenDrainRestoresReplication(t *testing.T) {
	lc := newCluster(t, 4, 2)
	specs := []serve.WorkloadSpec{
		clusterSpec(512), clusterSpec(640), clusterSpec(768),
		clusterSpec(896), clusterSpec(1024), clusterSpec(1152),
	}
	for _, sp := range specs {
		tuneOK(t, lc.Handler("n1"), sp)
	}
	before := sumTunesRun(lc)

	victim := "n2"
	if err := lc.Kill(victim); err != nil {
		t.Fatal(err)
	}
	// Peers notice the death (passive would also work; probes make it
	// deterministic).
	for i := 0; i < 2; i++ {
		for _, id := range []string{"n1", "n3", "n4"} {
			lc.Cluster(id).ProbeOnce(context.Background())
		}
	}
	// Declare the loss permanent: drain the dead member via a survivor.
	if err := lc.Drain(context.Background(), victim); err != nil {
		t.Fatal(err)
	}

	audit := settleAndAudit(t, lc)
	if audit.Fingerprints != len(specs) {
		t.Errorf("audit saw %d fingerprints, want %d (records lost with the dead node?)",
			audit.Fingerprints, len(specs))
	}
	if after := sumTunesRun(lc); after != before {
		t.Errorf("repair re-searched: TunesRun %d -> %d", before, after)
	}

	// Every fingerprint still answers through every survivor.
	for _, sp := range specs {
		for _, id := range []string{"n1", "n3", "n4"} {
			resp := tuneOK(t, lc.Handler(id), sp)
			if !resp.Cached && !resp.FromStore {
				t.Errorf("node %s answered spec %v with a fresh search", id, sp.Seq)
			}
		}
	}
	if after := sumTunesRun(lc); after != before {
		t.Errorf("post-repair serving re-searched: TunesRun %d -> %d", before, after)
	}
}

// Join during failover: a node dies, and while its loss is still
// undeclared a fresh node joins. The cluster keeps answering
// everything 5xx-free; once the dead member is drained, repair
// restores exactly-R among the live set.
func TestClusterJoinDuringFailover(t *testing.T) {
	lc := newCluster(t, 3, 2)
	specs := []serve.WorkloadSpec{
		clusterSpec(512), clusterSpec(640), clusterSpec(768), clusterSpec(896),
	}
	for _, sp := range specs {
		tuneOK(t, lc.Handler("n3"), sp)
	}
	before := sumTunesRun(lc)

	if err := lc.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Join(context.Background(), "n4"); err != nil {
		t.Fatal(err)
	}
	// Everything still answers through the joined node while the dead
	// member is still in the view.
	for _, sp := range specs {
		tuneOK(t, lc.Handler("n4"), sp)
	}
	if err := lc.Drain(context.Background(), "n2"); err != nil {
		t.Fatal(err)
	}
	settleAndAudit(t, lc)
	if after := sumTunesRun(lc); after != before {
		t.Errorf("failover+join re-searched: TunesRun %d -> %d", before, after)
	}
}

// The elastic wire surface refuses nonsense cleanly: joins with
// conflicting addresses, drains of unknown members, malformed bodies,
// and elastic endpoints on a non-cluster server.
func TestElasticEndpointValidation(t *testing.T) {
	lc := newCluster(t, 2, 2)
	h := lc.Handler("n1")

	cases := []struct {
		path string
		body any
		want int
	}{
		{"/cluster/join", map[string]string{"id": "n1", "addr": "http://elsewhere"}, http.StatusBadRequest},
		{"/cluster/join", map[string]string{"id": "", "addr": "http://x"}, http.StatusBadRequest},
		{"/cluster/drain", map[string]string{"id": "ghost"}, http.StatusBadRequest},
		{"/cluster/fetch", map[string]string{"key": "no|such|key"}, http.StatusNotFound},
	}
	for _, c := range cases {
		if rec := do(t, h, http.MethodPost, c.path, nil, c.body, nil); rec.Code != c.want {
			t.Errorf("POST %s %+v: %d, want %d (%s)", c.path, c.body, rec.Code, c.want, rec.Body.String())
		}
	}
	// A stale view is acknowledged, not adopted.
	var ack struct {
		Adopted bool  `json:"adopted"`
		Epoch   int64 `json:"epoch"`
	}
	stale := lc.Cluster("n1").CurrentView()
	rec := do(t, h, http.MethodPost, "/cluster/view", nil, stale, &ack)
	if rec.Code != http.StatusOK || ack.Adopted {
		t.Errorf("stale view: %d %+v", rec.Code, ack)
	}

	// Non-cluster servers 404 the elastic surface.
	solo := serve.New()
	defer solo.Close()
	for _, path := range []string{"/cluster/join", "/cluster/drain", "/cluster/view", "/cluster/fetch"} {
		if rec := do(t, solo.Handler(), http.MethodPost, path, nil, map[string]string{}, nil); rec.Code != http.StatusNotFound {
			t.Errorf("solo POST %s: %d, want 404", path, rec.Code)
		}
	}
	if rec := do(t, solo.Handler(), http.MethodGet, "/cluster/records", nil, nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("solo GET /cluster/records: %d, want 404", rec.Code)
	}
}

// StartPeerLoops starts one probe loop and one repair loop however
// often it is called, a call racing Close is safe (the race build
// checks the WaitGroup), and a nil clock option leaves the system clock
// in place.
func TestStartPeerLoopsOnceAndCloseSafe(t *testing.T) {
	lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{
		Nodes: 2, ServerOptions: []serve.Option{serve.WithClock(nil)}})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	a, b := lc.Node(lc.IDs()[0]), lc.Node(lc.IDs()[1])

	before := runtime.NumGoroutine()
	a.StartPeerLoops(time.Hour, time.Hour)
	a.StartPeerLoops(time.Hour, time.Hour)
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != before+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond) // an earlier test's goroutine may still be exiting
	}
	if got := runtime.NumGoroutine() - before; got != 2 {
		t.Errorf("two StartPeerLoops calls left %d new goroutines, want 2", got)
	}

	done := make(chan struct{})
	go func() { b.StartPeerLoops(time.Hour, time.Hour); close(done) }()
	b.Close()
	<-done
	b.StartPeerLoops(time.Hour, time.Hour) // after Close: starts nothing
}

// Every runs its function on the server's clock until Close, which
// cancels the context of the call in flight and waits for it (the call
// here blocks until then), and starts no call after it returns — how a
// -join node's re-announce watcher ends with its server.
func TestEveryEndsAtClose(t *testing.T) {
	s := serve.New()
	started := make(chan struct{})
	var calls int
	s.Every(time.Millisecond, func(ctx context.Context) {
		if calls++; calls == 1 {
			close(started)
		}
		<-ctx.Done()
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		s.Close()
		t.Fatal("the loop never ran")
	}
	s.Close()
	time.Sleep(20 * time.Millisecond) // ticks that would run a late call
	if calls != 1 {
		t.Errorf("%d calls, want 1: a call ran after Close", calls)
	}
}

// blockingDoer answers /healthz with a higher epoch, then parks any
// /cluster/view fetch until the request's context is canceled — the
// shape of a peer that wedges mid-sync.
type blockingDoer struct {
	fetching chan struct{} // closed when the first view fetch arrives
	once     sync.Once
	mu       sync.Mutex
	canceled bool
}

func (d *blockingDoer) Do(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	switch req.URL.Path {
	case "/healthz":
		json.NewEncoder(rec).Encode(map[string]any{"ok": true, "epoch": int64(5)})
	case "/cluster/view":
		d.once.Do(func() { close(d.fetching) })
		<-req.Context().Done()
		d.mu.Lock()
		d.canceled = true
		d.mu.Unlock()
		return nil, req.Context().Err()
	default:
		rec.WriteHeader(http.StatusNotFound)
	}
	return rec.Result(), nil
}

// Close alone stops the node's peer traffic: a view sync the prober
// started (here wedged on a peer that never answers the fetch) is
// canceled, and Close returns only once it has finished.
func TestCloseCancelsInFlightViewSync(t *testing.T) {
	doer := &blockingDoer{fetching: make(chan struct{})}
	cl, err := cluster.New(cluster.Config{Self: "n1", Client: doer,
		Members: []cluster.Member{{ID: "n1", Addr: "http://n1"}, {ID: "n2", Addr: "http://n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.WithCluster(cl))
	s.StartPeerLoops(5*time.Millisecond, -1)
	select {
	case <-doer.fetching:
	case <-time.After(5 * time.Second):
		s.Close()
		t.Fatal("probe loop never triggered a view sync")
	}

	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return while a view sync was in flight")
	}
	doer.mu.Lock()
	defer doer.mu.Unlock()
	if !doer.canceled {
		t.Error("in-flight view fetch never observed cancellation")
	}
}
