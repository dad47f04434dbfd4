// End-to-end tests of the sharded tier, in the external test package
// so they can drive the cluster through the load harness (which
// imports serve) without an import cycle.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/store"
)

func newCluster(t *testing.T, nodes, replicas int) *serve.LocalCluster {
	t.Helper()
	lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{
		Nodes:    nodes,
		Replicas: replicas,
		ServerOptions: []serve.Option{
			serve.WithJobWorkers(2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// do issues one request against a node handler and decodes the reply.
func do(t *testing.T, h http.Handler, method, path string, hdr map[string]string, body, out any) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("decoding %s %s reply (%d: %s): %v", method, path, rec.Code, rec.Body.String(), err)
		}
	}
	return rec
}

func clusterSpec(seq int) serve.WorkloadSpec {
	return serve.WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: seq, Space: "deepspeed"}
}

func sumTunesRun(lc *serve.LocalCluster) uint64 {
	var sum uint64
	for _, id := range lc.IDs() {
		sum += lc.Node(id).Stats().TunesRun
	}
	return sum
}

// unionRecords folds every node's store into fingerprint key -> list of
// observed records (one per node holding it).
func unionRecords(lc *serve.LocalCluster) map[string][]store.Record {
	out := map[string][]store.Record{}
	for _, id := range lc.IDs() {
		for _, rec := range lc.Node(id).Store().Records() {
			out[rec.Fingerprint.Key()] = append(out[rec.Fingerprint.Key()], rec)
		}
	}
	return out
}

// The tentpole invariant, directly: the same spec tuned through every
// node runs exactly one search fleet-wide, every node answers the same
// plan, and the plan lands on R stores with version 1.
func TestClusterSingleFlightAcrossNodes(t *testing.T) {
	lc := newCluster(t, 3, 2)
	spec := clusterSpec(512)
	var plans []string
	var servedBy []string
	for _, id := range lc.IDs() {
		var resp serve.TuneResponse
		rec := do(t, lc.Handler(id), http.MethodPost, "/tune", nil, serve.TuneRequest{WorkloadSpec: spec}, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("tune via %s: %d %s", id, rec.Code, rec.Body.String())
		}
		data, _ := json.Marshal(resp.Plan)
		plans = append(plans, string(data))
		servedBy = append(servedBy, rec.Header().Get("X-Mist-Served-By"))
	}
	for i := 1; i < len(plans); i++ {
		if plans[i] != plans[0] {
			t.Errorf("node %d answered a different plan", i)
		}
	}
	if got := sumTunesRun(lc); got != 1 {
		t.Errorf("fleet ran %d searches for one fingerprint, want exactly 1", got)
	}
	// Every request was answered by the same owning node, regardless of
	// which node it entered through.
	for i := 1; i < len(servedBy); i++ {
		if servedBy[i] != servedBy[0] {
			t.Errorf("served-by diverges: %v", servedBy)
		}
	}
	union := unionRecords(lc)
	if len(union) != 1 {
		t.Fatalf("store union holds %d fingerprints, want 1", len(union))
	}
	for key, recs := range union {
		if len(recs) != 2 {
			t.Errorf("fingerprint %s on %d stores, want R=2", key, len(recs))
		}
		for _, r := range recs {
			if r.Version != 1 {
				t.Errorf("fingerprint %s stored at version %d, want 1 (tuned more than once?)", key, r.Version)
			}
		}
	}
}

// One lost probe does not move a key off its owner: after the replica
// sees a single failure of the owner (Suspect, not Down), a cold /tune
// entering at the replica is still forwarded to the owner and searched
// there, once fleet-wide.
func TestSuspectOwnerStillServesItsKeys(t *testing.T) {
	lc := newCluster(t, 3, 2)
	spec := clusterSpec(512)
	key, err := spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	reps := lc.Cluster(lc.IDs()[0]).Replicas(key)
	owner, replica := reps[0].ID, reps[1].ID
	lc.Cluster(replica).Checker().ReportFailure(owner)
	if h := lc.Cluster(replica).Health(owner); h != cluster.Suspect {
		t.Fatalf("owner %s is %s at the replica after one failure, want suspect", owner, h)
	}
	rec := do(t, lc.Handler(replica), http.MethodPost, "/tune", nil, serve.TuneRequest{WorkloadSpec: spec}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("tune via %s: %d %s", replica, rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(cluster.HeaderServedBy); got != owner {
		t.Errorf("cold /tune through replica %s served by %s, want the owner %s", replica, got, owner)
	}
	if got := sumTunesRun(lc); got != 1 {
		t.Errorf("fleet ran %d searches for one fingerprint, want exactly 1", got)
	}
}

// The acceptance run, shrunk for test time: a seeded rebalance replay
// through a 3-node cluster is 5xx-free and runs exactly one search per
// unique fingerprint cluster-wide (analyzer-eval counters: TunesRun
// sums to the distinct-fingerprint count; every stored record is v1).
func TestClusterRebalanceScenarioSingleSearchPerFingerprint(t *testing.T) {
	lc := newCluster(t, 3, 2)
	var targets []load.Target
	for _, id := range lc.IDs() {
		targets = append(targets, load.NewHandlerTarget(lc.Handler(id)))
	}
	mt, err := load.NewMultiTarget(targets...)
	if err != nil {
		t.Fatal(err)
	}
	maxOps := 64
	if testing.Short() {
		maxOps = 24
	}
	rep, err := load.Run(context.Background(), mt, load.Options{
		Scenario: "rebalance", Seed: 1, Concurrency: 4, MaxOps: maxOps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server5xx != 0 {
		t.Fatalf("saw %d server 5xx: %+v", rep.Server5xx, rep.StatusCounts)
	}
	if rep.TransportErrors != 0 {
		t.Fatalf("transport errors: %d", rep.TransportErrors)
	}
	union := unionRecords(lc)
	if len(union) == 0 {
		t.Fatal("no fingerprints stored")
	}
	if got := sumTunesRun(lc); got != uint64(len(union)) {
		t.Errorf("fleet ran %d searches for %d unique fingerprints", got, len(union))
	}
	for key, recs := range union {
		for _, r := range recs {
			if r.Version != 1 {
				t.Errorf("fingerprint %s at version %d: searched more than once fleet-wide", key, r.Version)
			}
		}
	}
	// Cross-node traffic actually happened (the ring spread ownership).
	var forwards uint64
	for _, id := range lc.IDs() {
		forwards += lc.Node(id).Stats().ClusterForwards
	}
	if forwards == 0 {
		t.Error("no requests were forwarded — ring routing never engaged")
	}
}

// Failover: killing a node leaves its fingerprints servable from the
// replicas' stores, without a single re-search.
func TestClusterFailoverServesFromReplicasWithoutResearch(t *testing.T) {
	lc := newCluster(t, 3, 2)
	// Tune a small pool through one ingress node; ownership spreads over
	// the ring and each plan is replicated to its R-1 other replicas.
	specs := []serve.WorkloadSpec{clusterSpec(512), clusterSpec(640), clusterSpec(768), clusterSpec(896)}
	entry := lc.Handler("n1")
	for _, sp := range specs {
		if rec := do(t, entry, http.MethodPost, "/tune", nil, serve.TuneRequest{WorkloadSpec: sp}, nil); rec.Code != http.StatusOK {
			t.Fatalf("seed tune: %d %s", rec.Code, rec.Body.String())
		}
	}
	if got := sumTunesRun(lc); got != uint64(len(specs)) {
		t.Fatalf("seeding ran %d searches for %d specs", got, len(specs))
	}

	// Kill a node that owns at least one of the specs; query its keys
	// through a survivor.
	victim := ""
	ownerOf := map[int]string{}
	for i, sp := range specs {
		key, err := sp.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		ownerOf[i] = lc.Cluster("n1").Owner(key)
		if victim == "" && ownerOf[i] != "" {
			victim = ownerOf[i]
		}
	}
	if victim == "" {
		t.Fatal("no owner found")
	}
	if err := lc.Kill(victim); err != nil {
		t.Fatal(err)
	}
	survivor := ""
	for _, id := range lc.IDs() {
		if id != victim {
			survivor = id
			break
		}
	}
	before := sumTunesRun(lc)

	for i, sp := range specs {
		if ownerOf[i] != victim {
			continue
		}
		var resp serve.TuneResponse
		rec := do(t, lc.Handler(survivor), http.MethodPost, "/tune", nil, serve.TuneRequest{WorkloadSpec: sp}, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("failover tune via %s: %d %s", survivor, rec.Code, rec.Body.String())
		}
		if !resp.FromStore && !resp.Cached {
			t.Errorf("spec %d served neither from a replicated store nor a cache: %+v", i, resp)
		}
	}
	if after := sumTunesRun(lc); after != before {
		t.Errorf("failover re-searched: TunesRun went %d -> %d", before, after)
	}
}

// A node has one instrumented mux: Handler hands out the handler its
// peers reach it through, built once — not a fresh 22-route mux per
// call (591 allocations a call when a load generator asked per request).
func TestLocalClusterHandlerBuiltOnce(t *testing.T) {
	lc := newCluster(t, 2, 2)
	if lc.Handler("n1") != lc.Handler("n1") {
		t.Error("Handler returned two different handlers for one node")
	}
	if n := testing.AllocsPerRun(10, func() { lc.Handler("n1") }); n != 0 {
		t.Errorf("Handler allocates %.0f per call, want 0", n)
	}
	if lc.Handler("nope") != nil {
		t.Error("Handler for an unknown node is not nil")
	}
}

// The ingress request id survives the forwarded hop, lands in the job
// record, and is echoed on every reply; absent one, ingress mints it.
func TestRequestIDPropagation(t *testing.T) {
	lc := newCluster(t, 2, 2)
	spec := clusterSpec(512)
	// Find a node that does NOT own the spec so the request forwards.
	key, err := spec.CanonicalKey()
	if err != nil {
		t.Fatal(err)
	}
	owner := lc.Cluster("n1").Owner(key)
	nonOwner := "n1"
	if owner == "n1" {
		nonOwner = "n2"
	}

	rec := do(t, lc.Handler(nonOwner), http.MethodPost, "/tune",
		map[string]string{"X-Mist-Request-Id": "rid-e2e-1"},
		serve.TuneRequest{WorkloadSpec: spec}, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("tune: %d %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Mist-Request-Id"); got != "rid-e2e-1" {
		t.Errorf("request id not echoed through the hop: %q", got)
	}
	if got := rec.Header().Get("X-Mist-Served-By"); got != owner {
		t.Errorf("served by %q, want owner %q", got, owner)
	}

	// Jobs: the record pins the ingress id; the id is node-qualified and
	// resolvable from the other node.
	var st serve.JobStatus
	jrec := do(t, lc.Handler(nonOwner), http.MethodPost, "/jobs",
		map[string]string{"X-Mist-Request-Id": "rid-e2e-2"},
		serve.JobsSubmitRequest{JobSpec: serve.JobSpec{WorkloadSpec: clusterSpec(1024)}}, &st)
	if jrec.Code != http.StatusAccepted {
		t.Fatalf("job submit: %d %s", jrec.Code, jrec.Body.String())
	}
	if st.RequestID != "rid-e2e-2" {
		t.Errorf("job record request id %q, want rid-e2e-2", st.RequestID)
	}
	if st.Node == "" || !strings.HasPrefix(st.ID, st.Node+".") {
		t.Errorf("job id %q not qualified with node %q", st.ID, st.Node)
	}
	// Follow the job from the node that does NOT hold it.
	other := "n1"
	if st.Node == "n1" {
		other = "n2"
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got serve.JobStatus
		rec := do(t, lc.Handler(other), http.MethodGet, "/jobs/"+st.ID, nil, nil, &got)
		if rec.Code != http.StatusOK {
			t.Fatalf("cross-node job get: %d %s", rec.Code, rec.Body.String())
		}
		if got.RequestID != "rid-e2e-2" {
			t.Fatalf("cross-node job record lost request id: %+v", got)
		}
		if got.State == "done" || got.State == "failed" || got.State == "canceled" {
			if got.State != "done" {
				t.Fatalf("job settled %s: %s", got.State, got.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not settle")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Without a client-supplied id, ingress mints one.
	rec = do(t, lc.Handler(nonOwner), http.MethodGet, "/stats", nil, nil, nil)
	if rec.Header().Get("X-Mist-Request-Id") == "" {
		t.Error("no request id minted at ingress")
	}
}

// GET /cluster reports the topology; non-cluster servers answer
// enabled=false.
func TestClusterTopologyEndpoint(t *testing.T) {
	lc := newCluster(t, 3, 2)
	var info serve.ClusterInfo
	rec := do(t, lc.Handler("n2"), http.MethodGet, "/cluster", nil, nil, &info)
	if rec.Code != http.StatusOK {
		t.Fatalf("/cluster: %d", rec.Code)
	}
	if !info.Enabled || info.Self != "n2" || info.Replicas != 2 || len(info.Members) != 3 {
		t.Fatalf("topology %+v", info)
	}
	share := 0.0
	selfSeen := false
	for _, m := range info.Members {
		share += m.RingShare
		if m.Health != "ok" {
			t.Errorf("member %s health %q at startup", m.ID, m.Health)
		}
		if m.Self {
			selfSeen = true
			if m.ID != "n2" {
				t.Errorf("self flag on %s", m.ID)
			}
		}
	}
	if !selfSeen {
		t.Error("no member flagged self")
	}
	if share < 0.999 || share > 1.001 {
		t.Errorf("ring shares sum to %v", share)
	}

	s := serve.New()
	defer s.Close()
	var solo serve.ClusterInfo
	if rec := do(t, s.Handler(), http.MethodGet, "/cluster", nil, nil, &solo); rec.Code != http.StatusOK {
		t.Fatalf("solo /cluster: %d", rec.Code)
	}
	if solo.Enabled {
		t.Error("solo server reports cluster enabled")
	}
}

// A killed node turns Down on its peers' health views (passive signal
// from failed forwards or probes), and /cluster shows it.
func TestClusterHealthReflectsKilledNode(t *testing.T) {
	lc := newCluster(t, 3, 2)
	if err := lc.Kill("n3"); err != nil {
		t.Fatal(err)
	}
	// Drive the passive detection deterministically with probe rounds.
	for i := 0; i < 2; i++ {
		lc.Cluster("n1").Checker().ProbeOnce(context.Background())
	}
	var info serve.ClusterInfo
	do(t, lc.Handler("n1"), http.MethodGet, "/cluster", nil, nil, &info)
	for _, m := range info.Members {
		want := "ok"
		if m.ID == "n3" {
			want = "down"
		}
		if m.Health != want {
			t.Errorf("member %s health %q, want %q", m.ID, m.Health, want)
		}
	}
}

func TestParseKillFormatViaFailoverScenario(t *testing.T) {
	// The failover scenario stream must contain only tune and stats ops
	// (job records are node-local; their lookups would be 5xx noise
	// after a kill).
	stream, err := load.NewStream("failover", 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		op := stream.Next()
		if op.Kind != load.OpTune && op.Kind != load.OpStats {
			t.Fatalf("failover op %d is %q", i, op.Kind)
		}
	}
}
