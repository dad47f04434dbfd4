package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/store"
)

// peerTestCluster is a 3-node, R=2 LocalCluster with an SLO spec (so
// GET /slo answers), no prober and no background repairer.
func peerTestCluster(t *testing.T) *LocalCluster {
	t.Helper()
	lc, err := NewLocalCluster(LocalClusterOptions{
		Nodes: 3, Replicas: 2,
		ServerOptions: []Option{WithSLO(sloTestConfig())},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc
}

// TestPeerProtocolConformance drives every typed peer method from n1
// against n2's real handlers through the switchboard, and checks each
// decodes exactly what the handler's named reply type encodes — the
// property "both ends share one type" is about.
func TestPeerProtocolConformance(t *testing.T) {
	lc := peerTestCluster(t)
	ctx := context.Background()
	n1, cl := lc.Node("n1"), lc.Cluster("n1")
	n2, _ := cl.Member("n2")

	spec := smallSpec()
	if _, _, _, err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	rec := store.Record{Fingerprint: spec.fingerprint(), Version: 1, Predicted: 1.5}
	tuneBody, _ := json.Marshal(TuneRequest{WorkloadSpec: spec})
	recBody, _ := json.Marshal(rec)
	keyBody, _ := json.Marshal(fetchKeyRequest{Key: spec.key()})

	t.Run("fetch miss is 404-as-miss", func(t *testing.T) {
		if _, ok, err := n1.peerFetch(ctx, n2, keyBody); ok || err != nil {
			t.Errorf("fetch of an unknown key: ok=%v err=%v, want a clean miss", ok, err)
		}
	})
	t.Run("forwarded tune 200", func(t *testing.T) {
		tr, answered, err := n1.peerTune(ctx, n2, tuneBody)
		if err != nil || !answered || tr.Plan == nil || tr.Candidates == 0 || tr.StoreVersion != 1 {
			t.Fatalf("peerTune: %+v answered=%v err=%v", tr, answered, err)
		}
		rec.Plan = tr.Plan
		recBody, _ = json.Marshal(rec)
	})
	t.Run("replicate", func(t *testing.T) {
		// n2 just tuned the spec, so version 1 is already there; version 2
		// moves it forward.
		ack, err := n1.peerReplicate(ctx, repairBudget, n2, "", recBody)
		if err != nil || ack != (replicateAck{Applied: false, Version: 1}) {
			t.Errorf("re-offer of a held version: %+v, %v", ack, err)
		}
		rec.Version = 2
		next, _ := json.Marshal(rec)
		ack, err = n1.peerReplicate(ctx, 0, n2, "rid", next)
		if err != nil || ack != (replicateAck{Applied: true, Version: 2}) {
			t.Errorf("offer of a newer version: %+v, %v", ack, err)
		}
	})
	t.Run("fetch hit", func(t *testing.T) {
		got, ok, err := n1.peerFetch(ctx, n2, keyBody)
		if err != nil || !ok || got.Version != 2 || got.Plan == nil || got.Fingerprint != rec.Fingerprint {
			t.Errorf("fetch: %+v ok=%v err=%v", got, ok, err)
		}
	})
	t.Run("records", func(t *testing.T) {
		recs, err := n1.peerRecords(ctx, n2)
		if err != nil || len(recs) != 1 || recs[0].Fingerprint != rec.Fingerprint || recs[0].Version != 2 {
			t.Errorf("records: %+v, %v", recs, err)
		}
	})
	t.Run("view get and post", func(t *testing.T) {
		v, err := cl.FetchView(ctx, n2)
		if err != nil || v.Epoch != 0 || len(v.Members) != 3 {
			t.Errorf("FetchView: %+v, %v", v, err)
		}
		ack, err := cl.PushView(ctx, n2, v) // its own view: acknowledged, not adopted
		if err != nil || ack != (cluster.ViewAck{Adopted: false, Epoch: 0}) {
			t.Errorf("PushView of the current view: %+v, %v", ack, err)
		}
		v.Epoch = 4
		ack, err = cl.PushView(ctx, n2, v)
		if err != nil || ack != (cluster.ViewAck{Adopted: true, Epoch: 4}) {
			t.Errorf("PushView of a newer view: %+v, %v", ack, err)
		}
	})
	t.Run("slo", func(t *testing.T) {
		rep, err := n1.peerSLO(ctx, n2)
		if err != nil || rep.Node != "n2" || len(rep.Objectives) != len(sloTestConfig().Objectives) {
			t.Errorf("peerSLO: %+v, %v", rep, err)
		}
	})
	t.Run("forwarded tune 422 and 429 keep the peer's code and message", func(t *testing.T) {
		infeasible, _ := json.Marshal(TuneRequest{WorkloadSpec: WorkloadSpec{
			Model: "gpt3-7b", GPUs: 2, Batch: 8, Seq: 4096, Space: "3d"}})
		_, answered, err := n1.peerTune(ctx, n2, infeasible)
		var se *cluster.StatusError
		if !answered || !errors.As(err, &se) || se.Status != http.StatusUnprocessableEntity || se.Peer != "n2" || se.Msg == "" {
			t.Fatalf("infeasible tune: answered=%v err=%#v", answered, err)
		}
		if statusFor(err) != http.StatusUnprocessableEntity {
			t.Errorf("statusFor relays %d, want the peer's 422", statusFor(err))
		}
		// A forwarded hop skips the peer's admission gate, so no real node
		// answers a hop 429; a stub on the switchboard does.
		lc.sb.mu.Lock()
		lc.sb.handlers["busy"] = http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			writeError(rw, http.StatusTooManyRequests, errors.New("queue full, come back later"))
		})
		lc.sb.mu.Unlock()
		_, answered, err = n1.peerTune(ctx, cluster.Member{ID: "busy", Addr: "http://busy"}, tuneBody)
		if !answered || !errors.As(err, &se) || se.Status != http.StatusTooManyRequests || err.Error() != "queue full, come back later" {
			t.Fatalf("busy peer: answered=%v err=%#v", answered, err)
		}
		if statusFor(err) != http.StatusTooManyRequests {
			t.Errorf("statusFor relays %d, want the peer's 429", statusFor(err))
		}
	})
}

// TestPeerTrafficCounts pins what counts as a forward. After a fixed
// drill — one cold tune through a non-owner, one Settle round, one join
// — the fleet's forward, replication and record-fetch totals and the
// per-peer forward series equal the values the drill produced before
// the peer protocol was folded into one call (parent of PR 18):
// replication, repair, view broadcast and the SLO fold are peer calls,
// not forwards, and must not start showing up in these series.
func TestPeerTrafficCounts(t *testing.T) {
	lc := peerTestCluster(t)
	ctx := context.Background()
	spec := smallSpec()
	key, err := spec.CanonicalKey()
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
	if rec := do2(t, lc.Handler(other), http.MethodPost, "/tune", TuneRequest{WorkloadSpec: spec}, nil); rec.Code != http.StatusOK {
		t.Fatalf("cold tune via %s: %d %s", other, rec.Code, rec.Body.String())
	}
	if err := lc.Settle(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := lc.Join(ctx, "n4"); err != nil {
		t.Fatal(err)
	}
	var rep struct{ Nodes int }
	if code := getJSON(t, lc.Handler(owner), "/cluster/health", &rep); code != http.StatusOK {
		t.Fatalf("fleet fold: %d", code)
	}

	var forwards, replications, fetches uint64
	var series []string
	for _, id := range lc.IDs() {
		st := lc.Node(id).Stats()
		forwards += st.ClusterForwards
		replications += st.ClusterReplications
		fetches += st.ClusterRecordFetches
		cs, _ := lc.Node(id).Metrics().Gather()
		for _, c := range cs {
			if c.Name == metricForwardsTotal {
				series = append(series, fmt.Sprintf("%s->%s code=%s: %d", id, c.Labels["peer"], c.Labels["code"], c.Value))
			}
		}
	}
	sort.Strings(series)
	t.Logf("forwards %d, replications %d, record fetches %d, series %v", forwards, replications, fetches, series)
	if forwards != 1 || replications != 1 || fetches != 1 {
		t.Errorf("fleet totals: forwards %d, replications %d, record fetches %d; want 1, 1, 1", forwards, replications, fetches)
	}
	if want := fmt.Sprintf("[%s->%s code=200: 1]", other, owner); fmt.Sprint(series) != want {
		t.Errorf("per-peer forward series %v, want %s", series, want)
	}
}
