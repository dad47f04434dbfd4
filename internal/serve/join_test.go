package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// holdingDoer passes peer requests on, except the first POST
// /cluster/view to node to: that one closes held and waits for release.
type holdingDoer struct {
	next          cluster.Doer
	to            string
	once          sync.Once
	held, release chan struct{}
}

func (d *holdingDoer) Do(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost && req.URL.Host == d.to && req.URL.Path == "/cluster/view" {
		d.once.Do(func() {
			close(d.held)
			<-d.release
		})
	}
	return d.next.Do(req)
}

// A join's seed forwards nothing under the new ring before the joiner
// holds it. The seed's view push to the joiner is held while a key
// tuned before the join, which the new ring gives the joiner, is tuned
// again through the seed: a seed that adopted the view first forwards
// it to a joiner still on its one-member boot view, which knows no peer
// to fetch the record from and searches it again.
func TestJoinSeedForwardsNothingBeforeJoinerHoldsView(t *testing.T) {
	hold := &holdingDoer{to: "n4", held: make(chan struct{}), release: make(chan struct{})}
	lc, err := newLocalCluster(LocalClusterOptions{Nodes: 3, Replicas: 2}, func(sb cluster.Doer) cluster.Doer {
		hold.next = sb
		return hold
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	tune := func(seq int) TuneResponse {
		t.Helper()
		body, err := json.Marshal(TuneRequest{WorkloadSpec: WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: seq, Space: "deepspeed"}})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		lc.Handler("n1").ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tune", bytes.NewReader(body)))
		var resp TuneResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
			t.Fatalf("tune seq %d: %d %s", seq, rec.Code, rec.Body.String())
		}
		return resp
	}

	// Tune keys before the join until one belongs to n4 in the grown ring.
	grown, err := cluster.NewRing([]string{"n1", "n2", "n3", "n4"}, cluster.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	moved, specs := 0, 0
	for seq := 512; moved == 0; seq += 128 {
		if seq > 512+128*32 {
			t.Fatal("no key of 32 moves to n4 in the grown ring")
		}
		tune(seq)
		specs++
		key, err := WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: seq, Space: "deepspeed"}.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		if grown.Owner(key) == "n4" {
			moved = seq
		}
	}

	joined := make(chan error, 1)
	go func() {
		_, err := lc.Join(context.Background(), "n4")
		joined <- err
	}()
	select {
	case <-hold.held:
	case <-time.After(30 * time.Second):
		t.Fatal("the seed never pushed the join's view to n4")
	}
	tune(moved)
	close(hold.release)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
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
	var searches uint64
	for _, id := range lc.IDs() {
		searches += lc.Node(id).Stats().TunesRun
	}
	if searches != uint64(specs) || audit.Fingerprints != specs {
		t.Errorf("%d searches fleet-wide for %d fingerprints (%d tuned), want one each", searches, audit.Fingerprints, specs)
	}
}

// A LocalCluster's probers start once every node is on the switchboard:
// a first probe that finds a sibling missing would mark it suspect, and
// the prober's node would then serve that sibling's keys itself while
// the sibling serves them too. One probe round, then every node sees
// every peer Ok.
func TestLocalClusterProbesOnlyWiredPeers(t *testing.T) {
	lc, err := NewLocalCluster(LocalClusterOptions{Nodes: 3, Replicas: 2, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	time.Sleep(200 * time.Millisecond) // the first probe round, which Start runs at once
	for _, id := range lc.IDs() {
		for _, peer := range lc.IDs() {
			if h := lc.Cluster(id).Checker().Status(peer); h != cluster.Ok {
				t.Errorf("%s sees %s %v after its first probe round, want ok", id, peer, h)
			}
		}
	}
}
