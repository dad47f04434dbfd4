package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
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

// countingDoer counts the peer requests that pass through it.
type countingDoer struct {
	next cluster.Doer
	mu   sync.Mutex
	seen []string // "host path"
}

func (d *countingDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	d.seen = append(d.seen, req.URL.Host+" "+req.URL.Path)
	d.mu.Unlock()
	return d.next.Do(req)
}

// Boot is quiet: a node's probe and repair loops run nothing before
// their first tick, so a node started before its siblings are on the
// switchboard marks none of them suspect. On a fake-clocked fleet whose
// nodes are wired and started one at a time, no peer request leaves any
// node; one explicit probe round per node then sends exactly one
// /healthz per peer and leaves every node seeing every peer Ok.
func TestLocalClusterProbesOnlyWiredPeers(t *testing.T) {
	const nodes = 3
	fake := clock.NewFake(time.Unix(0, 0))
	lc := &LocalCluster{
		servers: map[string]*Server{},
		sb:      &switchboard{handlers: map[string]http.Handler{}, dead: map[string]bool{}},
		opt: LocalClusterOptions{Nodes: nodes, Replicas: 2, ProbeInterval: time.Second,
			RebalanceInterval: time.Second, ServerOptions: []Option{WithClock(fake)}},
	}
	t.Cleanup(lc.Close)
	rec := &countingDoer{next: lc.sb}
	lc.peers = rec
	var members []cluster.Member
	for i := 1; i <= nodes; i++ {
		id := fmt.Sprintf("n%d", i)
		members = append(members, cluster.Member{ID: id, Addr: "http://" + id})
		lc.ids = append(lc.ids, id)
	}
	for _, m := range members {
		if err := lc.addNode(m, members); err != nil {
			t.Fatal(err)
		}
		lc.start(lc.Node(m.ID))
		rec.mu.Lock()
		if len(rec.seen) != 0 {
			t.Errorf("after starting %s, %d peer requests left before any tick: %v", m.ID, len(rec.seen), rec.seen)
		}
		rec.mu.Unlock()
	}
	for _, id := range lc.IDs() {
		lc.Cluster(id).ProbeOnce(context.Background())
	}
	rec.mu.Lock()
	if len(rec.seen) != nodes*(nodes-1) {
		t.Errorf("one probe round per node sent %d peer requests, want %d: %v", len(rec.seen), nodes*(nodes-1), rec.seen)
	}
	for _, r := range rec.seen {
		if !strings.HasSuffix(r, " /healthz") {
			t.Errorf("probe round sent %s", r)
		}
	}
	rec.mu.Unlock()
	for _, id := range lc.IDs() {
		for _, peer := range lc.IDs() {
			if h := lc.Cluster(id).Health(peer); h != cluster.Ok {
				t.Errorf("%s sees %s %v after its first probe round, want ok", id, peer, h)
			}
		}
	}
}
