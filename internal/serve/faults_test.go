package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

var faultsFull = flag.Bool("faults.full", false, "run TestFaultsMasked and TestFaultsDropped over 1 000 seeds instead of 64")

// faultyClient is the switchboard seen through a seeded fault plan that
// injects only what the node-to-node protocol promises to mask: a
// request may wait up to 1 ms before delivery (reordering it against
// concurrent peer requests) and may be delivered twice, the caller
// getting the first reply while the duplicate's is drained; and a
// /healthz probe's reply may be lost, which the prober sees as a
// transport error. A lost probe makes its peer Suspect, never Down: the
// plan never loses two probe replies in a row to one peer. The seed
// fixes the sequence of draws, not which request draws which: the
// scheduler decides the interleaving.
//
// The drop group widens the plan (drops != nil): while drops is on, any
// peer request may be lost, a probe's reply after delivery and any
// other request either before delivery or its reply after it. A loss is
// drawn only while the sender counts the peer Ok and no earlier loss to
// it is still uncounted (pending), so no peer sees two failures in a
// row from one sender: it turns Suspect, never Down.
type faultyClient struct {
	sb   *switchboard
	mu   sync.Mutex
	rng  *rand.Rand
	lost map[string]bool // by peer host: the last probe reply was lost

	drops   *atomic.Bool     // shared by the fleet; nil outside the drop group
	self    *cluster.Cluster // the sender, whose health view gates a loss
	pending map[string]bool  // by peer host: a loss self has not counted yet
	dropped map[string]int   // by path: requests and replies lost
}

// drawLoss is the drop group's draw for one request; the caller holds
// mu. before reports a request lost before delivery (false: its reply
// is lost after it). Join and drain are operator calls, never lost.
func (c *faultyClient) drawLoss(host, path string) (lose, before bool) {
	h := c.self.Health(host)
	if h == cluster.Suspect {
		c.pending[host] = false // the last loss is counted
	}
	if !c.drops.Load() || c.pending[host] || h != cluster.Ok ||
		path == "/cluster/join" || path == "/cluster/drain" || c.rng.Intn(4) != 0 {
		return false, false
	}
	c.pending[host] = true
	c.dropped[path]++
	return true, path != "/healthz" && c.rng.Intn(2) == 0
}

func (c *faultyClient) Do(req *http.Request) (*http.Response, error) {
	c.mu.Lock()
	dup := c.rng.Intn(4) == 0
	var delay time.Duration
	if c.rng.Intn(4) == 0 {
		delay = time.Duration(1 + c.rng.Int63n(int64(time.Millisecond)))
	}
	lose, before := false, false
	if c.drops != nil {
		lose, before = c.drawLoss(req.URL.Host, req.URL.Path)
	} else if req.URL.Path == "/healthz" {
		host := req.URL.Host
		lose = !c.lost[host] && c.rng.Intn(4) == 0
		c.lost[host] = lose
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if before {
		return nil, fmt.Errorf("faults: request to %s lost", req.URL.Host)
	}
	if lose {
		resp, err := c.sb.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		return nil, fmt.Errorf("faults: reply from %s lost", req.URL.Host)
	}
	if !dup {
		return c.sb.Do(req)
	}
	var body []byte
	if req.Body != nil {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}
	twin := req.Clone(req.Context())
	req.Body, twin.Body = io.NopCloser(bytes.NewReader(body)), io.NopCloser(bytes.NewReader(body))
	resp, err := c.sb.Do(req)
	if dresp, derr := c.sb.Do(twin); derr == nil {
		_, _ = io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
	}
	return resp, err
}

// faultyCluster is a LocalCluster built as addNode builds one, except
// that every node (boot members and joins alike) reaches its peers
// through its own faultyClient, seeded from seed. With drops, the
// clients share one switch for the drop group.
type faultyCluster struct {
	*LocalCluster
	seed    int64
	drops   *atomic.Bool
	clients []*faultyClient
}

func newFaultyCluster(t *testing.T, seed int64, nodes, replicas int, drops bool) *faultyCluster {
	t.Helper()
	fc := &faultyCluster{LocalCluster: &LocalCluster{
		servers: map[string]*Server{},
		sb:      &switchboard{handlers: map[string]http.Handler{}, dead: map[string]bool{}},
		opt:     LocalClusterOptions{Nodes: nodes, Replicas: replicas, ServerOptions: []Option{WithJobWorkers(2)}},
	}, seed: seed}
	if drops {
		fc.drops = new(atomic.Bool)
		fc.drops.Store(true)
	}
	t.Cleanup(fc.Close)
	members := make([]cluster.Member, nodes)
	for i := range members {
		id := fmt.Sprintf("n%d", i+1)
		members[i] = cluster.Member{ID: id, Addr: "http://" + id}
		fc.ids = append(fc.ids, id)
	}
	for _, m := range members {
		fc.addFaultyNode(t, m, members)
	}
	return fc
}

func (fc *faultyCluster) addFaultyNode(t *testing.T, m cluster.Member, members []cluster.Member) *faultyClient {
	t.Helper()
	client := &faultyClient{sb: fc.sb, rng: rand.New(rand.NewSource(fc.seed*1000 + int64(len(fc.servers)))), lost: map[string]bool{},
		drops: fc.drops, pending: map[string]bool{}, dropped: map[string]int{}}
	cl, err := cluster.New(cluster.Config{
		Self:         m.ID,
		Members:      members,
		Replicas:     fc.opt.Replicas,
		Client:       client,
		ProbeTimeout: 500 * time.Millisecond,
		DownAfter:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	client.self = cl
	fc.clients = append(fc.clients, client)
	srv := New(append(append([]Option{}, fc.opt.ServerOptions...), WithStore(store.InMemory()), WithCluster(cl))...)
	fc.mu.Lock()
	fc.servers[m.ID] = srv
	fc.mu.Unlock()
	fc.sb.mu.Lock()
	fc.sb.handlers[m.ID] = srv.Handler()
	fc.sb.mu.Unlock()
	return client
}

// join is LocalCluster.Join over the joining node's faulty client.
func (fc *faultyCluster) join(t *testing.T, id string) {
	t.Helper()
	self := cluster.Member{ID: id, Addr: "http://" + id}
	client := fc.addFaultyNode(t, self, []cluster.Member{self})
	seed, err := fc.liveRingMember(id)
	if err != nil {
		t.Fatal(err)
	}
	view, err := cluster.JoinVia(context.Background(), client, seed.Addr, self)
	if err != nil {
		t.Fatalf("join %s: %v", id, err)
	}
	if _, err := fc.Node(id).cluster.AdoptView(view); err != nil {
		t.Fatal(err)
	}
	fc.mu.Lock()
	fc.ids = append(fc.ids, id)
	fc.mu.Unlock()
}

// TestFaultsMasked explores the protocol under seeded duplicate and
// delayed peer requests and lost probe replies: each seed runs cold
// tunes and repeats of cheap DeepSpeed specs through random ingress
// nodes of a 3-node, R = 2 fleet, a probe round on every node before
// each of a client's requests, plus one async job, and odd seeds also
// join a node and then drain one. A lost probe leaves its peer Suspect,
// which must not move a key's search off its owner. Before the first
// join, every plan acknowledged so far must already be on exactly R
// stores of its replica set (the write-through, not repair, put it
// there). After repair settles, every fingerprint must sit on exactly R
// live replicas at Version 1 with one search each, and every plan
// acknowledged with a 200 must be in some live store. Replay one seed
// with -run 'TestFaultsMasked/seed=17'. Drops of other requests, a peer
// turning Down, partitions and crashes are out of scope: they break
// single-flight by design (availability wins), so their checker needs a
// different bound.
func TestFaultsMasked(t *testing.T) {
	seeds := 64
	switch {
	case *faultsFull:
		seeds = 1000
	case RaceEnabled:
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runFaultSeed(t, int64(seed), false) })
	}
}

// TestFaultsDropped is TestFaultsMasked under the drop group: peer
// requests and replies are also lost (see faultyClient), until the
// settle before the audit. A lost relay or record fetch may cost a
// second search of its key — the route walks on to the next replica or
// serves locally, availability first — so single-flight is bounded
// instead of exact: the fleet's searches exceed its fingerprints by at
// most the relays (/tune, /simulate, /jobs) and /cluster/fetch requests
// the plan lost. Every fingerprint must still sit on exactly R live
// replicas at Version 1 after the settle, and every plan acknowledged
// with a 200 must be stored. Replay one seed with
// -run 'TestFaultsDropped/seed=17'.
func TestFaultsDropped(t *testing.T) {
	seeds := 64
	switch {
	case *faultsFull:
		seeds = 1000
	case RaceEnabled:
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runFaultSeed(t, int64(seed), true) })
	}
}

func runFaultSeed(t *testing.T, seed int64, drops bool) {
	fc := newFaultyCluster(t, seed, 3, 2, drops)
	rng := rand.New(rand.NewSource(seed))
	var (
		ackMu sync.Mutex
		acked = map[string]bool{} // fingerprint keys answered with a plan and a 200
	)
	ack := func(ws WorkloadSpec) {
		ackMu.Lock()
		acked[ws.key()] = true
		ackMu.Unlock()
	}
	pick := func(r *rand.Rand) http.Handler {
		ids := fc.IDs()
		return fc.Handler(ids[r.Intn(len(ids))])
	}
	var specs [8]WorkloadSpec
	for i := range specs {
		specs[i] = WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: 512 + 128*i, Space: "deepspeed"}
		if _, _, _, err := specs[i].normalize(); err != nil {
			t.Fatal(err)
		}
	}
	spec := func(r *rand.Rand) WorkloadSpec { return specs[r.Intn(len(specs))] }
	// probeAll runs one probe round on every node at once. Rounds never
	// overlap, so no prober has two probes of one peer in flight and a
	// lost reply is always followed by a delivered one.
	var probeMu sync.Mutex
	probeAll := func() {
		probeMu.Lock()
		defer probeMu.Unlock()
		var wg sync.WaitGroup
		for _, id := range fc.IDs() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fc.Cluster(id).ProbeOnce(context.Background())
			}()
		}
		wg.Wait()
	}

	// traffic runs three clients of n requests each, concurrently; each
	// client's specs and ingress nodes are drawn from its own seeded
	// source.
	traffic := func(n int) {
		var wg sync.WaitGroup
		errs := make(chan error, 3*n)
		for c := 0; c < 3; c++ {
			r := rand.New(rand.NewSource(rng.Int63()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					probeAll()
					ws := spec(r)
					body, _ := json.Marshal(TuneRequest{WorkloadSpec: ws})
					rec := post(pick(r), "/tune", body)
					var resp TuneResponse
					if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || resp.Plan == nil {
						errs <- fmt.Errorf("tune seq %d: %d %s", ws.Seq, rec.Code, rec.Body)
						continue
					}
					ack(ws)
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}

	// The async job rides beside the first round of traffic.
	jobSpec := spec(rng)
	jobIngress := pick(rng)
	body, _ := json.Marshal(JobsSubmitRequest{JobSpec: JobSpec{WorkloadSpec: jobSpec}})
	var st JobStatus
	if rec := post(jobIngress, "/jobs", body); rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("job submit: %d %s", rec.Code, rec.Body)
	}
	traffic(6)
	done, err := fc.Node(st.Node).WaitJob(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if drops {
		// The ingress may relay a job lookup to the job's node, and the
		// relay may be lost: read the job where it ran.
		st = done
	} else {
		rec := httptest.NewRecorder()
		jobIngress.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+st.ID, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil {
			t.Fatalf("job %s: %d %s", st.ID, rec.Code, rec.Body)
		}
	}
	if st.Result == nil || st.Result.Plan == nil {
		t.Fatalf("job %s finished without a plan: %+v", st.ID, st)
	}
	ack(jobSpec)

	// No join, drain or repair has run yet, so every copy so far was made
	// on the tune path: a plan acknowledged with a 200 was stored and
	// written through before the reply, so it is already on exactly R
	// stores of its replica set — unless a write-through was lost.
	ring := fc.Cluster(fc.IDs()[0])
	for key := range acked {
		if drops {
			break
		}
		copies := 0
		for _, m := range ring.Replicas(key) {
			if _, ok := fc.Node(m.ID).Store().GetByKey(key); ok {
				copies++
			}
		}
		if copies != fc.opt.Replicas {
			t.Errorf("before settle: plan for %s is on %d stores of its replica set, want %d", key, copies, fc.opt.Replicas)
		}
	}

	if seed%2 == 1 {
		fc.join(t, "n4")
		traffic(3)
		ids := fc.IDs()
		if err := fc.Drain(context.Background(), ids[rng.Intn(len(ids))]); err != nil {
			t.Fatal(err)
		}
		traffic(3)
	}

	var lost int // relays and record fetches the plan lost
	if drops {
		fc.drops.Store(false)
		for _, c := range fc.clients {
			c.mu.Lock()
			lost += c.dropped["/tune"] + c.dropped["/simulate"] + c.dropped["/jobs"] + c.dropped["/cluster/fetch"]
			c.mu.Unlock()
		}
	}
	if err := fc.Settle(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	audit, err := fc.AuditReplication()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range audit.Violations {
		// Under drops the audit's exact single-flight count gives way to
		// the bound below; its replica-count and version checks stand.
		if drops && strings.HasPrefix(v, "fleet ran ") {
			continue
		}
		t.Errorf("audit: %s", v)
	}
	if extra := int(audit.SearchesRun) - audit.Fingerprints; drops && extra > lost {
		t.Errorf("fleet ran %d searches for %d fingerprints: %d extra, but the plan lost only %d relays and record fetches",
			audit.SearchesRun, audit.Fingerprints, extra, lost)
	}
	held := map[string]bool{}
	for _, id := range fc.IDs() {
		for _, r := range fc.Node(id).Store().Records() {
			held[r.Fingerprint.Key()] = true
		}
	}
	for key := range acked {
		if !held[key] {
			t.Errorf("plan for %s was acknowledged with a 200 but no live store holds it", key)
		}
	}
}
