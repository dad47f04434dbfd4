package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"
)

// fakeDoer routes requests by host to canned handlers; hosts marked
// dead answer with a transport error.
type fakeDoer struct {
	mu       sync.Mutex
	dead     map[string]bool
	statuses map[string]int // by host; default 200
	seen     []string       // "METHOD host path" log
}

func newFakeDoer() *fakeDoer {
	return &fakeDoer{dead: map[string]bool{}, statuses: map[string]int{}}
}

func (f *fakeDoer) Do(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.seen = append(f.seen, req.Method+" "+req.URL.Host+" "+req.URL.Path)
	dead := f.dead[req.URL.Host]
	status := f.statuses[req.URL.Host]
	f.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("fake: %s down", req.URL.Host)
	}
	if status == 0 {
		status = http.StatusOK
	}
	rec := httptest.NewRecorder()
	rec.WriteHeader(status)
	return rec.Result(), nil
}

func testMembers() []Member {
	return []Member{
		{ID: "n1", Addr: "http://n1"},
		{ID: "n2", Addr: "http://n2"},
		{ID: "n3", Addr: "http://n3"},
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Self: "n1"},                         // no members
		{Self: "nX", Members: testMembers()}, // self not a member
		{Self: "n1", Members: append(testMembers(), Member{})}, // empty id
		{Self: "n1", Members: []Member{{ID: "n1"}}},            // no addr
		{Self: "n1", Members: append(testMembers(), Member{ID: "n1", Addr: "http://dup"})},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	cl, err := New(Config{Self: "n1", Members: testMembers(), Replicas: 99})
	if err != nil {
		t.Fatal(err)
	}
	if cl.ReplicationFactor() != 3 {
		t.Errorf("replication factor %d, want capped at member count 3", cl.ReplicationFactor())
	}
}

// Health transitions: ok -> suspect on the first failure, -> down at
// the threshold, back to ok on any success; self is always ok.
func TestCheckerTransitions(t *testing.T) {
	c := NewChecker("n1", testMembers(), newFakeDoer(), time.Second, 3)
	if got := c.Status("n2"); got != Ok {
		t.Fatalf("initial status %v", got)
	}
	c.ReportFailure("n2")
	if got := c.Status("n2"); got != Suspect {
		t.Fatalf("after 1 failure: %v", got)
	}
	c.ReportFailure("n2")
	if got := c.Status("n2"); got != Suspect {
		t.Fatalf("after 2 failures: %v", got)
	}
	c.ReportFailure("n2")
	if got := c.Status("n2"); got != Down {
		t.Fatalf("after 3 failures: %v", got)
	}
	c.ReportFailure("n2") // saturates, no overflow
	c.ReportSuccess("n2")
	if got := c.Status("n2"); got != Ok {
		t.Fatalf("after recovery: %v", got)
	}
	c.ReportFailure("n1") // self: ignored
	if got := c.Status("n1"); got != Ok {
		t.Fatalf("self status %v", got)
	}
}

// Active probing drives the same transitions from /healthz outcomes.
func TestCheckerProbeOnce(t *testing.T) {
	doer := newFakeDoer()
	c := NewChecker("n1", testMembers(), doer, time.Second, 2)
	doer.mu.Lock()
	doer.dead["n3"] = true
	doer.mu.Unlock()

	c.ProbeOnce(context.Background())
	if got := c.Status("n2"); got != Ok {
		t.Errorf("healthy peer probed to %v", got)
	}
	if got := c.Status("n3"); got != Suspect {
		t.Errorf("dead peer after 1 probe: %v", got)
	}
	c.ProbeOnce(context.Background())
	if got := c.Status("n3"); got != Down {
		t.Errorf("dead peer after 2 probes: %v", got)
	}
	// Peer recovers.
	doer.mu.Lock()
	doer.dead["n3"] = false
	doer.mu.Unlock()
	c.ProbeOnce(context.Background())
	if got := c.Status("n3"); got != Ok {
		t.Errorf("recovered peer: %v", got)
	}
}

// Route drops Down members and keeps owner-first order among the live.
func TestRouteSkipsDownPeers(t *testing.T) {
	cl, err := New(Config{Self: "n1", Members: testMembers(), Replicas: 2, Client: newFakeDoer()})
	if err != nil {
		t.Fatal(err)
	}
	// Find a key owned by a peer (not n1).
	var key string
	for i := 0; ; i++ {
		key = fmt.Sprintf("key-%d", i)
		if cl.Owner(key) != "n1" {
			break
		}
	}
	owner := cl.Owner(key)
	route := cl.Route(key)
	if len(route) != 2 || route[0].ID != owner {
		t.Fatalf("route %v, want owner %s first", route, owner)
	}
	// Kill the owner: it must vanish from the route.
	for i := 0; i < 3; i++ {
		cl.Checker().ReportFailure(owner)
	}
	route = cl.Route(key)
	for _, m := range route {
		if m.ID == owner {
			t.Fatalf("down owner %s still routed: %v", owner, route)
		}
	}
	if len(route) != 1 {
		t.Fatalf("route %v, want the single surviving replica", route)
	}
}

// One lost probe does not move a key: a Suspect owner keeps its place at
// the head of the route, ahead of its Ok replicas.
func TestRouteKeepsSuspectOwnerFirst(t *testing.T) {
	cl, err := New(Config{Self: "n1", Members: testMembers(), Replicas: 3, Client: newFakeDoer()})
	if err != nil {
		t.Fatal(err)
	}
	key := "some-fingerprint"
	owner := cl.Owner(key)
	cl.Checker().ReportFailure(owner) // one failure: suspect
	if got := cl.Checker().Status(owner); got != Suspect {
		t.Fatalf("owner %s after one failure: %v, want Suspect", owner, got)
	}
	route := cl.Route(key)
	if len(route) != 3 {
		t.Fatalf("route %v, want all three members", route)
	}
	if route[0].ID != owner {
		t.Errorf("suspect owner %s not first: %v", owner, route)
	}
}

// Route is the ring's replica order minus the Down members, whatever
// else this node has seen: on five members at R=4, under every mix of
// Ok, Suspect and Down peers, a Suspect member keeps its ring place (a
// Suspect owner stays first), and Route allocates only the one slice it
// returns.
func TestRouteIsRingOrderMinusDown(t *testing.T) {
	members := append(testMembers(), Member{ID: "n4", Addr: "http://n4"}, Member{ID: "n5", Addr: "http://n5"})
	for state := 0; state < 81; state++ { // n2..n5 each Ok, Suspect or Down
		cl, err := New(Config{Self: "n1", Members: members, Replicas: 4, Client: newFakeDoer()})
		if err != nil {
			t.Fatal(err)
		}
		down := map[string]bool{}
		for i, s := 1, state; i < len(members); i, s = i+1, s/3 {
			for f := 0; f < []int{0, 1, 3}[s%3]; f++ {
				cl.Checker().ReportFailure(members[i].ID)
			}
			down[members[i].ID] = s%3 == 2
		}
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("key-%d", k)
			var want []string
			for _, id := range cl.Ring().Replicas(key, 4) {
				if !down[id] {
					want = append(want, id)
				}
			}
			var got []string
			for _, m := range cl.Route(key) {
				got = append(got, m.ID)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("state %d, %s: route %v, want %v", state, key, got, want)
			}
		}
		if state == 80 {
			if n := testing.AllocsPerRun(100, func() { cl.Route("key-1") }); n > 1 {
				t.Errorf("Route allocates %.0f slices per call, want 1", n)
			}
		}
	}
}

// Forward outcomes feed the checker: transport errors and 5xx count as
// failures, success resets.
func TestForwardFeedsHealth(t *testing.T) {
	doer := newFakeDoer()
	cl, err := New(Config{Self: "n1", Members: testMembers(), Client: doer, DownAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := cl.Member("n2")
	doer.mu.Lock()
	doer.dead["n2"] = true
	doer.mu.Unlock()
	if _, err := cl.Forward(context.Background(), m, http.MethodGet, "/stats", "rid-1", "", nil); err == nil {
		t.Fatal("forward to dead peer succeeded")
	}
	if got := cl.Health("n2"); got != Suspect {
		t.Errorf("after failed forward: %v", got)
	}
	doer.mu.Lock()
	doer.dead["n2"] = false
	doer.statuses["n2"] = http.StatusInternalServerError
	doer.mu.Unlock()
	resp, err := cl.Forward(context.Background(), m, http.MethodGet, "/stats", "rid-2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := cl.Health("n2"); got != Down {
		t.Errorf("after 5xx forward: %v", got)
	}
	doer.mu.Lock()
	doer.statuses["n2"] = 0
	doer.mu.Unlock()
	resp, err = cl.Forward(context.Background(), m, http.MethodGet, "/stats", "rid-3", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := cl.Health("n2"); got != Ok {
		t.Errorf("after recovery: %v", got)
	}
}

func TestParsePeers(t *testing.T) {
	ms, err := ParsePeers("n1=http://a:1, n2 = http://b:2/ ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0] != (Member{ID: "n1", Addr: "http://a:1"}) || ms[1] != (Member{ID: "n2", Addr: "http://b:2"}) {
		t.Errorf("parsed %+v", ms)
	}
	for _, bad := range []string{"", "n1", "=addr", "n1=", "  ,  "} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted", bad)
		}
	}
}
