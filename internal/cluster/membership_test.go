package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/trace"
)

// ParsePeers must refuse every malformed wire form with a useful error,
// not silently mis-parse — a bad -peers flag is operator input.
func TestParsePeersMalformed(t *testing.T) {
	cases := []string{
		"",                        // empty
		"  ,  ",                   // separators only
		"n1",                      // no =
		"=addr",                   // empty id
		"n1=",                     // empty addr
		" = ",                     // both empty
		"n1=http://a,n1=http://b", // duplicate id, different addrs
		"n1=http://a,n1=http://a", // duplicate id, same addr
		"n1=http://a,,n2",         // one good, one bad
	}
	for _, bad := range cases {
		if ms, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted: %+v", bad, ms)
		}
	}
	// Addresses may contain '=' (query strings); only the first cut
	// splits.
	ms, err := ParsePeers("n1=http://a?x=1")
	if err != nil || len(ms) != 1 || ms[0].Addr != "http://a?x=1" {
		t.Errorf("ParsePeers with = in addr: %+v, %v", ms, err)
	}
	// Output is sorted by id regardless of input order.
	ms, err = ParsePeers("n2=http://b,n1=http://a")
	if err != nil || ms[0].ID != "n1" || ms[1].ID != "n2" {
		t.Errorf("ParsePeers not sorted: %+v, %v", ms, err)
	}
}

func mustCluster(t *testing.T, self string, members []Member, client Doer) *Cluster {
	t.Helper()
	cl, err := New(Config{Self: self, Members: members, Replicas: 2, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// A join bumps the epoch, grows the ring, and is idempotent for an
// identical re-announce; an id collision at a different address is
// refused.
func TestProposeJoin(t *testing.T) {
	cl := mustCluster(t, "n1", testMembers(), newFakeDoer())
	var announced View
	v, changed, err := cl.ProposeJoin(Member{ID: "n4", Addr: "http://n4"}, func(v View) {
		announced = v
		if cl.Epoch() != 0 {
			t.Errorf("the join's view was adopted (epoch %d) before it was announced", cl.Epoch())
		}
	})
	if err != nil || !changed {
		t.Fatalf("join: %v changed=%v", err, changed)
	}
	if announced.Epoch != 1 || len(announced.Members) != 4 {
		t.Errorf("announced %+v, want the epoch-1 view of four members", announced)
	}
	if v.Epoch != 1 || len(v.Members) != 4 || cl.Epoch() != 1 {
		t.Fatalf("view after join: %+v (epoch %d)", v, cl.Epoch())
	}
	if _, ok := cl.Member("n4"); !ok {
		t.Error("joined member not in table")
	}
	// Idempotent re-announce: same view back, no epoch bump.
	v2, changed, err := cl.ProposeJoin(Member{ID: "n4", Addr: "http://n4"}, nil)
	if err != nil || changed || v2.Epoch != 1 {
		t.Errorf("re-join: %+v changed=%v err=%v", v2, changed, err)
	}
	// Same id, different address: refused.
	if _, _, err := cl.ProposeJoin(Member{ID: "n4", Addr: "http://elsewhere"}, nil); err == nil {
		t.Error("conflicting join accepted")
	}
	if _, _, err := cl.ProposeJoin(Member{ID: "", Addr: "http://x"}, nil); err == nil {
		t.Error("empty-id join accepted")
	}
}

// A join whose minted view a superseding announced view overtakes while
// it is announced is refused, and the announced view stands.
func TestProposeJoinOvertaken(t *testing.T) {
	cl := mustCluster(t, "n1", testMembers(), newFakeDoer())
	_, changed, err := cl.ProposeJoin(Member{ID: "n4", Addr: "http://n4"}, func(View) {
		if _, err := cl.AdoptView(View{Epoch: 2, Members: append(testMembers(), Member{ID: "n5", Addr: "http://n5"})}); err != nil {
			t.Fatal(err)
		}
	})
	if err == nil || changed {
		t.Fatalf("overtaken join: changed=%v err=%v, want refused", changed, err)
	}
	if _, ok := cl.Member("n4"); ok || cl.Epoch() != 2 {
		t.Errorf("after an overtaken join: epoch %d, n4 a member %v", cl.Epoch(), ok)
	}
}

// A drain shrinks the ring (epoch+1); draining self leaves the node
// serving but out of the ring; unknown members and the last member are
// refused.
func TestProposeDrain(t *testing.T) {
	cl := mustCluster(t, "n1", testMembers(), newFakeDoer())
	v, gone, err := cl.ProposeDrain("n3")
	if err != nil || gone != (Member{ID: "n3", Addr: "http://n3"}) || v.Epoch != 1 || len(v.Members) != 2 {
		t.Fatalf("drain: %+v removed=%+v err=%v", v, gone, err)
	}
	if _, _, err := cl.ProposeDrain("nX"); err == nil {
		t.Error("unknown drain accepted")
	}
	// Self-drain: the node adopts a view excluding itself.
	if _, _, err := cl.ProposeDrain("n1"); err != nil {
		t.Fatal(err)
	}
	if cl.InRing() {
		t.Error("self still in ring after self-drain")
	}
	if got := cl.ReplicationFactor(); got != 1 {
		t.Errorf("effective R %d with one member left, want 1", got)
	}
	for _, m := range cl.Route("some-key") {
		if m.ID == "n1" {
			t.Error("drained self still routed")
		}
	}
	// Down to one member: the last drain is refused.
	if _, _, err := cl.ProposeDrain("n2"); err == nil {
		t.Error("draining the last member accepted")
	}
}

// Two nodes that accepted conflicting changes at the same epoch must
// converge: exactly one of the two views wins on both, chosen by the
// membership fingerprint tie-break.
func TestConflictingEpochViewsConverge(t *testing.T) {
	two := []Member{{ID: "n1", Addr: "http://n1"}, {ID: "n2", Addr: "http://n2"}}
	c1 := mustCluster(t, "n1", two, newFakeDoer())
	c2 := mustCluster(t, "n2", two, newFakeDoer())

	vA := View{Epoch: 5, Members: append(append([]Member(nil), two...), Member{ID: "n3", Addr: "http://n3"})}
	vB := View{Epoch: 5, Members: append(append([]Member(nil), two...), Member{ID: "n4", Addr: "http://n4"})}
	if ok, err := c1.AdoptView(vA); err != nil || !ok {
		t.Fatalf("c1 adopt A: %v %v", ok, err)
	}
	if ok, err := c2.AdoptView(vB); err != nil || !ok {
		t.Fatalf("c2 adopt B: %v %v", ok, err)
	}
	// Cross-announce: exactly one side switches.
	ok1, err := c1.AdoptView(vB)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := c2.AdoptView(vA)
	if err != nil {
		t.Fatal(err)
	}
	if ok1 == ok2 {
		t.Errorf("tie-break not total: c1 adopted B=%v, c2 adopted A=%v", ok1, ok2)
	}
	f1, f2 := c1.CurrentView().Fingerprint(), c2.CurrentView().Fingerprint()
	if f1 != f2 {
		t.Errorf("views did not converge: %x vs %x", f1, f2)
	}
	// Re-announcing the loser never flips the winner back.
	before := c1.CurrentView().Fingerprint()
	_, _ = c1.AdoptView(vA)
	_, _ = c1.AdoptView(vB)
	if got := c1.CurrentView().Fingerprint(); got != before {
		t.Error("converged view flipped on re-announcement")
	}
	// A higher epoch always wins regardless of fingerprint.
	v6 := View{Epoch: 6, Members: two}
	if ok, _ := c1.AdoptView(v6); !ok {
		t.Error("higher epoch rejected")
	}
	// Stale and invalid views are refused.
	if ok, _ := c1.AdoptView(vA); ok {
		t.Error("stale epoch adopted")
	}
	if _, err := c1.AdoptView(View{Epoch: 7}); err == nil {
		t.Error("empty view adopted")
	}
}

// epochDoer answers /healthz with an epoch (and optional view
// fingerprint) and /cluster/view with a canned view, recording pushed
// views — the wire surface probe-driven view sync rides on.
type epochDoer struct {
	mu     sync.Mutex
	epoch  int64
	viewFp string // "" omits the field (pre-fingerprint peer)
	view   View
	gets   int
	pushed []View
}

func (d *epochDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := httptest.NewRecorder()
	switch req.URL.Path {
	case "/healthz":
		hb := map[string]any{"ok": true, "epoch": d.epoch}
		if d.viewFp != "" {
			hb["viewFp"] = d.viewFp
		}
		json.NewEncoder(rec).Encode(hb)
	case "/cluster/view":
		if req.Method == http.MethodPost {
			var v View
			if json.NewDecoder(req.Body).Decode(&v) == nil {
				d.pushed = append(d.pushed, v)
			}
			json.NewEncoder(rec).Encode(map[string]any{"adopted": true})
			break
		}
		d.gets++
		json.NewEncoder(rec).Encode(d.view)
	default:
		rec.WriteHeader(http.StatusNotFound)
	}
	return rec.Result(), nil
}

// The probe round is the anti-entropy channel: a peer answering probes
// with a higher epoch causes this node to fetch and adopt its view,
// with no membership-change request ever reaching this node directly.
// The sync runs inside the round, so the view is adopted by the time
// ProbeOnce returns.
func TestEpochSyncViaProbes(t *testing.T) {
	two := []Member{{ID: "n1", Addr: "http://n1"}, {ID: "n2", Addr: "http://n2"}}
	next := View{Epoch: 3, Members: append(append([]Member(nil), two...), Member{ID: "n3", Addr: "http://n3"})}
	doer := &epochDoer{epoch: 3, view: next}
	cl := mustCluster(t, "n1", two, doer)

	cl.ProbeOnce(context.Background())
	if cl.Epoch() != 3 {
		t.Fatalf("epoch never synced: at %d after the round, peer announced %d", cl.Epoch(), 3)
	}
	if _, ok := cl.Member("n3"); !ok {
		t.Error("synced view lost the new member")
	}
	// Probing again at the same epoch must not re-fetch the view.
	doer.mu.Lock()
	gets := doer.gets
	doer.mu.Unlock()
	cl.ProbeOnce(context.Background())
	doer.mu.Lock()
	defer doer.mu.Unlock()
	if doer.gets != gets {
		t.Errorf("view re-fetched at a level epoch (%d -> %d gets)", gets, doer.gets)
	}
}

// Equal-epoch divergence (the fleet split on concurrent changes)
// reconciles through the same probe channel: the fingerprint mismatch
// triggers a sync, the superseded side adopts, and when OUR view wins
// it is pushed back to the peer — so even a node nobody probes (a
// winning joiner the fleet dropped) propagates its view.
func TestEqualEpochDivergenceReconciles(t *testing.T) {
	two := []Member{{ID: "n1", Addr: "http://n1"}, {ID: "n2", Addr: "http://n2"}}
	mine := View{Epoch: 5, Members: append(append([]Member(nil), two...), Member{ID: "n3", Addr: "http://n3"})}
	theirs := View{Epoch: 5, Members: append(append([]Member(nil), two...), Member{ID: "n4", Addr: "http://n4"})}
	doer := &epochDoer{epoch: 5, viewFp: fmt.Sprintf("%016x", theirs.Fingerprint()), view: theirs}
	cl := mustCluster(t, "n1", two, doer)
	if ok, err := cl.AdoptView(mine); err != nil || !ok {
		t.Fatalf("adopt mine: %v %v", ok, err)
	}

	// The sync runs inside the round: by the time it returns, the winner
	// is adopted here and, when it is ours, pushed to the diverged peer.
	cl.ProbeOnce(context.Background())
	winnerFp := mine.Fingerprint()
	if theirs.supersedes(mine) {
		winnerFp = theirs.Fingerprint()
	}
	doer.mu.Lock()
	pushedBack := len(doer.pushed) > 0 && doer.pushed[len(doer.pushed)-1].Fingerprint() == winnerFp
	pushes := len(doer.pushed)
	doer.mu.Unlock()
	if cl.ViewID().Fp != winnerFp || (!theirs.supersedes(mine) && !pushedBack) {
		t.Fatalf("divergence not reconciled by the round: mine fp %x, theirs fp %x, current %x, pushed %d",
			mine.Fingerprint(), theirs.Fingerprint(), cl.ViewID().Fp, pushes)
	}
	// A peer at the same epoch AND fingerprint triggers no sync.
	doer.mu.Lock()
	doer.epoch = cl.Epoch()
	doer.viewFp = fmt.Sprintf("%016x", cl.ViewID().Fp)
	gets := doer.gets
	doer.mu.Unlock()
	cl.ProbeOnce(context.Background())
	doer.mu.Lock()
	defer doer.mu.Unlock()
	if doer.gets != gets {
		t.Errorf("agreeing peer still re-synced (%d -> %d view gets)", gets, doer.gets)
	}
}

// Members removed by an adopted view land in the departed set (and
// leave it on rejoin) — the transitional fetch/pull paths consult it
// so a drained node's records stay reachable until handoff completes.
func TestDepartedMembersTracking(t *testing.T) {
	cl := mustCluster(t, "n1", testMembers(), newFakeDoer())
	if got := cl.DepartedMembers(); len(got) != 0 {
		t.Fatalf("fresh cluster has departed members: %v", got)
	}
	if _, _, err := cl.ProposeDrain("n3"); err != nil {
		t.Fatal(err)
	}
	dep := cl.DepartedMembers()
	if len(dep) != 1 || dep[0].ID != "n3" {
		t.Fatalf("departed after drain: %v", dep)
	}
	if _, _, err := cl.ProposeJoin(Member{ID: "n3", Addr: "http://n3"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := cl.DepartedMembers(); len(got) != 0 {
		t.Errorf("rejoined member still departed: %v", got)
	}
}

// View adoption keeps health state for retained peers and drops it for
// removed ones; the full ok -> suspect -> down -> ok cycle survives a
// membership change.
func TestAdoptionKeepsRetainedPeersHealth(t *testing.T) {
	c, err := New(Config{Self: "n1", Members: testMembers(), Client: newFakeDoer(), DownAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Drive n2 to Down through the full progression.
	for i, want := range []Health{Suspect, Suspect, Down} {
		c.ReportFailure("n2")
		if got := c.Health("n2"); got != want {
			t.Fatalf("after %d failures: %v, want %v", i+1, got, want)
		}
	}
	c.ReportFailure("n3") // Suspect

	// Membership change: n3 leaves, n4 joins, n2 stays.
	if _, err := c.AdoptView(View{Epoch: 1, Members: []Member{
		{ID: "n1", Addr: "http://n1"},
		{ID: "n2", Addr: "http://n2"},
		{ID: "n4", Addr: "http://n4"},
	}}); err != nil {
		t.Fatal(err)
	}
	if got := c.Health("n2"); got != Down {
		t.Errorf("retained peer lost its Down state: %v", got)
	}
	if got := c.Health("n4"); got != Ok {
		t.Errorf("new peer not Ok: %v", got)
	}
	// n3 is gone; if it ever rejoins it starts fresh.
	if _, err := c.AdoptView(View{Epoch: 2, Members: append(testMembers(), Member{ID: "n4", Addr: "http://n4"})}); err != nil {
		t.Fatal(err)
	}
	if got := c.Health("n3"); got != Ok {
		t.Errorf("rejoined peer inherited stale state: %v", got)
	}
	// Recovery still closes the cycle for the retained peer.
	c.report("n2", true)
	if got := c.Health("n2"); got != Ok {
		t.Errorf("retained peer did not recover: %v", got)
	}
}

// The ring tracks adoption: keys move only as the minimal-movement
// property allows, and the effective replication factor follows the
// member count.
func TestAdoptionRebuildsRing(t *testing.T) {
	cl := mustCluster(t, "n1", testMembers(), newFakeDoer())
	keys := make([]string, 200)
	ownerBefore := map[string]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		ownerBefore[keys[i]] = cl.Owner(keys[i])
	}
	if _, _, err := cl.ProposeJoin(Member{ID: "n4", Addr: "http://n4"}, nil); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for _, k := range keys {
		after := cl.Owner(k)
		if after != ownerBefore[k] {
			moved++
			if after != "n4" {
				t.Errorf("key %s moved %s -> %s, not to the joining member", k, ownerBefore[k], after)
			}
		}
	}
	if moved == 0 {
		t.Error("no key moved to the joining member")
	}
	if moved > len(keys)/2 {
		t.Errorf("%d/%d keys moved on one join — far past the ~1/N share", moved, len(keys))
	}
}

// syncDoer is a peer's /cluster/view surface with a settable GET status:
// it always writes its view as the GET body (so a non-200 reply that got
// decoded anyway would show), and keeps the headers of the last push.
type syncDoer struct {
	mu        sync.Mutex
	getStatus int
	view      View
	pushes    int
	pushHdr   http.Header
}

func (d *syncDoer) Do(req *http.Request) (*http.Response, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := httptest.NewRecorder()
	if req.URL.Path != "/cluster/view" {
		rec.WriteHeader(http.StatusNotFound)
		return rec.Result(), nil
	}
	if req.Method == http.MethodPost {
		d.pushes++
		d.pushHdr = req.Header.Clone()
		json.NewEncoder(rec).Encode(ViewAck{Adopted: true, Epoch: 5})
		return rec.Result(), nil
	}
	rec.WriteHeader(d.getStatus)
	json.NewEncoder(rec).Encode(d.view)
	return rec.Result(), nil
}

// View sync is two ordinary peer calls, so it is visible where every
// other peer call is: a 5xx on the fetch feeds the health checker (and
// its body is never decoded into a View, however adoptable it looks), a
// clean sync reports success, and the push-back carries the hop marker
// and the caller's trace context.
func TestViewSyncIsAnOrdinaryPeerCall(t *testing.T) {
	two := []Member{{ID: "n1", Addr: "http://n1"}, {ID: "n2", Addr: "http://n2"}}
	ahead := View{Epoch: 9, Members: append(append([]Member(nil), two...), Member{ID: "n3", Addr: "http://n3"})}
	doer := &syncDoer{getStatus: http.StatusInternalServerError, view: ahead}
	cl := mustCluster(t, "n1", two, doer)
	if ok, err := cl.AdoptView(View{Epoch: 5, Members: two}); err != nil || !ok {
		t.Fatalf("adopt epoch 5: %v %v", ok, err)
	}

	cl.syncViewWith(context.Background(), "n2")
	if got := cl.Health("n2"); got != Suspect {
		t.Errorf("peer answering 500 to the view fetch is %v, want suspect", got)
	}
	if cl.Epoch() != 5 {
		t.Errorf("a 500 reply's body was adopted as a view: epoch %d", cl.Epoch())
	}
	if doer.pushes != 0 {
		t.Errorf("pushed our view back after a failed fetch (%d pushes)", doer.pushes)
	}

	// The peer recovers but is behind (epoch 3): the sync fetches, keeps
	// ours, pushes it back — and the success clears the suspicion.
	doer.mu.Lock()
	doer.getStatus, doer.view = http.StatusOK, View{Epoch: 3, Members: two}
	doer.mu.Unlock()
	ctx, sp := trace.NewRecorder(trace.Options{SampleEvery: 1}).StartTrace(context.Background(), "sync", "rid")
	cl.syncViewWith(ctx, "n2")
	sp.End()
	if got := cl.Health("n2"); got != Ok {
		t.Errorf("peer is %v after a clean sync, want ok", got)
	}
	if cl.Epoch() != 5 || doer.pushes != 1 {
		t.Fatalf("epoch %d, %d pushes; want our epoch 5 kept and pushed once", cl.Epoch(), doer.pushes)
	}
	if got := doer.pushHdr.Get(HeaderForwardedBy); got != "n1" {
		t.Errorf("push-back %s = %q, want n1", HeaderForwardedBy, got)
	}
	if doer.pushHdr.Get(trace.HeaderTrace) != sp.TraceID() || doer.pushHdr.Get(trace.HeaderSpan) == "" {
		t.Errorf("push-back lost the trace context: %v", doer.pushHdr)
	}
}
