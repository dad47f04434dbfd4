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
	"repro/internal/pilot"
)

// pilotTestConfig is a fast policy for virtual-clock drills: scale-up
// after 2 saturated ticks (or instantly on a page), scale-down after 3
// all-clear ticks, heal after 2 unhealthy ticks, 3s cooldowns.
func pilotTestConfig() pilot.Config {
	return pilot.Config{
		IntervalMs:          1000,
		SaturationQueue:     1 << 20, // queue signal effectively off; drills drive the SLO signal
		Saturation429:       0.5,
		SaturationEvals:     2,
		HealthyEvals:        3,
		UnhealthyEvals:      2,
		CooldownS:           3,
		MaxActionsPerWindow: 10,
		WindowS:             60,
		MinNodes:            2,
	}
}

// newPilotCluster boots nodes + warm standbys with the SLO engine and
// pilot both on the shared virtual clock and both hand-cranked.
func newPilotCluster(t *testing.T, nodes, standbys int, mutate func(*pilot.Config)) (*LocalCluster, *clock.Fake) {
	t.Helper()
	cfg := pilotTestConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	clock := newFakeClock()
	lc, err := NewLocalCluster(LocalClusterOptions{
		Nodes:    nodes,
		Replicas: 2,
		Standbys: standbys,
		ServerOptions: []Option{
			WithSLO(sloTestConfig()),
			WithPilot(cfg),
			WithClock(clock),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return lc, clock
}

// pilotTickAll advances virtual time one interval, ticks every SLO
// engine, then every pilot — mirroring the live cadence where signal
// evaluation precedes the controller's read of it. Every node ticks its
// pilot; the leadership gate keeps all but one inert, exactly as in a
// real fleet where each process runs the same loop.
func pilotTickAll(lc *LocalCluster, clock *clock.Fake) {
	clock.Advance(time.Second)
	for _, id := range lc.IDs() {
		lc.Node(id).SLOTick()
	}
	for _, id := range lc.IDs() {
		lc.Node(id).PilotTick(context.Background())
	}
}

// countEvents tallies timeline events of one type, optionally filtered
// by a substring of the detail.
func countEvents(cl *cluster.Cluster, typ, detailSub string) int {
	n := 0
	for _, ev := range cl.Events(0) {
		if ev.Type == typ && (detailSub == "" || strings.Contains(ev.Detail, detailSub)) {
			n++
		}
	}
	return n
}

// TestPilotFlashCrowdScalesOutAndBack is the pilot-smoke drill: a
// fast-burn page (the signature of a flash crowd overwhelming the
// fleet) makes the pilot scale from N to N+k using every warm standby,
// respecting the cooldown between joins; once the storm passes and the
// fleet holds fully healthy, it drains the borrowed nodes back to the
// pool. The serving surface stays up throughout and the replication
// audit comes back clean.
func TestPilotFlashCrowdScalesOutAndBack(t *testing.T) {
	lc, clock := newPilotCluster(t, 3, 2, nil)
	leader := lc.Node("n1")

	// Baseline: healthy traffic, no decisions.
	for i := 0; i < 3; i++ {
		for _, id := range []string{"n1", "n2", "n3"} {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		pilotTickAll(lc, clock)
	}
	if got := len(lc.Cluster("n1").Members()); got != 3 {
		t.Fatalf("baseline fleet mutated: %d members", got)
	}

	// Flash crowd: the leader's availability objective starts burning.
	// First scale-up fires as soon as the page lands (no streak wait);
	// the second must wait out the 3s cooldown.
	firstUp, secondUp := -1, -1
	for i := 1; i <= 12 && secondUp < 0; i++ {
		feedNode(leader, "/tune", "500", 50, 5*time.Millisecond)
		for _, id := range []string{"n2", "n3"} {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		pilotTickAll(lc, clock)
		switch n := countEvents(lc.Cluster("n1"), cluster.EventPilotScaleUp, ""); {
		case n >= 2:
			secondUp = i
		case n == 1 && firstUp < 0:
			firstUp = i
		}
		// The control surface answers throughout the storm.
		if code := getJSON(t, leader.Handler(), "/pilot", nil); code != http.StatusOK {
			t.Fatalf("GET /pilot mid-storm: %d", code)
		}
	}
	if firstUp < 0 || secondUp < 0 {
		t.Fatalf("scale-ups: first at tick %d, second at %d; events: %+v",
			firstUp, secondUp, lc.Cluster("n1").Events(0))
	}
	if secondUp-firstUp < 3 {
		t.Errorf("second scale-up after %d ticks, cooldown is 3s", secondUp-firstUp)
	}
	t.Logf("scaled 3 -> 5: joins at ticks %d and %d", firstUp, secondUp)

	// The whole fleet — standbys included — converged on one 5-member
	// view, and the pool is exhausted.
	refEpoch := lc.Cluster("n1").Epoch()
	for _, id := range lc.IDs() {
		cl := lc.Cluster(id)
		if len(cl.Members()) != 5 || cl.Epoch() != refEpoch {
			t.Errorf("node %s: %d members at epoch %d, want 5 at %d",
				id, len(cl.Members()), cl.Epoch(), refEpoch)
		}
	}
	if avail := lc.Cluster("n1").AvailableStandbys(); len(avail) != 0 {
		t.Errorf("pool not exhausted after full scale-out: %d available", len(avail))
	}
	var st pilotHTTPStatus
	if code := getJSON(t, leader.Handler(), "/pilot", &st); code != http.StatusOK {
		t.Fatalf("GET /pilot: %d", code)
	}
	if !st.Leader || st.ScaleUps != 2 || st.StandbysAvailable != 0 || st.StandbysConfigured != 2 {
		t.Errorf("leader /pilot after scale-out: %+v", st)
	}

	// Storm over: clean traffic. The page must resolve, then the
	// healthy streak drains both standbys back (cooldown-spaced).
	returned := -1
	for i := 1; i <= 30 && returned < 0; i++ {
		for _, id := range lc.IDs() {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		pilotTickAll(lc, clock)
		if len(lc.Cluster("n1").Members()) == 3 && len(lc.Cluster("n1").AvailableStandbys()) == 2 {
			returned = i
		}
	}
	if returned < 0 {
		t.Fatalf("fleet never returned to 3 members; events: %+v", lc.Cluster("n1").Events(0))
	}
	t.Logf("scaled 5 -> 3 by tick %d after recovery", returned)
	if n := countEvents(lc.Cluster("n1"), cluster.EventPilotDrain, string(pilot.ScaleDown)); n != 2 {
		t.Errorf("%d scale-down drains on the timeline, want 2", n)
	}

	// Counters ride /metrics.
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	leader.Handler().ServeHTTP(rec, req)
	for _, want := range []string{
		"mist_pilot_scale_ups_total 2",
		"mist_pilot_scale_downs_total 2",
		"mist_pilot_leader 1",
		"mist_pilot_standbys_available 2",
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Elastic invariants hold after the round trip.
	if err := lc.Settle(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	audit, err := lc.AuditReplication()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range audit.AllViolations() {
		t.Errorf("audit violation: %s", v)
	}
}

// TestPilotKillDrillAutoHeals pins self-healing end to end with real
// records: a node dies, peers' probes mark it down, the pilot
// auto-drains the corpse, and repair restores every fingerprint to
// exactly R live replicas — all at Version 1, with zero re-searches.
func TestPilotKillDrillAutoHeals(t *testing.T) {
	lc, clock := newPilotCluster(t, 3, 0, nil)
	specs := []WorkloadSpec{
		{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: 512, Space: "deepspeed"},
		{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: 640, Space: "deepspeed"},
		{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: 768, Space: "deepspeed"},
		{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: 896, Space: "deepspeed"},
	}
	for _, sp := range specs {
		var resp TuneResponse
		req := TuneRequest{WorkloadSpec: sp}
		rec := do2(t, lc.Handler("n1"), http.MethodPost, "/tune", req, &resp)
		if rec.Code != http.StatusOK {
			t.Fatalf("seeding tune: %d %s", rec.Code, rec.Body.String())
		}
	}

	if err := lc.Kill("n3"); err != nil {
		t.Fatal(err)
	}
	// Each tick: survivors probe (the live cadence), then the pilots
	// run. Down lands after 2 failed probes; the heal streak (2) drains
	// the corpse two ticks later.
	healed := -1
	for i := 1; i <= 8 && healed < 0; i++ {
		for _, id := range []string{"n1", "n2"} {
			lc.Cluster(id).Checker().ProbeOnce(context.Background())
		}
		pilotTickAll(lc, clock)
		if countEvents(lc.Cluster("n1"), cluster.EventPilotDrain, string(pilot.HealDrain)) > 0 {
			healed = i
		}
	}
	if healed < 0 {
		t.Fatalf("pilot never auto-drained the corpse; events: %+v", lc.Cluster("n1").Events(0))
	}
	t.Logf("auto-drain landed %d ticks after the kill", healed)
	for _, id := range []string{"n1", "n2"} {
		if got := len(lc.Cluster(id).Members()); got != 2 {
			t.Errorf("node %s sees %d members after heal, want 2", id, got)
		}
	}

	// Repair restores exactly-R among survivors; nothing was re-searched.
	if err := lc.Settle(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	audit, err := lc.AuditReplication()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range audit.AllViolations() {
		t.Errorf("audit violation: %s", v)
	}
	if audit.Fingerprints != len(specs) {
		t.Errorf("audit saw %d fingerprints, want %d (records lost with the corpse?)",
			audit.Fingerprints, len(specs))
	}
}

// TestPilotMinNodesFloor pins the membership floor: with the fleet at
// MinNodes, a heal-drain is vetoed (and the veto lands on the
// timeline), never executed.
func TestPilotMinNodesFloor(t *testing.T) {
	lc, clock := newPilotCluster(t, 2, 0, func(c *pilot.Config) { c.MinNodes = 2 })
	if err := lc.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		lc.Cluster("n1").Checker().ProbeOnce(context.Background())
		pilotTickAll(lc, clock)
	}
	if n := countEvents(lc.Cluster("n1"), cluster.EventPilotDrain, ""); n != 0 {
		t.Errorf("pilot drained below the floor: %d drain events", n)
	}
	if n := countEvents(lc.Cluster("n1"), cluster.EventPilotVeto, "min-nodes"); n == 0 {
		t.Error("no min-nodes veto on the timeline")
	}
	if got := len(lc.Cluster("n1").Members()); got != 2 {
		t.Errorf("fleet shrank below the floor: %d members", got)
	}
}

// TestPilotDryRun pins rehearsal mode: decisions land on the timeline
// tagged DRY-RUN and in the counters, but the membership never changes
// and the standby stays parked.
func TestPilotDryRun(t *testing.T) {
	lc, clock := newPilotCluster(t, 2, 1, func(c *pilot.Config) { c.DryRun = true })
	for i := 0; i < 4; i++ {
		feedNode(lc.Node("n1"), "/tune", "500", 50, 5*time.Millisecond)
		pilotTickAll(lc, clock)
	}
	if n := countEvents(lc.Cluster("n1"), cluster.EventPilotScaleUp, "DRY-RUN"); n == 0 {
		t.Fatalf("no DRY-RUN scale-up recorded; events: %+v", lc.Cluster("n1").Events(0))
	}
	if got := len(lc.Cluster("n1").Members()); got != 2 {
		t.Errorf("dry-run mutated membership: %d members", got)
	}
	if avail := lc.Cluster("n1").AvailableStandbys(); len(avail) != 1 {
		t.Errorf("dry-run consumed the standby pool: %d available", len(avail))
	}
	var st pilotHTTPStatus
	getJSON(t, lc.Handler("n1"), "/pilot", &st)
	if !st.DryRun || st.ScaleUps == 0 {
		t.Errorf("dry-run /pilot: %+v", st)
	}
	rec := httptest.NewRecorder()
	lc.Handler("n1").ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "mist_pilot_dry_run 1") {
		t.Error("/metrics missing mist_pilot_dry_run 1")
	}
}

// TestPilotLeadershipFailover pins the single-actor rule: only the
// lowest live id acts, followers' ticks are inert, and killing the
// leader promotes the next node automatically.
func TestPilotLeadershipFailover(t *testing.T) {
	lc, clock := newPilotCluster(t, 3, 1, nil)
	if !lc.Node("n1").PilotLeader() {
		t.Fatal("n1 is not leader at boot")
	}
	for _, id := range []string{"n2", "n3", "s1"} {
		if lc.Node(id).PilotLeader() {
			t.Errorf("%s claims leadership alongside n1", id)
		}
	}
	// A paging follower must not act: n2 pages, but n1 (leader) is
	// healthy and n2's tick is gated off.
	for i := 0; i < 4; i++ {
		feedNode(lc.Node("n2"), "/tune", "500", 50, 5*time.Millisecond)
		clock.Advance(time.Second)
		for _, id := range lc.IDs() {
			lc.Node(id).SLOTick()
		}
		lc.Node("n2").PilotTick(context.Background())
	}
	if n := countEvents(lc.Cluster("n2"), cluster.EventPilotScaleUp, ""); n != 0 {
		t.Errorf("follower actuated %d scale-ups", n)
	}

	// Kill the leader: once probes mark it down, n2 takes over.
	if err := lc.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		lc.Cluster("n2").Checker().ProbeOnce(context.Background())
	}
	if !lc.Node("n2").PilotLeader() {
		t.Fatal("n2 did not take over after the leader died")
	}
	if lc.Node("n3").PilotLeader() {
		t.Error("n3 claims leadership while n2 is alive")
	}
}

// TestClusterHealthDuringStandbyJoin hammers GET /cluster/health while
// a warm standby is admitted mid-drill: every reply is well-formed
// (200, node count from before or after the join), nothing panics, and
// the joiner shows up once the view settles. Run under -race this pins
// the fleet-fold path against membership mutation.
func TestClusterHealthDuringStandbyJoin(t *testing.T) {
	lc, clock := newPilotCluster(t, 3, 1, nil)
	for i := 0; i < 2; i++ {
		for _, id := range []string{"n1", "n2", "n3"} {
			feedNode(lc.Node(id), "/tune", "200", 20, 5*time.Millisecond)
		}
		pilotTickAll(lc, clock)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				req := httptest.NewRequest(http.MethodGet, "/cluster/health", nil)
				rec := httptest.NewRecorder()
				lc.Handler("n1").ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET /cluster/health during join: %d %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	// Drive a page so the pilot admits the standby while the health
	// fan-outs are in flight.
	for i := 0; i < 6 && len(lc.Cluster("n1").Members()) < 4; i++ {
		feedNode(lc.Node("n1"), "/tune", "500", 50, 5*time.Millisecond)
		pilotTickAll(lc, clock)
	}
	close(stop)
	wg.Wait()
	if got := len(lc.Cluster("n1").Members()); got != 4 {
		t.Fatalf("standby never joined: %d members", got)
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
