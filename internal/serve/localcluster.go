package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// LocalCluster wires n Servers into an in-process ring over a
// switchboard transport: peer forwards, health probes, replication,
// view broadcasts, and anti-entropy repair all route to sibling
// handlers with zero network variance. It backs the cluster tests,
// `mistload -nodes`, and the CI cluster-smoke/elastic-smoke jobs.
// Node ids are "n1".."nN" with synthetic addresses "http://n<i>";
// joined nodes use the caller's id the same way.
type LocalCluster struct {
	mu      sync.RWMutex
	ids     []string
	servers map[string]*Server
	sb      *switchboard
	peers   cluster.Doer // what every node reaches its peers through
	opt     LocalClusterOptions
}

// LocalClusterOptions configures NewLocalCluster.
type LocalClusterOptions struct {
	// Nodes is the member count (min 1).
	Nodes int
	// Replicas is the replication factor R (default 2, capped at Nodes).
	Replicas int
	// ProbeInterval starts each node's active health prober when > 0;
	// at 0 failure detection is passive only (failed forwards), which is
	// already enough to route around a killed node.
	ProbeInterval time.Duration
	// RebalanceInterval starts each node's background anti-entropy
	// repairer when > 0; at 0 repair runs only when driven explicitly
	// (Settle), which is what deterministic tests want.
	RebalanceInterval time.Duration
	// ServerOptions are applied to every node (limits, workers, ...).
	ServerOptions []Option
}

// switchboard routes peer requests by synthetic host name to sibling
// handlers; a killed node answers every peer and probe with a transport
// error, exactly like a dead process. Each node's handler is built once
// (addNode) and is also the ingress surface LocalCluster.Handler hands
// out, so a node has one instrumented mux, not one per caller.
type switchboard struct {
	mu       sync.RWMutex
	handlers map[string]http.Handler
	dead     map[string]bool
}

func (sb *switchboard) Do(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	sb.mu.RLock()
	h, ok := sb.handlers[host]
	dead := sb.dead[host]
	sb.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("localcluster: unknown node %q", host)
	}
	if dead {
		return nil, fmt.Errorf("localcluster: node %q is down", host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// NewLocalCluster builds and wires the node set.
func NewLocalCluster(opt LocalClusterOptions) (*LocalCluster, error) {
	return newLocalCluster(opt, nil)
}

// newLocalCluster is NewLocalCluster with the nodes, joins included,
// reaching their peers through wrap(switchboard) when wrap is not nil.
func newLocalCluster(opt LocalClusterOptions, wrap func(cluster.Doer) cluster.Doer) (*LocalCluster, error) {
	if opt.Nodes < 1 {
		return nil, fmt.Errorf("localcluster: need at least one node")
	}
	lc := &LocalCluster{
		servers: map[string]*Server{},
		sb:      &switchboard{handlers: map[string]http.Handler{}, dead: map[string]bool{}},
		opt:     opt,
	}
	lc.peers = lc.sb
	if wrap != nil {
		lc.peers = wrap(lc.sb)
	}
	members := make([]cluster.Member, opt.Nodes)
	for i := range members {
		id := fmt.Sprintf("n%d", i+1)
		members[i] = cluster.Member{ID: id, Addr: "http://" + id}
		lc.ids = append(lc.ids, id)
	}
	for _, m := range members {
		if err := lc.addNode(m, members); err != nil {
			return nil, err
		}
	}
	// Probers start once every node is on the switchboard: a probe of a
	// sibling not yet added fails, and a node that saw its peer fail
	// routes that peer's keys to the next replica, itself included, so
	// both would search them.
	for _, id := range lc.ids {
		lc.start(lc.servers[id])
	}
	return lc, nil
}

// addNode builds one server (in-memory plan store) + cluster view
// (cluster.DefaultVNodes per member) and registers it on the
// switchboard.
func (lc *LocalCluster) addNode(m cluster.Member, members []cluster.Member) error {
	cl, err := cluster.New(cluster.Config{
		Self:         m.ID,
		Members:      members,
		Replicas:     lc.opt.Replicas,
		Client:       lc.peers,
		ProbeTimeout: 500 * time.Millisecond,
		DownAfter:    2,
	})
	if err != nil {
		return err
	}
	srv := New(append(append([]Option{}, lc.opt.ServerOptions...),
		WithStore(store.InMemory()), WithCluster(cl))...)
	lc.mu.Lock()
	lc.servers[m.ID] = srv
	lc.mu.Unlock()
	lc.sb.mu.Lock()
	lc.sb.handlers[m.ID] = srv.Handler()
	lc.sb.mu.Unlock()
	return nil
}

// start runs a node's prober and rebalancer per the options; without
// a RebalanceInterval no repair loop runs, not even on kicks, and
// without either interval the node's loops are left unstarted.
func (lc *LocalCluster) start(srv *Server) {
	if lc.opt.ProbeInterval <= 0 && lc.opt.RebalanceInterval <= 0 {
		return
	}
	rebalance := lc.opt.RebalanceInterval
	if rebalance <= 0 {
		rebalance = -1
	}
	srv.StartPeerLoops(lc.opt.ProbeInterval, rebalance)
}

// IDs returns the node ids in creation order (boot members first, then
// joins).
func (lc *LocalCluster) IDs() []string {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	return append([]string(nil), lc.ids...)
}

// Node returns one node's server (nil for unknown ids).
func (lc *LocalCluster) Node(id string) *Server {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	return lc.servers[id]
}

// Cluster returns one node's cluster view (nil for unknown ids).
func (lc *LocalCluster) Cluster(id string) *cluster.Cluster {
	if srv := lc.Node(id); srv != nil {
		return srv.cluster
	}
	return nil
}

// Handler returns one node's HTTP handler (nil for unknown ids) — the
// ingress surface a load generator targets, and the same handler its
// peers reach it through.
func (lc *LocalCluster) Handler(id string) http.Handler {
	lc.sb.mu.RLock()
	defer lc.sb.mu.RUnlock()
	return lc.sb.handlers[id]
}

// Kill makes a node unreachable to its peers (forwards, probes, and
// replication to it fail like a dead process) and cancels its queued
// and running jobs. Its stores and counters stay readable through the
// *Server handle for post-mortem assertions.
func (lc *LocalCluster) Kill(id string) error {
	lc.mu.RLock()
	s, ok := lc.servers[id]
	lc.mu.RUnlock()
	if !ok {
		return fmt.Errorf("localcluster: unknown node %q", id)
	}
	lc.sb.mu.Lock()
	lc.sb.dead[id] = true
	lc.sb.mu.Unlock()
	s.Close()
	return nil
}

// dead reports whether a node was killed.
func (lc *LocalCluster) deadNode(id string) bool {
	lc.sb.mu.RLock()
	defer lc.sb.mu.RUnlock()
	return lc.sb.dead[id]
}

// Join boots a fresh node (empty store, single-member view) and admits
// it into the live ring by POSTing /cluster/join through a live member
// — the in-process mirror of `mistserve -join`. The new node's handler
// is registered on the switchboard BEFORE the join is proposed, so the
// seed's view broadcast reaches it the same way it would a listening
// process. The context bounds the join proposal round-trip. Returns
// the new node's server.
func (lc *LocalCluster) Join(ctx context.Context, id string) (*Server, error) {
	if id == "" {
		return nil, fmt.Errorf("localcluster: join needs a node id")
	}
	lc.mu.RLock()
	_, exists := lc.servers[id]
	lc.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("localcluster: node %q already exists", id)
	}
	self := cluster.Member{ID: id, Addr: "http://" + id}
	if err := lc.addNode(self, []cluster.Member{self}); err != nil {
		return nil, err
	}
	lc.start(lc.Node(id))
	// From here on a failed join must tear the half-created node back
	// down (prober, rebalancer, switchboard entry), or a retry with the
	// same id would be impossible.
	fail := func(err error) (*Server, error) {
		lc.removeNode(id)
		return nil, err
	}
	seed, err := lc.liveRingMember(id)
	if err != nil {
		return fail(err)
	}
	view, err := cluster.JoinVia(ctx, lc.sb, seed.Addr, self)
	if err != nil {
		return fail(err)
	}
	// The broadcast normally already delivered the view; adopting the
	// join reply as well mirrors the live boot path, where the joiner's
	// listener may not have been up for the broadcast.
	srv := lc.Node(id)
	if _, err := srv.cluster.AdoptView(view); err != nil {
		return fail(err)
	}
	srv.KickRebalance()
	lc.mu.Lock()
	lc.ids = append(lc.ids, id)
	lc.mu.Unlock()
	return srv, nil
}

// removeNode tears down a node created by addNode that never made it
// into lc.ids (failed join): prober and server stopped, maps and
// switchboard entry cleared.
func (lc *LocalCluster) removeNode(id string) {
	lc.mu.Lock()
	srv := lc.servers[id]
	delete(lc.servers, id)
	lc.mu.Unlock()
	lc.sb.mu.Lock()
	delete(lc.sb.handlers, id)
	delete(lc.sb.dead, id)
	lc.sb.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// Drain removes a member from the ring gracefully by POSTing
// /cluster/drain through a live member. The drained node keeps
// serving (forwarding into the ring) and hands its records off on the
// next repair pass; Settle drives that deterministically. The context
// bounds the drain proposal round-trip.
func (lc *LocalCluster) Drain(ctx context.Context, id string) error {
	seed, err := lc.liveRingMember(id) // an unknown id is the seed's to refuse
	if err != nil {
		return err
	}
	_, err = cluster.DrainVia(ctx, lc.sb, seed.Addr, id)
	return err
}

// liveRingMember picks a live node that is still in its own adopted
// ring (skipping killed nodes, drained nodes, and exclude) to act on a
// membership proposal.
func (lc *LocalCluster) liveRingMember(exclude string) (cluster.Member, error) {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	for _, id := range lc.ids {
		if id == exclude || lc.deadNode(id) {
			continue
		}
		if cl := lc.servers[id].cluster; cl.InRing() {
			m, _ := cl.Member(id)
			return m, nil
		}
	}
	return cluster.Member{}, fmt.Errorf("localcluster: no live ring member available")
}

// Settle drives anti-entropy repair deterministically: `rounds` full
// sweeps of RebalanceOnce across every live node (drained nodes
// included — they are the ones handing records off). Two rounds reach
// a fixed point after any single membership change; callers use three
// for margin after compound drills.
func (lc *LocalCluster) Settle(ctx context.Context, rounds int) error {
	if rounds < 1 {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		for _, id := range lc.IDs() {
			if lc.deadNode(id) {
				continue
			}
			if _, err := lc.Node(id).RebalanceOnce(ctx); err != nil {
				return fmt.Errorf("localcluster: settle round %d on %s: %w", r, id, err)
			}
		}
	}
	return nil
}

// ReplicationAudit is the post-drill invariant check of the elastic
// tier (see AuditReplication).
type ReplicationAudit struct {
	// Epoch and Members describe the converged view the audit ran
	// against; Live are the view members that answer (not killed).
	Epoch   int64    `json:"epoch"`
	Members []string `json:"members"`
	Live    []string `json:"live"`
	// Replicas is the effective R every fingerprint must be held at.
	Replicas int `json:"replicas"`
	// Fingerprints is the distinct-fingerprint count across live
	// stores; SearchesRun sums TunesRun over every server ever booted.
	Fingerprints int    `json:"fingerprints"`
	SearchesRun  uint64 `json:"searchesRun"`
	// Violations lists broken invariants (replica counts, drained
	// handoff, single-flight) — empty on a clean drill.
	Violations []string `json:"violations,omitempty"`
}

// AuditReplication checks the elastic invariants after a drill has
// settled:
//
//  1. every fingerprint is held by exactly min(R, live members) live
//     ring members (no under- OR over-replication);
//  2. every stored record is Version==1 and the fleet-wide search count
//     equals the distinct-fingerprint count — i.e. no join/drain/kill
//     ever caused a re-search;
//  3. live nodes outside the ring (drained) hold nothing — their
//     handoff completed.
//
// The reference view comes from any live in-ring node (they have
// converged once broadcasts and probes settle). Only the error return
// signals an unusable audit (no live member); invariant breaches are
// reported in Violations.
func (lc *LocalCluster) AuditReplication() (*ReplicationAudit, error) {
	seed, err := lc.liveRingMember("")
	if err != nil {
		return nil, err
	}
	refCl := lc.Cluster(seed.ID)
	view := refCl.CurrentView()
	audit := &ReplicationAudit{Epoch: view.Epoch, Replicas: refCl.ReplicationFactor()}

	inView := map[string]bool{}
	for _, m := range view.Members {
		audit.Members = append(audit.Members, m.ID)
		inView[m.ID] = true
		if !lc.deadNode(m.ID) {
			audit.Live = append(audit.Live, m.ID)
		}
	}
	want := audit.Replicas
	if want > len(audit.Live) {
		want = len(audit.Live)
	}

	counts := map[string]int{}
	for _, id := range audit.Live {
		for _, rec := range lc.Node(id).Store().Records() {
			key := rec.Fingerprint.Key()
			counts[key]++
			if rec.Version != 1 {
				audit.Violations = append(audit.Violations, fmt.Sprintf(
					"node %s holds %s at version %d (tuned more than once fleet-wide)", id, key, rec.Version))
			}
		}
	}
	audit.Fingerprints = len(counts)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] != want {
			audit.Violations = append(audit.Violations, fmt.Sprintf(
				"fingerprint %s held by %d live replicas, want exactly %d", k, counts[k], want))
		}
	}

	// Drained-but-alive nodes must have handed everything off; every
	// booted server's searches count toward the single-flight total.
	for _, id := range lc.IDs() {
		srv := lc.Node(id)
		audit.SearchesRun += srv.Stats().TunesRun
		if !inView[id] && !lc.deadNode(id) {
			if n := srv.Store().Len(); n > 0 {
				audit.Violations = append(audit.Violations, fmt.Sprintf(
					"drained node %s still holds %d records after settle", id, n))
			}
		}
	}
	if audit.SearchesRun != uint64(audit.Fingerprints) {
		audit.Violations = append(audit.Violations, fmt.Sprintf(
			"fleet ran %d searches for %d distinct fingerprints (single-flight broken)",
			audit.SearchesRun, audit.Fingerprints))
	}
	return audit, nil
}

// Close stops every node's prober, rebalancer, and job workers.
func (lc *LocalCluster) Close() {
	lc.mu.RLock()
	defer lc.mu.RUnlock()
	for _, s := range lc.servers {
		s.Close()
	}
}
