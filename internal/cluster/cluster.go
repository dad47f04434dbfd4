package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Wire headers of the cluster tier.
const (
	// HeaderRequestID carries the request identity assigned at ingress;
	// it is propagated through forwarded hops, into job records, and
	// into log lines.
	HeaderRequestID = "X-Mist-Request-Id"
	// HeaderForwardedBy marks a request already forwarded once (value:
	// the forwarding node's id). A node receiving it always serves
	// locally — forwarding is at most one hop, so routing disagreements
	// can never loop.
	HeaderForwardedBy = "X-Mist-Forwarded-By"
	// HeaderServedBy names the node that actually answered, so clients
	// and tests can observe routing.
	HeaderServedBy = "X-Mist-Served-By"
)

// Member is one node of the membership: a stable id plus the base URL
// peers reach it at.
type Member struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Config assembles a Cluster.
type Config struct {
	// Self is this node's id; it must appear in Members.
	Self string
	// Members is the boot membership, self included. A node joining an
	// existing cluster boots with just itself and adopts the live view
	// (AdoptView / JoinVia); a statically configured fleet boots with
	// the full list at epoch 0.
	Members []Member
	// Replicas is the target replication factor R: each fingerprint
	// gets an owner plus R−1 replicas (default 2, effectively capped at
	// the current member count).
	Replicas int
	// Client executes forwarded requests and probes (default: an
	// http.Client with a 2-minute timeout, matching a long search).
	Client Doer
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive-failure threshold for Down
	// (default 3).
	DownAfter int
}

// Cluster is one node's view of the sharded tier: the epoch-versioned
// membership view, the ring built from it, each peer's health, and the
// forwarding client. Safe for concurrent use; the view (and with it
// the ring and member table) is swapped atomically on adoption.
type Cluster struct {
	self      string
	rfTarget  int
	client    Doer
	timeout   time.Duration // one probe's budget
	downAfter int
	events    *EventLog

	// propose serializes this node's membership proposals: a join
	// mints, announces and adopts its view under it, with vmu free.
	propose sync.Mutex

	vmu          sync.RWMutex
	view         View
	viewFp       uint64
	members      map[string]Member
	ring         *Ring
	departed     map[string]Member // ex-members of superseded views, until they rejoin
	onViewChange func(View)

	// hmu guards fails alone, not the view: the health report every peer
	// request makes never waits on an adoption.
	hmu   sync.Mutex
	fails map[string]int // consecutive failures by peer id

	syncing atomic.Bool // one view sync at a time (observePeerEpoch)
}

// New validates the boot membership and builds the node's cluster view
// at epoch 0.
func New(cfg Config) (*Cluster, error) {
	boot := View{Epoch: 0, Members: cfg.Members}
	if err := boot.Validate(); err != nil {
		return nil, err
	}
	if !boot.member(cfg.Self) {
		return nil, fmt.Errorf("cluster: self %q not in member list", cfg.Self)
	}
	rf := cfg.Replicas
	if rf < 1 {
		rf = 2
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Minute}
	}
	timeout := cfg.ProbeTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	downAfter := cfg.DownAfter
	if downAfter < 1 {
		downAfter = 3
	}
	c := &Cluster{
		self:      cfg.Self,
		rfTarget:  rf,
		client:    client,
		timeout:   timeout,
		downAfter: downAfter,
		events:    NewEventLog(cfg.Self),
		departed:  map[string]Member{},
		fails:     map[string]int{},
	}
	// The boot view goes in the way every later one does: ring and
	// member table in one step.
	if err := c.adoptLocked(boot); err != nil {
		return nil, err
	}
	return c, nil
}

// Self returns this node's id.
func (c *Cluster) Self() string { return c.self }

// ReplicationFactor returns the effective R under the current view:
// the configured target, capped at the member count.
func (c *Cluster) ReplicationFactor() int {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	if c.rfTarget > len(c.members) {
		return len(c.members)
	}
	return c.rfTarget
}

// Ring exposes the current consistent-hash ring (for topology
// reporting). The returned ring is immutable; a membership change
// installs a fresh one.
func (c *Cluster) Ring() *Ring {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return c.ring
}

// CurrentView returns a copy of the membership view this node has
// adopted.
func (c *Cluster) CurrentView() View {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return c.view.Clone()
}

// Epoch returns the adopted view's epoch.
func (c *Cluster) Epoch() int64 {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return c.view.Epoch
}

// RingID identifies one concrete ring: the view epoch plus the
// membership fingerprint. Repair bookkeeping and probe replies carry
// the pair, not the epoch alone — equal-epoch view divergence (the
// fingerprint tie-break case) means two different rings can share an
// epoch number, and a memo recorded under the losing ring must not
// suppress repair under the winning one.
type RingID struct {
	Epoch int64
	Fp    uint64
}

// ViewID returns the adopted view's identity in one consistent read.
func (c *Cluster) ViewID() RingID {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return RingID{c.view.Epoch, c.viewFp}
}

// DepartedMembers lists ex-members of superseded views (drained or
// replaced nodes that have not rejoined). The repair and record-fetch
// paths still consult them during a membership transition: a key whose
// previous replicas all left the ring is otherwise unreachable until
// their handoff completes.
func (c *Cluster) DepartedMembers() []Member {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	out := make([]Member, 0, len(c.departed))
	for _, m := range c.departed {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// InRing reports whether this node is a member of its own adopted view
// — false after the node has been drained (it keeps serving, but only
// by forwarding into the ring it left).
func (c *Cluster) InRing() bool {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	_, ok := c.members[c.self]
	return ok
}

// Members returns the current membership sorted by id.
func (c *Cluster) Members() []Member {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	return append([]Member(nil), c.view.Members...)
}

// Member looks up one current member by id.
func (c *Cluster) Member(id string) (Member, bool) {
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	m, ok := c.members[id]
	return m, ok
}

// Events returns retained timeline events with Seq > since, oldest
// first — the GET /cluster/events surface.
func (c *Cluster) Events(since int64) []Event { return c.events.Events(since) }

// RecordEvent appends an event to this node's cluster timeline under
// the current epoch — the serving layer's hook for rebalance pass
// events, which happen above this package.
func (c *Cluster) RecordEvent(typ, member, detail string) {
	c.events.Append(typ, member, c.Epoch(), detail)
}

// SetOnViewChange installs a hook fired (outside all cluster locks)
// after every adopted membership change — the serving layer hangs its
// rebalancer kick here. Install before any traffic; one hook at a time.
func (c *Cluster) SetOnViewChange(fn func(View)) {
	c.vmu.Lock()
	c.onViewChange = fn
	c.vmu.Unlock()
}

// adoptLocked installs a validated view: ring, member table, departed
// set, and the health counts it keeps. Caller holds vmu.
func (c *Cluster) adoptLocked(v View) error {
	v = v.Clone()
	ids := make([]string, 0, len(v.Members))
	members := make(map[string]Member, len(v.Members))
	for _, m := range v.Members {
		ids = append(ids, m.ID)
		members[m.ID] = m
	}
	ring, err := NewRing(ids, DefaultVNodes)
	if err != nil {
		return err
	}
	// Members leaving this view join the departed set; rejoining ones
	// leave it. The set only ever holds real ex-members, so it stays
	// small (drains are rare events).
	for id, m := range c.members {
		if _, keep := members[id]; !keep {
			c.departed[id] = m
		}
	}
	for id := range c.departed {
		if _, back := members[id]; back {
			delete(c.departed, id)
		}
	}
	c.view = v
	c.viewFp = v.Fingerprint()
	c.members = members
	c.ring = ring
	// Health carries over for retained peers — a Down node that stays in
	// the ring stays Down — and is dropped for removed ones, so a
	// drained-then-rejoining node starts fresh.
	c.hmu.Lock()
	for id := range c.fails {
		if _, keep := members[id]; !keep {
			delete(c.fails, id)
		}
	}
	c.hmu.Unlock()
	return nil
}

// installAndUnlock adopts nv, releases vmu (which the caller holds),
// and publishes the change: one epoch-adopted event naming what caused
// it, then the view-change hook. It returns the adopted view.
func (c *Cluster) installAndUnlock(nv View, member, cause string) (View, error) {
	if err := c.adoptLocked(nv); err != nil {
		c.vmu.Unlock()
		return View{}, err
	}
	adopted, onChange := c.view.Clone(), c.onViewChange
	c.vmu.Unlock()
	c.events.Append(EventEpochAdopted, member, adopted.Epoch,
		fmt.Sprintf("%s, %d members", cause, len(adopted.Members)))
	if onChange != nil {
		onChange(adopted)
	}
	return adopted, nil
}

// AdoptView installs a peer-announced view when it supersedes the
// current one (higher epoch; at equal epochs the greater membership
// fingerprint wins, so conflicting announcements converge fleet-wide).
// Returns whether the view was adopted. Adopting a view that excludes
// self is legal: that is how a node learns it has been drained.
func (c *Cluster) AdoptView(v View) (bool, error) {
	if err := v.Validate(); err != nil {
		return false, err
	}
	c.vmu.Lock()
	if !v.supersedes(c.view) {
		c.vmu.Unlock()
		return false, nil
	}
	_, err := c.installAndUnlock(v, "", "announced view")
	return err == nil, err
}

// ProposeJoin mints the view that adds a member at Epoch+1, hands it to
// announce (nil for none), then adopts it locally and returns it for
// broadcast. The join path announces it to the joiner there, so the
// joiner holds the new ring before this node forwards it a key under
// that ring. Re-joining with an identical (id, addr) is idempotent —
// the current view is returned unchanged (changed=false) so a restarted
// node can re-announce safely; the same id at a different address is
// refused, and so is a join a superseding announced view overtook.
func (c *Cluster) ProposeJoin(m Member, announce func(View)) (View, bool, error) {
	if m.ID == "" || m.Addr == "" {
		return View{}, false, fmt.Errorf("cluster: join needs both an id and an address")
	}
	c.propose.Lock()
	defer c.propose.Unlock()
	c.vmu.RLock()
	cur := c.view.Clone()
	ex, ok := c.members[m.ID]
	c.vmu.RUnlock()
	if ok {
		if ex.Addr == m.Addr {
			return cur, false, nil
		}
		return View{}, false, fmt.Errorf("cluster: member %q already present at %s (join asked for %s)",
			m.ID, ex.Addr, m.Addr)
	}
	nv := View{Epoch: cur.Epoch + 1, Members: append(cur.Members, m)}
	if announce != nil {
		announce(nv)
	}
	c.vmu.Lock()
	if !nv.supersedes(c.view) {
		epoch := c.view.Epoch
		c.vmu.Unlock()
		return View{}, false, fmt.Errorf("cluster: join of %q overtaken by view %d", m.ID, epoch)
	}
	v, err := c.installAndUnlock(nv, m.ID, "join")
	return v, err == nil, err
}

// ProposeDrain mints and locally adopts the view that removes a member
// at Epoch+1, returning it for broadcast together with the member it
// removed (the broadcast must include the drained node, so it learns to
// hand off and forward). Draining the last member is refused; draining
// an unknown member is an error.
func (c *Cluster) ProposeDrain(id string) (View, Member, error) {
	c.propose.Lock()
	defer c.propose.Unlock()
	c.vmu.Lock()
	gone, ok := c.members[id]
	if !ok || len(c.members) == 1 {
		c.vmu.Unlock()
		if !ok {
			return View{}, Member{}, fmt.Errorf("cluster: cannot drain unknown member %q", id)
		}
		return View{}, Member{}, fmt.Errorf("cluster: refusing to drain the last member %q", id)
	}
	nv := View{Epoch: c.view.Epoch + 1}
	for _, m := range c.view.Members {
		if m.ID != id {
			nv.Members = append(nv.Members, m)
		}
	}
	v, err := c.installAndUnlock(nv, id, "drain")
	return v, gone, err
}

// Owner returns the ring owner of a key, health ignored.
func (c *Cluster) Owner(key string) string { return c.Ring().Owner(key) }

// Replicas returns the key's full replica set under the current view
// (owner first), health ignored — the set a completed plan is
// replicated to and the rebalancer repairs toward.
func (c *Cluster) Replicas(key string) []Member {
	var buf [4]string
	c.vmu.RLock()
	defer c.vmu.RUnlock()
	ids := c.ring.appendReplicas(buf[:0], key, c.rfTarget) // the ring caps R at its member count
	out := make([]Member, len(ids))
	for i, id := range ids {
		out[i] = c.members[id]
	}
	return out
}

// ReplicaTargets splits the key's replica set once: the peers a locally
// held record must be written through to, and whether this node is
// itself one of the replicas.
func (c *Cluster) ReplicaTargets(key string) (others []Member, selfIn bool) {
	reps := c.Replicas(key)
	others = c.Others(reps)
	return others, len(others) < len(reps)
}

// Others is the one fan-out list: the given member lists flattened,
// self removed, duplicates dropped, first-seen order kept. Down peers
// stay in — each fan-out counts them differently (skipped-down,
// SkippedDown, an incomplete pull), so that stays at the call site.
func (c *Cluster) Others(lists ...[]Member) []Member {
	var out []Member
	for _, list := range lists {
	next:
		for _, m := range list {
			if m.ID == c.self {
				continue
			}
			for _, have := range out {
				if have.ID == m.ID {
					continue next
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// Route is the key's replica set in ring order, owner first, minus the
// members this node has seen Down. A Suspect member keeps its place, so
// the serving order depends only on the view, the key and the Down set.
// The serving layer walks the list: a candidate equal to self means
// "serve locally"; otherwise it forwards, advancing on failure. An empty
// list (every replica down, self not among them) means serve locally as
// a last resort: availability over strict single-flight. On a drained
// node self never appears, so everything forwards into the ring it left.
func (c *Cluster) Route(key string) []Member {
	reps := c.Replicas(key)
	live := reps[:0]
	for _, m := range reps {
		if c.Health(m.ID) != Down {
			live = append(live, m)
		}
	}
	return live
}

// Forward is the one member-to-member request: every relay, peer call
// and probe leaves this node through it, and the raw response comes
// back (the relay copies it to its client verbatim). The body is
// replayed from bytes, request id and content type are propagated, the
// sender's trace context is injected (the receiver's root span joins
// the sender's trace under its active span), and HeaderForwardedBy pins
// the hop count to one. The outcome is the passive health signal, so a
// dead peer is noticed at the first failed request: a transport error
// or a 5xx (live but unwell — still returned, for the caller to relay
// or retry) counts as a failure, anything else as a success.
func (c *Cluster) Forward(ctx context.Context, m Member, method, path, requestID, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, m.Addr+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if requestID != "" {
		req.Header.Set(HeaderRequestID, requestID)
	}
	trace.Inject(ctx, req.Header)
	req.Header.Set(HeaderForwardedBy, c.self)
	resp, err := c.client.Do(req)
	c.report(m.ID, err == nil && resp.StatusCode < http.StatusInternalServerError)
	return resp, err
}

// maxPeerReply caps every peer reply DecodeReply reads: room for the
// largest, a GET /cluster/records listing (a record is a few KiB, so
// tens of thousands of plans), and a bound on what a misbehaving peer
// can make this node buffer.
const maxPeerReply = 64 << 20

// ErrorReply is the body of every non-2xx answer of the service.
type ErrorReply struct {
	Error string `json:"error"`
}

// StatusError is a peer's non-200 answer: its status code and the error
// text of its envelope, so a caller can relay both (a peer's 429 stays
// a 429) or match one (404 on a record fetch is a miss, not a failure).
type StatusError struct {
	Peer   string
	Status int
	Msg    string
}

func (e *StatusError) Error() string { return e.Msg }

// DecodeReply consumes and closes one peer reply. The status is judged
// first: any answer but 200 becomes a *StatusError and is never decoded
// into out.
func DecodeReply(peer string, resp *http.Response, out any) error {
	defer resp.Body.Close()
	dec := json.NewDecoder(io.LimitReader(resp.Body, maxPeerReply))
	if resp.StatusCode != http.StatusOK {
		var env ErrorReply
		if dec.Decode(&env) != nil || env.Error == "" {
			env.Error = fmt.Sprintf("peer %s answered %d", peer, resp.StatusCode)
		}
		return &StatusError{Peer: peer, Status: resp.StatusCode, Msg: env.Error}
	}
	if err := dec.Decode(out); err != nil {
		return fmt.Errorf("decoding peer %s reply: %w", peer, err)
	}
	return nil
}

// Call is the one JSON peer call: a request over Forward (so it feeds
// peer health and carries the hop marker and trace context),
// bounded by budget, its reply consumed by DecodeReply. Budget 0 adds no
// deadline: the caller's context carries one for the whole round.
func (c *Cluster) Call(ctx context.Context, budget time.Duration, m Member, method, path, requestID string, body []byte, out any) error {
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	contentType := ""
	if body != nil {
		contentType = "application/json"
	}
	resp, err := c.Forward(ctx, m, method, path, requestID, contentType, body)
	if err != nil {
		return err
	}
	return DecodeReply(m.ID, resp, out)
}

// ParsePeers parses the -peers wire format: comma-separated id=addr
// pairs, e.g. "n1=http://10.0.0.1:8080,n2=http://10.0.0.2:8080".
// Duplicate ids are refused here (not just at cluster construction) so
// a mistyped flag fails with the offending pair named.
func ParsePeers(s string) ([]Member, error) {
	var out []Member
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=addr)", part)
		}
		if seen[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q", id)
		}
		seen[id] = true
		out = append(out, Member{ID: id, Addr: strings.TrimRight(addr, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
