package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// View is one immutable generation of the cluster membership: a
// monotonically increasing epoch plus the member set at that epoch.
// Membership changes (join, drain) mint a new view with Epoch+1; peers
// adopt whichever view supersedes their own, so the fleet converges on
// one ring without a coordination service. Members are kept sorted by
// id so a view has exactly one wire form.
type View struct {
	Epoch   int64    `json:"epoch"`
	Members []Member `json:"members"`
}

// Validate checks the structural invariants every adoptable view must
// satisfy: at least one member, no empty or duplicate ids, no missing
// addresses. Note that a view need NOT contain the adopting node — a
// drained node legitimately adopts the view that excludes it (it keeps
// serving by forwarding into the ring it left).
func (v View) Validate() error {
	if len(v.Members) == 0 {
		return fmt.Errorf("cluster: view %d has no members", v.Epoch)
	}
	if v.Epoch < 0 {
		return fmt.Errorf("cluster: negative view epoch %d", v.Epoch)
	}
	seen := map[string]bool{}
	for _, m := range v.Members {
		if m.ID == "" {
			return fmt.Errorf("cluster: view %d has a member with an empty id", v.Epoch)
		}
		if m.Addr == "" {
			return fmt.Errorf("cluster: view %d member %q has no address", v.Epoch, m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("cluster: view %d has duplicate member id %q", v.Epoch, m.ID)
		}
		seen[m.ID] = true
	}
	return nil
}

// Clone returns a deep copy with members sorted by id (the canonical
// order every comparison and wire encoding uses).
func (v View) Clone() View {
	out := View{Epoch: v.Epoch, Members: append([]Member(nil), v.Members...)}
	sort.Slice(out.Members, func(i, j int) bool { return out.Members[i].ID < out.Members[j].ID })
	return out
}

// Fingerprint hashes the canonical member list (epoch excluded). Two
// views with the same epoch but different memberships — e.g. two nodes
// that each accepted a different change concurrently — are ordered by
// fingerprint, so every node picks the same winner and the fleet
// converges instead of flapping.
func (v View) Fingerprint() uint64 {
	c := v.Clone()
	var sb strings.Builder
	for _, m := range c.Members {
		sb.WriteString(m.ID)
		sb.WriteByte('=')
		sb.WriteString(m.Addr)
		sb.WriteByte('\n')
	}
	return hash64(sb.String())
}

// supersedes reports whether v should replace cur: a higher epoch
// always wins; at equal epochs the greater membership fingerprint wins
// (an arbitrary but total tie-break — symmetric, so two disagreeing
// nodes converge on the same view). A view never supersedes itself.
func (v View) supersedes(cur View) bool {
	if v.Epoch != cur.Epoch {
		return v.Epoch > cur.Epoch
	}
	return v.Fingerprint() > cur.Fingerprint()
}

// member reports whether id is in the view.
func (v View) member(id string) bool {
	for _, m := range v.Members {
		if m.ID == id {
			return true
		}
	}
	return false
}

// ViewAck is the POST /cluster/view reply: whether the announced view
// was adopted, and the epoch the receiver is on afterwards (so the
// announcer can see divergence).
type ViewAck struct {
	Adopted bool  `json:"adopted"`
	Epoch   int64 `json:"epoch"`
}

// viewSyncBudget bounds one view sync (fetch plus push-back) within the
// probe round's context, so ending the round aborts it.
const viewSyncBudget = 5 * time.Second

// PushView announces a view to one member (POST /cluster/view), for
// the join/drain broadcast and the push-back half of view sync alike;
// the caller's context carries the round's budget.
func (c *Cluster) PushView(ctx context.Context, m Member, v View) (ViewAck, error) {
	var ack ViewAck
	body, err := json.Marshal(v)
	if err != nil {
		return ack, err
	}
	return ack, c.Call(ctx, 0, m, http.MethodPost, "/cluster/view", "", body, &ack)
}

// FetchView reads one member's adopted view (GET /cluster/view) — the
// pull half of view sync.
func (c *Cluster) FetchView(ctx context.Context, m Member) (View, error) {
	var v View
	return v, c.Call(ctx, 0, m, http.MethodGet, "/cluster/view", "", nil, &v)
}

// syncViewWith reconciles views with one peer: fetch, adopt if theirs
// supersedes, push ours back when it stands — the repair half of
// probe-driven view anti-entropy. Both requests are ordinary peer
// calls: a failure or a 5xx counts against the peer's health, and a
// non-200 reply is never decoded into a View.
func (c *Cluster) syncViewWith(ctx context.Context, id string) {
	m, ok := c.Member(id)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(ctx, viewSyncBudget)
	defer cancel()
	theirs, err := c.FetchView(ctx, m)
	if err != nil {
		return
	}
	if adopted, err := c.AdoptView(theirs); err != nil || adopted {
		return
	}
	// Their view did not supersede ours — by the total order, ours
	// supersedes theirs (or they are equal, in which case the push is a
	// harmless no-op on their side). Announce ours so the losing side
	// converges even when nobody probes US (e.g. a winning joiner the
	// rest of the fleet dropped from its probe set). Best-effort: a lost
	// push is retried by the next probe round that still sees divergence.
	_, _ = c.PushView(ctx, m, c.CurrentView())
}

// seedJSON is the operator-to-seed call (join, drain): one JSON POST on
// the operator's own client — there is no Cluster yet, so no hop marker
// and no health bookkeeping — its reply judged by DecodeReply like any
// peer's.
func seedJSON(ctx context.Context, client Doer, seedAddr, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(seedAddr, "/")+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err == nil {
		err = DecodeReply(seedAddr, resp, out)
	}
	if err != nil {
		return fmt.Errorf("cluster: POST %s via %s: %w", path, seedAddr, err)
	}
	return nil
}

// JoinVia announces self to a live cluster through one seed peer: it
// POSTs /cluster/join and returns the new view (which includes self).
// The caller adopts the returned view; the seed broadcasts it to the
// rest of the membership. mistserve -join boots through this.
func JoinVia(ctx context.Context, client Doer, peerAddr string, self Member) (View, error) {
	if self.ID == "" || self.Addr == "" {
		return View{}, fmt.Errorf("cluster: join needs both an id and an advertise address")
	}
	var v View
	if err := seedJSON(ctx, client, peerAddr, "/cluster/join", self, &v); err != nil {
		return View{}, err
	}
	if err := v.Validate(); err != nil {
		return View{}, err
	}
	if !v.member(self.ID) {
		return View{}, fmt.Errorf("cluster: join reply view %d does not include %s", v.Epoch, self.ID)
	}
	return v, nil
}

// DrainVia asks one seed member to remove id from the ring (POST
// /cluster/drain, whose body is a Member of which only the id counts)
// and returns the view without it; the seed broadcasts that view to the
// survivors and the drained node.
func DrainVia(ctx context.Context, client Doer, seedAddr, id string) (View, error) {
	var v View
	err := seedJSON(ctx, client, seedAddr, "/cluster/drain", Member{ID: id}, &v)
	return v, err
}
