package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the HTTP surface of elastic membership: join and drain
// proposals, view adoption and anti-entropy (GET/POST /cluster/view),
// and the record-transfer endpoints the rebalancer and the
// search-suppressing peer fetch ride on (/cluster/records,
// /cluster/fetch).

// broadcastBudget bounds one view broadcast round (all peers share it,
// like the replication budget): membership changes must propagate
// promptly, but one slow peer must not pin the join/drain response.
const broadcastBudget = 5 * time.Second

// handleClusterJoin admits a node into the ring: the current membership
// plus the joiner becomes the view at Epoch+1, adopted locally,
// broadcast to every member (the joiner included), and returned to the
// caller — the joining node adopts the reply, so it converges even if
// the broadcast could not reach it yet (its listener may not be up).
func (s *Server) handleClusterJoin(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster mode not enabled"))
		return
	}
	var jr cluster.JoinRequest
	if err := json.NewDecoder(req.Body).Decode(&jr); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding join request: %w", err))
		return
	}
	view, changed, err := s.cluster.ProposeJoin(cluster.Member{ID: jr.ID, Addr: jr.Addr})
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if changed {
		s.log.InfoContext(req.Context(), "cluster: member joined",
			"member", jr.ID, "addr", jr.Addr, "epoch", view.Epoch, "members", len(view.Members))
		s.broadcastView(req.Context(), view, nil)
	}
	writeJSON(rw, http.StatusOK, view)
}

// handleClusterDrain removes a member from the ring: the view without
// it becomes Epoch+1, adopted locally and broadcast to the remaining
// members AND the drained node — which is how the drained node learns
// to hand its records off and serve by forwarding only. Draining a
// dead node is the operator's act of declaring its loss permanent, so
// the rebalancer can restore the replication factor among survivors.
func (s *Server) handleClusterDrain(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster mode not enabled"))
		return
	}
	var dr cluster.DrainRequest
	if err := json.NewDecoder(req.Body).Decode(&dr); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding drain request: %w", err))
		return
	}
	drained, known := s.cluster.Member(dr.ID)
	if !known {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("cluster: cannot drain unknown member %q", dr.ID))
		return
	}
	view, changed, err := s.cluster.ProposeDrain(dr.ID)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if changed {
		s.log.InfoContext(req.Context(), "cluster: member drained",
			"member", dr.ID, "epoch", view.Epoch, "members", len(view.Members))
		s.broadcastView(req.Context(), view, []cluster.Member{drained})
	}
	writeJSON(rw, http.StatusOK, view)
}

// handleClusterViewGet reports the adopted membership view — the pull
// side of view anti-entropy (peers fetch it when a probe reply shows a
// higher epoch than their own).
func (s *Server) handleClusterViewGet(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster mode not enabled"))
		return
	}
	writeJSON(rw, http.StatusOK, s.cluster.CurrentView())
}

// handleClusterViewPost adopts a peer-announced view (the push side of
// a join/drain broadcast). Stale or tied-and-losing views are
// acknowledged but not adopted; the reply names the epoch this node is
// actually on so the announcer can see divergence.
func (s *Server) handleClusterViewPost(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster mode not enabled"))
		return
	}
	var v cluster.View
	if err := json.NewDecoder(req.Body).Decode(&v); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding view: %w", err))
		return
	}
	adopted, err := s.cluster.AdoptView(v)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	if adopted {
		s.log.InfoContext(req.Context(), "cluster: adopted announced view",
			"epoch", v.Epoch, "members", len(v.Members))
	}
	writeJSON(rw, http.StatusOK, map[string]any{
		"adopted": adopted,
		"epoch":   s.cluster.Epoch(),
	})
}

// fetchKeyRequest is the POST /cluster/fetch body: a canonical
// fingerprint key (keys contain '|', so they travel in a JSON body, not
// a path segment).
type fetchKeyRequest struct {
	Key string `json:"key"`
}

// handleClusterFetch answers a peer's single-record lookup from the
// local store: 200 with the record, 404 when this node holds nothing
// for the key. Read-only — a fetch never cascades.
func (s *Server) handleClusterFetch(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil || s.store == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster record fetch not enabled"))
		return
	}
	var fr fetchKeyRequest
	if err := json.NewDecoder(req.Body).Decode(&fr); err != nil {
		writeError(rw, http.StatusBadRequest, fmt.Errorf("decoding fetch request: %w", err))
		return
	}
	rec, ok := s.store.GetByKey(fr.Key)
	if !ok {
		writeError(rw, http.StatusNotFound, fmt.Errorf("no record for %q", fr.Key))
		return
	}
	writeJSON(rw, http.StatusOK, rec)
}

// handleClusterRecords lists every record in the local store — the
// rebalancer's pull source after a membership change (a fresh or
// restarted node applies the subset it now replicates).
func (s *Server) handleClusterRecords(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil || s.store == nil {
		writeError(rw, http.StatusNotFound, fmt.Errorf("cluster record listing not enabled"))
		return
	}
	writeJSON(rw, http.StatusOK, s.store.Records())
}

// broadcastView announces an adopted view to every member of it (self
// excluded) plus any extra recipients (the drained node). Best-effort:
// a peer that misses the broadcast converges through probe-driven view
// anti-entropy, so failures are logged, not retried here.
func (s *Server) broadcastView(ctx context.Context, v cluster.View, extra []cluster.Member) {
	body, err := json.Marshal(v)
	if err != nil {
		return
	}
	//mistlint:ignore ctxflow view broadcast must survive the proposer disconnecting; budget-bounded below
	bctx, cancel := context.WithTimeout(context.Background(), broadcastBudget)
	defer cancel()
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < broadcastBudget {
		// Honor a tighter request deadline, but never inherit its
		// cancellation: the broadcast must finish even if the proposer's
		// client disconnects right after the response.
		//mistlint:ignore ctxflow deliberately adopts only the request deadline, never its cancellation
		bctx, cancel = context.WithDeadline(context.Background(), deadline)
		defer cancel()
	}
	self := s.cluster.Self()
	seen := map[string]bool{self: true}
	for _, m := range append(append([]cluster.Member(nil), v.Members...), extra...) {
		if seen[m.ID] {
			continue
		}
		seen[m.ID] = true
		resp, err := s.cluster.Forward(bctx, m, http.MethodPost, "/cluster/view", "", "application/json", body)
		if err != nil {
			s.log.InfoContext(ctx, "cluster: view broadcast failed", "epoch", v.Epoch, "peer", m.ID, "err", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// fetchRecordFromPeers asks the fleet, replicas first, whether any
// node already holds a record for the fingerprint — the step that keeps
// the fleet-wide single-flight invariant across membership transitions:
// a key whose ownership just moved here was tuned by its previous
// replicas, and a cheap round of peer lookups is orders of magnitude
// cheaper than re-running the search. A found record is applied to the
// local store (only when this node replicates the key) so the next hit
// is local. Misses and unreachable peers fall through to a fresh
// search.
//
// Scope: the key's replica set is always asked. The rest of the
// membership — and recently departed ex-members, whose handoff may not
// have completed (a drained node can be a key's only holder) — is
// swept only while this node's repair pull has not yet caught up with
// the current ring (epoch + membership fingerprint), which is exactly
// the window in which a just-moved key's record may still sit at its
// previous, now-off-set replicas. Once the pull for this ring
// completed, every record this node should hold is local, so a
// steady-state cold miss costs R−1 lookups, not N−1.
func (s *Server) fetchRecordFromPeers(ctx context.Context, fp store.Fingerprint) (store.Record, bool) {
	key := fp.Key()
	body, err := json.Marshal(fetchKeyRequest{Key: key})
	if err != nil {
		return store.Record{}, false
	}
	s.count.recordFetches.Inc()
	self := s.cluster.Self()
	seen := map[string]bool{self: true}
	ordered := s.cluster.Replicas(key)
	if !s.pullCaughtUp(s.currentRing()) {
		ordered = append(ordered, s.cluster.Members()...)
		ordered = append(ordered, s.cluster.DepartedMembers()...)
	}
	for _, m := range ordered {
		if seen[m.ID] || s.cluster.Health(m.ID) == cluster.Down {
			continue
		}
		seen[m.ID] = true
		var rec store.Record
		err := s.peerJSON(ctx, 2*time.Second, m, http.MethodPost, "/cluster/fetch", trace.RequestID(ctx), body, &rec)
		if err != nil || rec.Plan == nil {
			continue
		}
		if s.selfReplicates(key) {
			// Version-gated and hook-free: an applied fetch never
			// re-replicates, so the invariant audit still sees one Put.
			_, _ = s.store.Apply(rec)
		}
		s.count.recordFetchHits.Inc()
		if s.logging(ctx) {
			s.log.InfoContext(ctx, "record fetched from peer, search suppressed",
				"key", key, "peer", m.ID, "version", rec.Version)
		}
		return rec, true
	}
	return store.Record{}, false
}

// selfReplicates reports whether this node is in the key's current
// replica set.
func (s *Server) selfReplicates(key string) bool {
	self := s.cluster.Self()
	for _, m := range s.cluster.Replicas(key) {
		if m.ID == self {
			return true
		}
	}
	return false
}
