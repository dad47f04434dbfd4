package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
)

// This file is the HTTP surface of elastic membership: join and drain
// proposals, view adoption and anti-entropy (GET/POST /cluster/view),
// and the record-transfer endpoints the rebalancer and the
// search-suppressing peer fetch ride on (/cluster/records,
// /cluster/fetch).

// changeMembership is the one membership change: propose (join, else
// drain m.ID) → log → broadcast the minted view to its members — plus,
// for a drain, the removed node, which is how it learns to hand its
// records off and serve by forwarding only. A join pushes the view to
// the joiner before this node adopts it: from adoption on this node
// forwards the joiner the keys the new ring gives it, and a joiner still
// on its boot view knows no peer to fetch their records from, so it
// would search them again. If that push fails, the broadcast and the
// join reply still carry the view (a second copy is acknowledged, not
// adopted). The operator endpoints render the result as HTTP. An
// idempotent re-join (a restarted node re-announcing itself) broadcasts
// nothing.
func (s *Server) changeMembership(ctx context.Context, join bool, m cluster.Member) (view cluster.View, err error) {
	bctx, cancel := broadcastContext(ctx)
	defer cancel()
	var changed bool
	var extra []cluster.Member
	if join {
		view, changed, err = s.cluster.ProposeJoin(m, func(v cluster.View) { s.pushView(ctx, bctx, m, v) })
	} else {
		var gone cluster.Member
		view, gone, err = s.cluster.ProposeDrain(m.ID)
		changed, extra = err == nil, []cluster.Member{gone}
	}
	if changed {
		s.log.InfoContext(ctx, "cluster: membership changed", "join", join,
			"member", m.ID, "addr", m.Addr, "epoch", view.Epoch, "members", len(view.Members))
		for _, peer := range s.cluster.Others(view.Members, extra) {
			s.pushView(ctx, bctx, peer, view)
		}
	}
	return view, err
}

// handleClusterJoin and handleClusterDrain render changeMembership as
// HTTP (the body is the joining Member, or names the drained one by id).
// The reply is the new view: a joining node adopts it, so it converges
// even if the broadcast could not reach it yet (its listener may not be
// up). Draining a dead node is the operator declaring its loss
// permanent, so the rebalancer can restore R among survivors.
func (s *Server) handleClusterJoin(rw http.ResponseWriter, req *http.Request) {
	s.serveMembership(rw, req, true)
}

func (s *Server) handleClusterDrain(rw http.ResponseWriter, req *http.Request) {
	s.serveMembership(rw, req, false)
}

func (s *Server) serveMembership(rw http.ResponseWriter, req *http.Request, join bool) {
	var m cluster.Member
	if !decodeBody(rw, req, &m) {
		return
	}
	view, err := s.changeMembership(req.Context(), join, m)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	writeJSON(rw, http.StatusOK, view)
}

// handleClusterViewGet reports the adopted membership view — the pull
// side of view anti-entropy (peers fetch it when a probe reply shows a
// higher epoch than their own).
func (s *Server) handleClusterViewGet(rw http.ResponseWriter, req *http.Request) {
	writeJSON(rw, http.StatusOK, s.cluster.CurrentView())
}

// handleClusterViewPost adopts a peer-announced view (the push side of
// a join/drain broadcast). Stale or tied-and-losing views are
// acknowledged but not adopted; the reply names the epoch this node is
// actually on so the announcer can see divergence.
func (s *Server) handleClusterViewPost(rw http.ResponseWriter, req *http.Request) {
	var v cluster.View
	if !decodeBody(rw, req, &v) {
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
	writeJSON(rw, http.StatusOK, cluster.ViewAck{Adopted: adopted, Epoch: s.cluster.Epoch()})
}

// handleClusterFetch answers a peer's single-record lookup from the
// local store: 200 with the record, 404 when this node holds nothing
// for the key. Read-only — a fetch never cascades.
func (s *Server) handleClusterFetch(rw http.ResponseWriter, req *http.Request) {
	var fr fetchKeyRequest
	if !decodeBody(rw, req, &fr) {
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
	writeJSON(rw, http.StatusOK, s.store.Records())
}

// broadcastContext bounds a membership change's view pushes: the
// round's budget, or a tighter request deadline — but never the
// request's cancellation, because the pushes must finish even if the
// proposer's client disconnects right after the response.
func broadcastContext(ctx context.Context) (context.Context, context.CancelFunc) {
	deadline := time.Now().Add(broadcastBudget)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	//mistlint:ignore ctxflow view broadcast must survive the proposer disconnecting; deadline-bounded above
	return context.WithDeadline(context.Background(), deadline)
}

// pushView announces a view to one peer on the broadcast's context.
// Best-effort: a peer that misses it converges through probe-driven
// view anti-entropy, so a failure is logged, not retried here.
func (s *Server) pushView(ctx, bctx context.Context, m cluster.Member, v cluster.View) {
	if _, err := s.cluster.PushView(bctx, m, v); err != nil {
		s.log.InfoContext(ctx, "cluster: view broadcast failed", "epoch", v.Epoch, "peer", m.ID, "err", err)
	}
}

// fetchRecordFromPeers asks peers, before a search, whether one already
// holds the fingerprint's record: a key whose ownership just moved here
// was tuned by its previous replicas, and a round of lookups is far
// cheaper than a search, so single-flight survives membership changes.
// A found record is adopted. The key's replica set is always asked; the
// rest of the membership and recently departed members (a drained node
// may be a key's only holder) only while this node's repair pull lags
// the ring, so a steady-state cold miss costs R−1 lookups, not N−1.
// Misses and unreachable peers fall through to a search.
func (s *Server) fetchRecordFromPeers(ctx context.Context, fp store.Fingerprint) (store.Record, bool) {
	key := fp.Key()
	body, err := json.Marshal(fetchKeyRequest{Key: key})
	if err != nil {
		return store.Record{}, false
	}
	s.count.recordFetches.Inc()
	ask, _ := s.cluster.ReplicaTargets(key)
	if !s.pullCaughtUp(s.cluster.ViewID()) {
		ask = s.cluster.Others(ask, s.cluster.Members(), s.cluster.DepartedMembers())
	}
	for _, m := range ask {
		if s.cluster.Health(m.ID) == cluster.Down {
			continue
		}
		rec, ok, _ := s.peerFetch(ctx, m, body)
		if !ok {
			continue
		}
		// An adopted fetch never re-replicates, so the invariant audit
		// still sees one Put.
		_, _ = s.adoptRecord(rec)
		s.count.recordFetchHits.Inc()
		if s.logging(ctx) {
			s.log.InfoContext(ctx, "record fetched from peer, search suppressed",
				"key", key, "peer", m.ID, "version", rec.Version)
		}
		return rec, true
	}
	return store.Record{}, false
}
