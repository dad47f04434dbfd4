package serve

import (
	"context"
	"errors"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the client side of the node-to-node protocol (tabulated
// in DESIGN.md "Node-to-node protocol"): one typed method per (method, path) a node sends a
// peer, the wire types both ends share, and every budget. The view
// routes' clients live beside the view (cluster.PushView, FetchView).

// Budgets. A per-round budget is one context shared by every peer of a
// fan-out; a per-call budget restarts for each peer.
const (
	// One write-through round. It runs on the tune-response path, so one
	// slow-but-accepting (Suspect) replica delays a response by a
	// bounded amount.
	replicationBudget = 3 * time.Second // per round
	repairBudget      = 3 * time.Second // per call: one repair push or listing pull
	fetchBudget       = 2 * time.Second // per call: one search-suppressing record lookup
	sloFoldBudget     = 5 * time.Second // per call: one member's GET /slo in the fleet fold
	// One view broadcast: a membership change must propagate promptly,
	// but one slow peer must not pin the join/drain response.
	broadcastBudget = 5 * time.Second // per round
)

// replicateAck is the POST /cluster/replicate reply: whether the
// version-gated Apply installed the record (false: already present),
// and the version offered.
type replicateAck struct {
	Applied bool `json:"applied"`
	Version int  `json:"version"`
}

// fetchKeyRequest is the POST /cluster/fetch body: a canonical
// fingerprint key (keys contain '|', so they travel in a JSON body, not
// a path segment).
type fetchKeyRequest struct {
	Key string `json:"key"`
}

// peerReplicate offers one marshalled record to a peer: a write-through
// (budget 0, the round's context bounds it) or a repair push.
func (s *Server) peerReplicate(ctx context.Context, budget time.Duration, m cluster.Member, rid string, rec []byte) (replicateAck, error) {
	var ack replicateAck
	return ack, s.cluster.Call(ctx, budget, m, http.MethodPost, "/cluster/replicate", rid, rec, &ack)
}

// peerRecords fetches a peer's full record listing.
func (s *Server) peerRecords(ctx context.Context, m cluster.Member) ([]store.Record, error) {
	var recs []store.Record
	return recs, s.cluster.Call(ctx, repairBudget, m, http.MethodGet, "/cluster/records", "", nil, &recs)
}

// peerFetch asks one peer for the record of a marshalled
// fetchKeyRequest; a 404 is a miss (ok=false, no error), not a failure.
func (s *Server) peerFetch(ctx context.Context, m cluster.Member, key []byte) (rec store.Record, ok bool, err error) {
	err = s.cluster.Call(ctx, fetchBudget, m, http.MethodPost, "/cluster/fetch", trace.RequestID(ctx), key, &rec)
	var se *cluster.StatusError
	if errors.As(err, &se) && se.Status == http.StatusNotFound {
		return rec, false, nil
	}
	return rec, err == nil && rec.Plan != nil, err
}

// peerSLO pulls one member's GET /slo for the fleet fold.
func (s *Server) peerSLO(ctx context.Context, m cluster.Member) (slo.NodeReport, error) {
	var rep slo.NodeReport
	return rep, s.cluster.Call(ctx, sloFoldBudget, m, http.MethodGet, "/slo", trace.RequestID(ctx), nil, &rep)
}

// peerTune resolves a marshalled TuneRequest on the peer that owns it —
// a request hop, so it rides forwardOnce. answered=false: the peer was
// unreachable (already counted; try the next replica). A non-200 answer
// comes back as the peer's *cluster.StatusError.
func (s *Server) peerTune(ctx context.Context, m cluster.Member, body []byte) (tr *TuneResponse, answered bool, err error) {
	resp := s.forwardOnce(ctx, m, http.MethodPost, "/tune", trace.RequestID(ctx), "application/json", body)
	if resp == nil {
		return nil, false, nil
	}
	tr = new(TuneResponse)
	return tr, true, cluster.DecodeReply(m.ID, resp, tr)
}

// forwardOnce sends one request hop (the relay, or a job's forwarded
// /tune) under the forward span, the per-peer forward series /stats
// sums, and their two log lines. Replication, repair, broadcast and the
// SLO fold are not request hops and do not pass here. The caller owns
// the response body; a transport failure returns nil, already counted.
func (s *Server) forwardOnce(ctx context.Context, m cluster.Member, method, path, rid, contentType string, body []byte) *http.Response {
	// The forward span covers the whole hop round-trip; Forward injects
	// it onto the wire, so the peer's local root is parented under it.
	fctx, fsp := trace.StartSpan(ctx, "forward")
	fsp.Annotate("peer", m.ID)
	fsp.Annotate("path", path)
	resp, err := s.cluster.Forward(fctx, m, method, path, rid, contentType, body)
	if err != nil {
		fsp.Annotate("error", err.Error())
		fsp.End()
		s.forwardErrors.get(m.ID).Inc()
		if s.logging(ctx) {
			s.log.InfoContext(ctx, "forward failed", "method", method, "path", path, "peer", m.ID, "err", err)
		}
		return nil
	}
	fsp.Annotate("code", resp.StatusCode)
	fsp.End()
	s.forwards.get(peerCode{m.ID, resp.StatusCode}).Inc()
	if s.logging(ctx) {
		s.log.InfoContext(ctx, "forwarded", "method", method, "path", path, "peer", m.ID, "code", resp.StatusCode)
	}
	return resp
}
