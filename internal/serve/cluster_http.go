package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/store"
	"repro/internal/trace"
)

// This file is the serving layer's half of the sharded tier: the
// ownership check and proxy path in front of /tune, /simulate, and
// /jobs, the record's one way out of a node (offerRecord, which the
// write-through and the repair pass share) and its one way in from a
// peer's store (adoptRecord), the GET /cluster topology endpoint,
// node-qualified job ids, and the request identity assigned at ingress
// and propagated through every hop.

// Per-peer metric families of the cluster tier.
const (
	metricForwardsTotal      = "mist_cluster_forwards_total"       // labels: peer, code
	metricForwardErrorsTotal = "mist_cluster_forward_errors_total" // labels: peer
	metricReplicationsTotal  = "mist_cluster_replications_total"   // labels: peer, outcome
)

// Label tuples of the per-peer families (see counterFamily).
type (
	peerCode struct {
		peer string
		code int
	}
	peerOutcome struct{ peer, outcome string }
)

// newRequestID mints a 64-bit random hex id; ids only need to be
// unique enough to correlate log lines and job records across nodes.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// forwarded reports whether a request already took its one allowed
// forwarding hop.
func forwarded(req *http.Request) bool {
	return req.Header.Get(cluster.HeaderForwardedBy) != ""
}

// admittedUpstream reports whether a request already passed an
// admission gate on the peer that forwarded it. A forwarded hop is
// never re-admitted here: the forwarder holds its own gate slot for
// the whole hop, so queueing the hop behind this node's gate is
// hold-and-wait across nodes — two nodes forwarding into each other's
// full gates deadlock permanently (at GOMAXPROCS=1 every gate has two
// slots, and the elastic drill wedged exactly this way). Admission is
// charged once, at ingress; fleet-wide inflight stays bounded by the
// sum of ingress gates, and the marker header is already trusted
// in-cluster to enforce the single-hop invariant.
func (s *Server) admittedUpstream(req *http.Request) bool {
	return s.cluster != nil && forwarded(req)
}

// walkRoute is the one ownership walk: it offers the key to each routed
// replica in order until try reports that a peer answered (true). False
// means serve locally — this node is the next routed replica, or no
// replica was reachable (counted and logged: availability wins over
// strict single-flight).
func (s *Server) walkRoute(ctx context.Context, key string, try func(cluster.Member) bool) bool {
	for _, m := range s.cluster.Route(key) {
		if m.ID == s.cluster.Self() {
			return false
		}
		if try(m) {
			return true
		}
	}
	s.count.localFallbacks.Inc()
	if s.logging(ctx) {
		s.log.InfoContext(ctx, "no reachable replica, serving locally", "key", key)
	}
	return false
}

// proxyKeyed routes a request by its fingerprint key: when a peer is
// the first routed replica, the request (body already read) is
// replayed to it and its response relayed, walking down the replica
// list on transport failures. Returns true when a peer answered; false
// means serve locally — walkRoute said so, the request already hopped
// once, or cluster mode is off.
func (s *Server) proxyKeyed(rw http.ResponseWriter, req *http.Request, key string, body []byte) bool {
	if s.cluster == nil || forwarded(req) {
		return false
	}
	rid := trace.RequestID(req.Context())
	return s.walkRoute(req.Context(), key, func(m cluster.Member) bool {
		return s.forwardTo(rw, req, m, rid, body)
	})
}

// forwardTo replays one request to a peer and relays the response
// (status, body, and the response headers a client acts on). A
// transport failure feeds the health checker (inside Forward) and
// returns false so the caller can try the next replica.
func (s *Server) forwardTo(rw http.ResponseWriter, req *http.Request, m cluster.Member, rid string, body []byte) bool {
	resp := s.forwardOnce(req.Context(), m, req.Method, req.URL.Path, rid,
		req.Header.Get("Content-Type"), body)
	if resp == nil {
		return false
	}
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After", cluster.HeaderServedBy} {
		if v := resp.Header.Get(h); v != "" {
			rw.Header().Set(h, v)
		}
	}
	if rw.Header().Get(cluster.HeaderServedBy) == "" {
		rw.Header().Set(cluster.HeaderServedBy, m.ID)
	}
	rw.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(rw, resp.Body)
	return true
}

// clusterTune is tuneCtx behind the ring, for job tasks: a fingerprint
// owned by a peer is resolved by a forwarded POST /tune (so the search
// still runs exactly once fleet-wide), a locally owned one runs through
// the plan cache as before. ws must have its defaults resolved (SubmitJob
// normalized it). A peer's non-200 answer is returned as its
// *cluster.StatusError, which statusFor relays under the peer's code.
func (s *Server) clusterTune(ctx context.Context, ws WorkloadSpec) (*TuneResponse, error) {
	if s.cluster == nil {
		return s.tuneCtx(ctx, ws)
	}
	body, err := json.Marshal(TuneRequest{WorkloadSpec: ws})
	if err != nil {
		return nil, err
	}
	var tr *TuneResponse
	if s.walkRoute(ctx, ws.key(), func(m cluster.Member) (answered bool) {
		tr, answered, err = s.peerTune(ctx, m, body)
		return answered
	}) {
		return tr, err
	}
	return s.tuneCtx(ctx, ws)
}

// offer is one target's answer to a record offer: outcome is "ok",
// "skipped-down" (not tried), "error" (no answer) or "rejected" (the
// peer answered, and refused); applied means the peer installed it.
type offer struct {
	outcome string
	applied bool
	err     error
}

// offerRecord is the one record offer: rec goes to each target over
// POST /cluster/replicate, Down peers skipped, and each target's answer
// comes back in target order. budget 0 leaves the round to ctx; a
// positive budget restarts per target.
func (s *Server) offerRecord(ctx context.Context, budget time.Duration, rid string, rec store.Record, targets []cluster.Member) ([]offer, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	out := make([]offer, len(targets))
	for i, m := range targets {
		o := &out[i]
		if o.outcome = "skipped-down"; s.cluster.Health(m.ID) == cluster.Down {
			continue
		}
		var ack replicateAck
		ack, o.err = s.peerReplicate(ctx, budget, m, rid, body)
		o.outcome, o.applied = "ok", ack.Applied
		if errors.As(o.err, new(*cluster.StatusError)) {
			o.outcome = "rejected"
		} else if o.err != nil {
			o.outcome = "error"
		}
	}
	return out, nil
}

// adoptRecord is the one record adopt: a record read from a peer's
// store (repair pull, store-miss fetch) is applied, version-gated, only
// when this node replicates its key. handleReplicate applies without
// it: the sending peer already chose this node.
func (s *Server) adoptRecord(rec store.Record) (bool, error) {
	if _, selfIn := s.cluster.ReplicaTargets(rec.Fingerprint.Key()); !selfIn {
		return false, nil
	}
	return s.store.Apply(rec)
}

// writeThrough is the tune path's replication step: runTune offers each
// plan it stored to the fingerprint's other replicas before it replies,
// so every reachable replica can serve the plan by the time the client
// has it and a failover loses nothing. Down peers are skipped; repair
// re-offers the record.
func (s *Server) writeThrough(ctx context.Context, rec store.Record) {
	key := rec.Fingerprint.Key()
	// The ring is read before the targets: if a membership change lands
	// mid-round, the mark below names the old ring, so repair still
	// re-checks the record under the new one.
	ring := s.cluster.ViewID()
	targets, _ := s.cluster.ReplicaTargets(key)
	if len(targets) == 0 {
		return
	}
	// The round runs under one budget and keeps the request's values
	// (trace span, request id) but not its cancellation: a client leaving
	// right after the reply must not strand the fleet under-replicated.
	rid := trace.RequestID(ctx)
	rctx, rsp := trace.StartSpan(context.WithoutCancel(ctx), "replication")
	rsp.Annotate("key", key)
	defer rsp.End()
	rctx, cancel := context.WithTimeout(rctx, replicationBudget)
	defer cancel()
	offers, err := s.offerRecord(rctx, 0, rid, rec, targets)
	if err != nil {
		return
	}
	allOK := true
	for i, o := range offers {
		peer := targets[i].ID
		if o.err != nil && s.logging(ctx) {
			s.log.InfoContext(ctx, "replicate failed", "key", key, "version", rec.Version, "peer", peer, "outcome", o.outcome, "err", o.err)
		}
		allOK = allOK && o.outcome == "ok"
		s.replications.get(peerOutcome{peer, o.outcome}).Inc()
	}
	rsp.Annotate("targets", len(targets))
	rsp.Annotate("allOk", allOK)
	if allOK {
		s.markRepaired(key, ring) // the repairer skips it until the ring changes
	}
}

// handleReplicate applies one replicated plan record from a peer. The
// write is version-gated (stale versions are no-ops) and never
// re-replicated.
func (s *Server) handleReplicate(rw http.ResponseWriter, req *http.Request) {
	var rec store.Record
	if !decodeBody(rw, req, &rec) {
		return
	}
	applied, err := s.store.Apply(rec)
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	writeJSON(rw, http.StatusOK, replicateAck{Applied: applied, Version: rec.Version})
}

// ClusterMemberInfo is one member row of the GET /cluster reply.
type ClusterMemberInfo struct {
	ID     string `json:"id"`
	Addr   string `json:"addr"`
	Self   bool   `json:"self,omitempty"`
	Health string `json:"health"`
	// RingShare is the fraction of the fingerprint hash space this
	// member owns (shares sum to 1 across the membership).
	RingShare float64 `json:"ringShare"`
}

// ClusterInfo is the GET /cluster reply: this node's view of the
// topology. Traffic counters are on /stats and /metrics.
type ClusterInfo struct {
	Enabled bool   `json:"enabled"`
	Self    string `json:"self,omitempty"`
	// Epoch is the adopted membership view's generation; it advances by
	// one on every join or drain.
	Epoch    int64 `json:"epoch"`
	Replicas int   `json:"replicas,omitempty"`
	VNodes   int   `json:"vnodes,omitempty"`
	// Drained marks a node that adopted a view excluding itself: it
	// keeps serving, but only by forwarding into the ring it left.
	Drained bool                `json:"drained,omitempty"`
	Members []ClusterMemberInfo `json:"members,omitempty"`
}

func (s *Server) handleClusterInfo(rw http.ResponseWriter, req *http.Request) {
	if s.cluster == nil {
		writeJSON(rw, http.StatusOK, ClusterInfo{Enabled: false})
		return
	}
	shares := s.cluster.Ring().OwnershipShare()
	info := ClusterInfo{
		Enabled:  true,
		Self:     s.cluster.Self(),
		Epoch:    s.cluster.Epoch(),
		Replicas: s.cluster.ReplicationFactor(),
		VNodes:   s.cluster.Ring().VNodes(),
		Drained:  !s.cluster.InRing(),
	}
	for _, m := range s.cluster.Members() {
		info.Members = append(info.Members, ClusterMemberInfo{
			ID:        m.ID,
			Addr:      m.Addr,
			Self:      m.ID == s.cluster.Self(),
			Health:    s.cluster.Health(m.ID).String(),
			RingShare: shares[m.ID],
		})
	}
	writeJSON(rw, http.StatusOK, info)
}

// wireJobID qualifies a local job id with this node's id so any node
// can route job lookups and cancels back to where the record lives.
func (s *Server) wireJobID(id string) string {
	if s.cluster == nil {
		return id
	}
	return s.cluster.Self() + "." + id
}

// splitJobID resolves a wire job id to (node, local id). Without a
// cluster — or when the prefix names no known member — the id is
// treated as local and node is "".
func (s *Server) splitJobID(wire string) (node, id string) {
	if s.cluster == nil {
		return "", wire
	}
	if n, rest, ok := strings.Cut(wire, "."); ok {
		if _, known := s.cluster.Member(n); known {
			return n, rest
		}
	}
	return "", wire
}

// proxyJobByID forwards a /jobs/{id} request to the node whose prefix
// the id carries. Returns true when the response was written (relayed
// or a 503 because the owning node is unreachable).
func (s *Server) proxyJobByID(rw http.ResponseWriter, req *http.Request, node string) bool {
	if s.cluster == nil || forwarded(req) || node == "" || node == s.cluster.Self() {
		return false
	}
	m, ok := s.cluster.Member(node)
	if !ok {
		return false
	}
	if s.forwardTo(rw, req, m, trace.RequestID(req.Context()), nil) {
		return true
	}
	// The job record lives only on that node; there is no replica to
	// fall back to.
	writeError(rw, http.StatusServiceUnavailable,
		fmt.Errorf("node %s holding job %s.* is unreachable", node, node))
	return true
}
