package serve

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/trace"
)

// The rebalancer is the elastic tier's background anti-entropy repairer
// (DESIGN.md "The rebalancer"). Each pass repairs the local store toward
// the current ring through the one record offer and the one record
// adopt: it pushes what this node still replicates to the other
// replicas, hands off what it no longer replicates (released only once
// the whole new replica set acknowledged it), and after a ring change
// pulls and adopts what peers hold that it now replicates. Repair moves
// records and never searches, so every record stays Version 1; a record
// confirmed on its replicas is skipped until the ring changes.

// RebalanceReport summarizes one repair pass.
type RebalanceReport struct {
	// Epoch is the membership epoch the pass repaired toward.
	Epoch int64 `json:"epoch"`
	// Scanned counts local records examined.
	Scanned int `json:"scanned"`
	// Pushed counts record offers accepted by a peer (HTTP 200);
	// Applied counts the subset the peer actually installed (the rest
	// were already present — idempotent repair).
	Pushed  int `json:"pushed"`
	Applied int `json:"applied"`
	// Pulled counts records applied locally from peer listings.
	Pulled int `json:"pulled"`
	// Dropped counts records released locally after their new replica
	// set confirmed them.
	Dropped int `json:"dropped"`
	// SkippedDown counts push targets skipped because they are Down
	// (repair retries on a later pass); Errors counts failed transfers.
	SkippedDown int `json:"skippedDown"`
	Errors      int `json:"errors"`
}

func (r RebalanceReport) String() string {
	return fmt.Sprintf("epoch %d: scanned %d, pushed %d (applied %d), pulled %d, dropped %d, skipped-down %d, errors %d",
		r.Epoch, r.Scanned, r.Pushed, r.Applied, r.Pulled, r.Dropped, r.SkippedDown, r.Errors)
}

// markRepaired remembers that a record was confirmed on its full
// replica set under a ring, so steady-state passes skip it.
func (s *Server) markRepaired(key string, ring cluster.RingID) {
	s.repairMu.Lock()
	s.repairedAt[key] = ring
	s.repairMu.Unlock()
}

func (s *Server) repairedRing(key string) (cluster.RingID, bool) {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	r, ok := s.repairedAt[key]
	return r, ok
}

func (s *Server) clearRepaired(key string) {
	s.repairMu.Lock()
	delete(s.repairedAt, key)
	s.repairMu.Unlock()
}

// pullCaughtUp reports whether the pull phase has completed under the
// given ring — the signal that every record this node should hold is
// local, which lets the peer-fetch sweep shrink to the replica set.
func (s *Server) pullCaughtUp(ring cluster.RingID) bool {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	return s.lastPullDone && s.lastPull == ring
}

func (s *Server) setPullCaughtUp(ring cluster.RingID) {
	s.repairMu.Lock()
	s.lastPull = ring
	s.lastPullDone = true
	s.repairMu.Unlock()
}

// RebalanceOnce runs one full repair pass (pull if the epoch moved,
// then push/handoff) and reports what it did. Passes are serialized;
// concurrent callers queue. A node without a cluster or store is a
// no-op. The error return is reserved for a canceled context — per-peer
// failures are counted in the report and retried on a later pass.
func (s *Server) RebalanceOnce(ctx context.Context) (RebalanceReport, error) {
	var rep RebalanceReport
	if s.cluster == nil || s.store == nil {
		return rep, nil
	}
	//mistlint:ignore lockio rbRunMu exists to serialize repair passes; it orders I/O rather than guarding state shared with request paths
	s.rbRunMu.Lock()
	defer s.rbRunMu.Unlock()

	ring := s.cluster.ViewID()
	rep.Epoch = ring.Epoch
	// Repair passes have no ingress request, so each pass mints its own
	// id and pins it where a request's would be: every log line and
	// timeline event of one pass correlates the same way request lines
	// do. (Peer calls below name their request id explicitly — none.)
	pass := "rebalance " + newRequestID()
	ctx = trace.WithRequestID(ctx, pass)

	// Pull phase, after a ring change and on the first pass (how a node
	// restarted empty refills itself): adopt what peers hold that this
	// node now replicates. A peer pulled under this ring is not pulled
	// again, so one Down-but-undeclared member does not force re-pulling
	// every listing. Departed members are pulled best-effort (a drained
	// node may hold a key's only copy) but never block completeness; only
	// a complete round over the current membership marks the ring pulled.
	if !s.pullCaughtUp(ring) {
		complete := true
		for _, m := range s.cluster.Others(s.cluster.Members(), s.cluster.DepartedMembers()) {
			if s.pulledPeers[m.ID] == ring {
				continue
			}
			_, current := s.cluster.Member(m.ID)
			if s.cluster.Health(m.ID) == cluster.Down {
				if current {
					complete = false
					rep.SkippedDown++
				}
				continue
			}
			recs, err := s.peerRecords(ctx, m)
			if err != nil {
				if current {
					complete = false
					rep.Errors++
					s.log.InfoContext(ctx, "pulling records failed", "peer", m.ID, "err", err)
				}
				continue
			}
			for _, rec := range recs {
				switch applied, err := s.adoptRecord(rec); {
				case err != nil:
					rep.Errors++
				case applied:
					rep.Pulled++
				}
			}
			s.pulledPeers[m.ID] = ring
		}
		if complete {
			s.setPullCaughtUp(ring)
		}
	}

	// Push/handoff phase over a point-in-time snapshot of the store.
	for _, rec := range s.store.Records() {
		select {
		case <-ctx.Done():
			return rep, ctx.Err()
		default:
		}
		rep.Scanned++
		key := rec.Fingerprint.Key()
		targets, selfIn := s.cluster.ReplicaTargets(key)
		if selfIn {
			if r, ok := s.repairedRing(key); ok && r == ring {
				continue // confirmed on all replicas under this ring already
			}
		}
		offers, err := s.offerRecord(ctx, repairBudget, "", rec, targets)
		if err != nil {
			rep.Errors++
			continue
		}
		allOK := true
		for i, o := range offers {
			switch {
			case o.outcome == "skipped-down":
				rep.SkippedDown++
			case o.err != nil:
				rep.Errors++
				s.log.InfoContext(ctx, "pushing record failed", "key", key, "version", rec.Version, "peer", targets[i].ID, "err", o.err)
			default:
				rep.Pushed++
				if o.applied {
					rep.Applied++
				}
			}
			allOK = allOK && o.outcome == "ok"
		}
		if !allOK {
			continue
		}
		if selfIn {
			s.markRepaired(key, ring)
		} else if err := s.store.Delete(rec.Fingerprint); err != nil {
			rep.Errors++
			s.log.InfoContext(ctx, "releasing record after handoff failed", "key", key, "err", err)
		} else {
			rep.Dropped++
			s.clearRepaired(key)
			s.log.InfoContext(ctx, "handed off record", "key", key, "version", rec.Version, "to", memberIDs(targets))
		}
	}

	s.count.rebalancePushed.Add(uint64(rep.Pushed))
	s.count.rebalancePulled.Add(uint64(rep.Pulled))
	s.count.rebalanceDropped.Add(uint64(rep.Dropped))
	s.count.rebalanceErrors.Add(uint64(rep.Errors))
	// Repair activity lands on the cluster timeline, one event per
	// nonzero category per pass — bounded by pass cadence, not by the
	// record count a pass moved.
	if rep.Pulled > 0 {
		s.cluster.RecordEvent(cluster.EventRebalancePull, "",
			fmt.Sprintf("%s: pulled %d records", pass, rep.Pulled))
	}
	if rep.Pushed > 0 {
		s.cluster.RecordEvent(cluster.EventRebalancePush, "",
			fmt.Sprintf("%s: pushed %d records (%d applied)", pass, rep.Pushed, rep.Applied))
	}
	if rep.Dropped > 0 {
		s.cluster.RecordEvent(cluster.EventRebalanceHandoff, "",
			fmt.Sprintf("%s: handed off %d records", pass, rep.Dropped))
	}
	if rep.Pushed+rep.Pulled+rep.Dropped+rep.Errors > 0 {
		s.log.InfoContext(ctx, "rebalance pass done", "report", rep.String())
	}
	return rep, nil
}

func memberIDs(ms []cluster.Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.ID
	}
	return out
}

// KickRebalance schedules a repair pass as soon as the background
// rebalancer is idle (non-blocking; coalesces with a pending kick).
// View adoptions kick automatically.
func (s *Server) KickRebalance() {
	select {
	case s.rbKick <- struct{}{}:
	default:
	}
}

// StartPeerLoops starts this node's two peer loops as tick loops on
// the server's clock: a probe round every probe interval (none when
// probe <= 0: failure detection is then passive only, from failed peer
// requests) and, with a store, the repair loop — a pass every rebalance
// interval plus one on every kick (membership changes kick
// automatically; at rebalance == 0 kicks only, and at < 0 no loop, so
// repair runs only when driven, as LocalCluster.Settle does). Neither
// loop runs before its first interval; a kick raised before the start,
// such as a -join node's view adoption, runs a pass at once. Only the
// first call starts anything, and none after Close; Close ends both
// loops, so once it returns the node sends no further peer request
// from them. A server without a cluster ignores the call.
func (s *Server) StartPeerLoops(probe, rebalance time.Duration) {
	if s.cluster == nil {
		return
	}
	s.loopsOnce.Do(func() {
		if probe > 0 {
			s.tickLoop(probe, nil, s.cluster.ProbeOnce)
		}
		if s.store != nil && rebalance >= 0 {
			// RebalanceOnce logs its own per-pass summary under the pass
			// id; its only error is the loop context's cancellation, which
			// ends the loop.
			s.tickLoop(rebalance, s.rbKick, func(ctx context.Context) { _, _ = s.RebalanceOnce(ctx) })
		}
	})
}
