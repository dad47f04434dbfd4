package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// Health is a peer's observed liveness state as seen from this node.
// The progression is purely local: every node keeps its own failure
// counts and may disagree transiently with its peers.
type Health int

const (
	// Ok: the last probe or forward succeeded.
	Ok Health = iota
	// Suspect: at least one recent failure, but fewer than the down
	// threshold — observed and reported, still routed in its ring place.
	Suspect
	// Down: consecutive failures reached the threshold — routed around
	// entirely until a probe succeeds again.
	Down
)

func (h Health) String() string {
	switch h {
	case Ok:
		return "ok"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "unknown"
}

// Heartbeat is the GET /healthz reply. A clustered node piggybacks its
// view identity on it; a bare server answers just ok.
type Heartbeat struct {
	OK bool `json:"ok"`
	*ViewStamp
}

// ViewStamp is the view identity a probe reply carries: the epoch and
// the membership fingerprint as 16 hex digits (absent from peers that
// predate fingerprint piggybacking).
type ViewStamp struct {
	Epoch  int64  `json:"epoch"`
	ViewFp string `json:"viewFp,omitempty"`
}

// Doer executes one HTTP request. *http.Client satisfies it; in-process
// harnesses substitute a switchboard that routes to handlers directly.
type Doer interface {
	Do(req *http.Request) (*http.Response, error)
}

// healthLocked derives a peer's health from its failure count; caller
// holds hmu.
func (c *Cluster) healthLocked(id string) Health {
	switch f := c.fails[id]; {
	case f == 0:
		return Ok
	case f < c.downAfter:
		return Suspect
	default:
		return Down
	}
}

// Health reports a peer's current health as seen from this node (self
// and unknown ids are Ok).
func (c *Cluster) Health(id string) Health {
	if id == c.self {
		return Ok
	}
	c.hmu.Lock()
	defer c.hmu.Unlock()
	return c.healthLocked(id)
}

// ReportFailure records one failure of a peer as if a request to it
// had failed, advancing Ok → Suspect → Down: how a test sets a peer's
// health without a transport fault.
func (c *Cluster) ReportFailure(id string) { c.report(id, false) }

// report applies one outcome to a peer's failure count — a success
// resets it — and, when the derived state changed, appends the
// transition to the timeline as this node's local observation (nodes
// may transiently disagree, and that disagreement is itself worth
// seeing).
func (c *Cluster) report(id string, ok bool) {
	if id == c.self {
		return
	}
	c.hmu.Lock()
	from := c.healthLocked(id)
	if ok {
		c.fails[id] = 0
	} else if c.fails[id] < c.downAfter {
		c.fails[id]++
	}
	to := c.healthLocked(id)
	c.hmu.Unlock()
	if from == to {
		return
	}
	typ := EventMemberOk
	switch to {
	case Suspect:
		typ = EventMemberSuspect
	case Down:
		typ = EventMemberDown
	}
	c.events.Append(typ, id, c.Epoch(), "was "+from.String())
}

// ProbeOnce is one probe round: every peer of the adopted view gets a
// GET /healthz, concurrently, each bounded by the probe timeout, and
// its outcome is a health report like any peer request's. A reply's
// view stamp is the anti-entropy signal: a peer ahead of this node, or
// diverged at its epoch, starts a view sync inside the round, so the
// round returns only once that sync has finished and canceling ctx
// ends both. The server's tick loop runs one round per probe interval.
func (c *Cluster) ProbeOnce(ctx context.Context) {
	c.vmu.RLock()
	peers := make([]Member, 0, len(c.view.Members))
	for _, m := range c.view.Members {
		if m.ID != c.self {
			peers = append(peers, m)
		}
	}
	c.vmu.RUnlock()

	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p Member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.timeout)
			defer cancel()
			resp, err := c.Forward(pctx, p, http.MethodGet, "/healthz", "", "", nil)
			if err != nil {
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			// Epoch piggyback: a clustered peer's /healthz reply names its
			// view epoch and membership fingerprint, which is how a node
			// notices — on the probe cadence, no extra round-trips — that
			// a join or drain happened while it was partitioned or
			// booting, or that the fleet split on concurrent changes at
			// its own epoch. The sync gets the round's context, not pctx,
			// which bounds only this probe.
			var hb Heartbeat
			if json.Unmarshal(body, &hb) == nil && hb.ViewStamp != nil && (hb.Epoch > 0 || hb.ViewFp != "") {
				fp, _ := strconv.ParseUint(hb.ViewFp, 16, 64)
				c.observePeerEpoch(ctx, p.ID, hb.Epoch, fp)
			}
		}(p)
	}
	wg.Wait()
}

// observePeerEpoch reacts to one probe reply's view stamp: a peer
// announcing a higher epoch means this node missed a membership change;
// a peer at our epoch with a different membership fingerprint means the
// fleet split on concurrent changes. Either way one sync reconciles (see
// syncViewWith). At most one sync runs at a time; a probe that finds one
// running skips, and the next round retries.
func (c *Cluster) observePeerEpoch(ctx context.Context, id string, epoch int64, fp uint64) {
	cur := c.ViewID()
	if epoch < cur.Epoch || (epoch == cur.Epoch && (fp == 0 || fp == cur.Fp)) {
		return
	}
	if !c.syncing.CompareAndSwap(false, true) {
		return
	}
	defer c.syncing.Store(false)
	c.syncViewWith(ctx, id)
}
