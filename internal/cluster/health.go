package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/trace"
)

// Health is a peer's observed liveness state as seen from this node.
// The progression is purely local: every node runs its own checker and
// may disagree transiently with its peers.
type Health int

const (
	// Ok: the last probe or forward succeeded.
	Ok Health = iota
	// Suspect: at least one recent failure, but fewer than the down
	// threshold — still routed, after healthy peers.
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

// Checker tracks peer health from two signals: active /healthz probes
// (ProbeOnce, typically on a timer) and passive reports from the
// forwarding path (ReportFailure/ReportSuccess), so a dead peer is
// noticed at the first failed forward, not only at the next probe tick.
// Probe replies that carry a view epoch are surfaced through the
// OnPeerEpoch hook — the signal the elastic membership layer uses to
// notice it fell behind a join or drain.
type Checker struct {
	self      string
	client    Doer
	timeout   time.Duration
	downAfter int
	clock     clock.Ticking

	// Hooks, installed by cluster.New before any traffic and called
	// outside mu. onEpoch fires (from probe goroutines) when a probe
	// reply carries a view epoch; fp is the peer's membership
	// fingerprint (0 for peers that predate fingerprint piggybacking),
	// and ctx is the probe round's, so work the hook starts is canceled
	// when the prober stops. onTransition fires when a peer's derived
	// health state changes — the cluster event timeline hangs here.
	onEpoch      func(ctx context.Context, id string, epoch int64, fp uint64)
	onTransition func(id string, from, to Health)

	mu    sync.Mutex
	fails map[string]int // consecutive failures by peer id
	addrs map[string]string
}

// NewChecker builds a checker over the peer set (self is always Ok and
// never probed). downAfter is the consecutive-failure count at which a
// peer turns Down (min 1); timeout bounds one probe.
func NewChecker(self string, members []Member, client Doer, timeout time.Duration, downAfter int) *Checker {
	if downAfter < 1 {
		downAfter = 1
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	c := &Checker{
		self:      self,
		client:    client,
		timeout:   timeout,
		downAfter: downAfter,
		clock:     clock.System,
		fails:     map[string]int{},
	}
	c.SetPeers(members)
	return c
}

// SetPeers replaces the probed peer set (self excluded automatically)
// after a membership change. Health state carries over for retained
// peers — a Down node that stays in the ring stays Down — and is
// dropped for removed ones, so a drained-then-rejoining node starts
// fresh.
func (c *Checker) SetPeers(members []Member) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := make(map[string]string, len(members))
	for _, m := range members {
		if m.ID != c.self {
			next[m.ID] = m.Addr
		}
	}
	for id := range c.fails {
		if _, keep := next[id]; !keep {
			delete(c.fails, id)
		}
	}
	c.addrs = next
}

// statusLocked derives a peer's health from its failure count; caller
// holds mu.
func (c *Checker) statusLocked(id string) Health {
	switch f := c.fails[id]; {
	case f == 0:
		return Ok
	case f < c.downAfter:
		return Suspect
	default:
		return Down
	}
}

// Status reports a peer's current health (self and unknown ids are Ok).
func (c *Checker) Status(id string) Health {
	if id == c.self {
		return Ok
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statusLocked(id)
}

// ReportSuccess records a successful interaction with a peer, resetting
// it to Ok.
func (c *Checker) ReportSuccess(id string) { c.report(id, true) }

// ReportFailure records a failed interaction with a peer (transport
// error or 5xx), advancing Ok → Suspect → Down.
func (c *Checker) ReportFailure(id string) { c.report(id, false) }

// report applies one outcome to a peer's failure count and fires the
// transition hook, outside the lock, when the derived state changed.
func (c *Checker) report(id string, ok bool) {
	if id == c.self {
		return
	}
	c.mu.Lock()
	from := c.statusLocked(id)
	if ok {
		c.fails[id] = 0
	} else if c.fails[id] < c.downAfter {
		c.fails[id]++
	}
	to := c.statusLocked(id)
	c.mu.Unlock()
	if c.onTransition != nil && from != to {
		c.onTransition(id, from, to)
	}
}

// send is the one member-to-member request: every forward, peer call
// and probe leaves this node through it. The body is replayed from
// bytes, request id and content type are propagated, the sender's trace
// context is injected (the receiver's root span joins the sender's
// trace under its active span), and HeaderForwardedBy pins the hop
// count to one. The outcome is the passive health signal, so a dead
// peer is noticed at the first failed request: a transport error or a
// 5xx (live but unwell — still returned, for the caller to relay or
// retry) counts as a failure, anything else as a success.
func (c *Checker) send(ctx context.Context, m Member, method, path, requestID, contentType string, body []byte) (*http.Response, error) {
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
	if err != nil || resp.StatusCode >= http.StatusInternalServerError {
		c.ReportFailure(m.ID)
	} else {
		c.ReportSuccess(m.ID)
	}
	return resp, err
}

// ProbeOnce probes every peer's /healthz concurrently and records the
// outcomes. One round is bounded by the checker's probe timeout.
func (c *Checker) ProbeOnce(ctx context.Context) {
	c.mu.Lock()
	peers := make([]Member, 0, len(c.addrs))
	for id, addr := range c.addrs {
		peers = append(peers, Member{ID: id, Addr: addr})
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p Member) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, c.timeout)
			defer cancel()
			resp, err := c.send(pctx, p, http.MethodGet, "/healthz", "", "", nil)
			if err != nil {
				return
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
			// Epoch piggyback: a clustered peer's /healthz reply names its
			// view epoch and membership fingerprint; surfacing them here
			// is what lets a node notice — on the existing probe cadence,
			// no extra round-trips — that a join or drain happened while
			// it was partitioned or booting, or that the fleet split on
			// concurrent changes at its own epoch.
			var hb Heartbeat
			if json.Unmarshal(body, &hb) == nil && hb.ViewStamp != nil && (hb.Epoch > 0 || hb.ViewFp != "") {
				fp, _ := strconv.ParseUint(hb.ViewFp, 16, 64)
				// The hook gets the round's context (not the per-probe
				// pctx, which expires with this reply): view syncs it
				// spawns should outlive one probe but die with the
				// prober.
				if c.onEpoch != nil {
					c.onEpoch(ctx, p.ID, hb.Epoch, fp)
				}
			}
		}(p)
	}
	wg.Wait()
}

// Run probes on the interval until ctx is canceled. An immediate first
// round runs before the first tick so a fresh node converges quickly.
func (c *Checker) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	c.ProbeOnce(ctx)
	tick, stop := c.clock.Ticker(interval)
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			c.ProbeOnce(ctx)
		}
	}
}
