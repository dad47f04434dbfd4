package cluster

import (
	"sync"

	"repro/internal/clock"
)

// Event types recorded on the cluster timeline. The serving layer adds
// its rebalance pass events under the Rebalance* types and SLO alert
// transitions under the SLO* types; everything else is emitted by this
// package.
const (
	EventEpochAdopted     = "epoch-adopted"
	EventMemberOk         = "member-ok"
	EventMemberSuspect    = "member-suspect"
	EventMemberDown       = "member-down"
	EventRebalancePull    = "rebalance-pull"
	EventRebalancePush    = "rebalance-push"
	EventRebalanceHandoff = "rebalance-handoff"
	EventSLOWarning       = "slo-warning"
	EventSLOPage          = "slo-page"
	EventSLOResolved      = "slo-resolved"
)

// Event is one entry on a node's cluster timeline: what this node
// observed, when, about whom. Seq is a per-node monotone sequence
// number so a poller can resume with ?since=<last seq> and never
// miss or re-read an entry that is still retained.
type Event struct {
	Seq        int64  `json:"seq"`
	TimeUnixNs int64  `json:"timeUnixNs"`
	Type       string `json:"type"`
	Node       string `json:"node"`
	Member     string `json:"member,omitempty"`
	Epoch      int64  `json:"epoch,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// eventLogSize is how many events a node's timeline retains.
const eventLogSize = 512

// EventLog is a bounded ring of cluster events, stamped by the wall
// clock read through clock.System (the one sanctioned read).
type EventLog struct {
	node string

	mu   sync.Mutex
	ring []Event
	next int
	size int
	seq  int64
}

// NewEventLog builds one node's log, retaining its last eventLogSize
// events.
func NewEventLog(node string) *EventLog {
	return &EventLog{node: node, ring: make([]Event, eventLogSize)}
}

// Append records one event. Safe for concurrent use; cheap enough for
// health-transition and rebalance paths (no I/O, one short lock).
func (l *EventLog) Append(typ, member string, epoch int64, detail string) {
	now := clock.System.Now().UnixNano()
	l.mu.Lock()
	l.seq++
	l.ring[l.next] = Event{
		Seq:        l.seq,
		TimeUnixNs: now,
		Type:       typ,
		Node:       l.node,
		Member:     member,
		Epoch:      epoch,
		Detail:     detail,
	}
	l.next = (l.next + 1) % len(l.ring)
	if l.size < len(l.ring) {
		l.size++
	}
	l.mu.Unlock()
}

// Events returns retained events with Seq > since, oldest first. A
// caller that fell further behind than the ring retains simply gets
// the oldest retained entries (the gap is visible in the Seq numbers).
func (l *EventLog) Events(since int64) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.size)
	for i := 0; i < l.size; i++ {
		ev := l.ring[(l.next-l.size+i+len(l.ring))%len(l.ring)]
		if ev.Seq > since {
			out = append(out, ev)
		}
	}
	return out
}
