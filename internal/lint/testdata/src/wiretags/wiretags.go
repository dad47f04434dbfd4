// Package wiretags exercises the wiretags analyzer: in a struct that
// already carries json tags, untagged exported fields, duplicate tag
// names, and tagged unexported fields are findings; untagged internal
// structs, embedded fields, and "-" fields are clean. A map literal as
// a writeJSON reply body is a finding; a named struct or a map variable
// is not.
package wiretags

// Heartbeat is a wire struct (it has json tags) with every defect
// class.
type Heartbeat struct {
	OK    bool   `json:"ok"`
	Epoch int64  `json:"epoch"`
	Term  int64  `json:"epoch"` // want `duplicate json tag "epoch" in wire struct Heartbeat`
	Addr  string // want `exported field Heartbeat\.Addr has no json tag`
	seq   int    `json:"seq"` // want `unexported field Heartbeat\.seq carries a json tag but is never encoded`
}

// view is internal (no tags at all): not a wire struct, untagged
// exported fields are fine.
type view struct {
	Members []string
	epoch   int64
}

// Envelope is clean: embedded fields inline their own tagged fields,
// and "-" explicitly excludes a field from the wire.
type Envelope struct {
	Heartbeat
	Kind string `json:"kind"`
	Skip string `json:"-"`
}

func writeJSON(status int, v any) {}

func replies(counts map[string]int) {
	writeJSON(200, map[string]any{"ok": true}) // want `map literal as a writeJSON reply body`
	writeJSON(200, Envelope{Kind: "ack"})
	writeJSON(200, counts)
}
