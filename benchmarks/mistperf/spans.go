package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval. Spans of one op share Op; Parent is
// the span that caused this one ("" for the op's root). Src tells
// whether the harness recorded it around a call into a layer or the
// program recorded it itself and the harness collected it through the
// program's public trace surface.
type span struct {
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"startUnixNs"`
	EndNs   int64  `json:"endUnixNs"`
	Src     string `json:"src"` // "harness" or "program"
	Node    string `json:"node,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off harness: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID atomic.Uint64
	nextOp atomic.Int64
	// keepOps is the last op whose spans are kept (see closeIfFull).
	keepOps int64
	// rec collects the program's own search spans (warm-adapt, sweep,
	// sg, intra-sweep, inter-stage) for ops that call the tuner
	// directly; fleet ops use each server's recorder instead.
	rec *traceRecorder
}

func newTracer() *tracer {
	return &tracer{keepOps: math.MaxInt64, rec: traceNewRecorder(traceOptions{SampleEvery: 1, Capacity: 64})}
}

// live is a started span.
type live struct {
	t *tracer
	s span
}

func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	return t.nextOp.Add(1)
}

// opTraceID is the 16-hex-digit id the program's tracing sees for op.
func opTraceID(op int64) string { return fmt.Sprintf("%016x", uint64(op)) }

func (t *tracer) start(op int64, parent *live, name string) *live {
	if t == nil {
		return nil
	}
	l := &live{t: t}
	// Harness ids carry a top nibble no 16-hex program id is likely to
	// collide with inside one op.
	l.s.ID = fmt.Sprintf("b%015x", t.nextID.Add(1))
	if parent != nil {
		l.s.Parent = parent.s.ID
	}
	l.s.Op, l.s.Name, l.s.Src = op, name, "harness"
	l.s.StartNs = time.Now().UnixNano()
	return l
}

func (l *live) id() string {
	if l == nil {
		return ""
	}
	return l.s.ID
}

func (l *live) end() {
	if l == nil {
		return
	}
	l.s.EndNs = time.Now().UnixNano()
	l.t.mu.Lock()
	if l.s.Op <= l.t.keepOps {
		l.t.spans = append(l.t.spans, l.s)
	}
	l.t.mu.Unlock()
}

// tuneTraced runs tn under a program trace and hangs the program's
// spans below the harness span that caused them.
func (t *tracer) tuneTraced(op int64, parent *live, tn *coreTuner) (*coreResult, error) {
	if t == nil {
		return tn.Tune()
	}
	ctx, root := t.rec.StartTrace(context.Background(), "tune", "")
	res, err := tn.TuneContext(ctx)
	tid := root.TraceID()
	rootID := root.ID()
	root.End()
	for _, td := range t.rec.Traces(traceFilter{TraceID: tid}) {
		t.adopt(op, td, rootID, parent.id())
	}
	return res, err
}

// adopt copies one published portion of a program trace into the
// harness's span list. A span whose parent is dropID (a program root
// that merely duplicates a harness span) is re-parented to newParent
// and dropID itself is skipped.
func (t *tracer) adopt(op int64, td traceData, dropID, newParent string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if op > t.keepOps {
		return
	}
	for _, sd := range td.Spans {
		if sd.ID == dropID {
			continue
		}
		p := sd.Parent
		if p == dropID {
			p = newParent
		}
		t.spans = append(t.spans, span{
			ID: sd.ID, Parent: p, Op: op, Name: sd.Name,
			StartNs: sd.StartUnixNs, EndNs: sd.StartUnixNs + sd.DurationNs,
			Src: "program", Node: td.Node,
		})
	}
}

// closeIfFull stops keeping the spans of later ops once the tracer
// holds spanCap spans. Later ops are still traced — spans are started,
// requests carry trace headers — so the overhead is still measured.
func (t *tracer) closeIfFull() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanCap && t.keepOps == math.MaxInt64 {
		t.keepOps = t.nextOp.Load()
	}
}

// keeping reports whether spans of new ops are still kept.
func (t *tracer) keeping() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.keepOps == math.MaxInt64
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the span file of a traced run.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// spanStat is the per-name fold of a span list.
type spanStat struct {
	count  int
	durNs  int64 // Σ duration
	selfNs int64 // Σ (duration − part of the interval covered by children)
}

// foldSpans computes, per span name, count, total duration and total
// self time. A span's self time is its duration minus the union of its
// children's intervals clipped to its own (children of concurrent
// workers overlap, so their lengths cannot simply be summed).
func foldSpans(spans []span) map[string]*spanStat {
	children := map[string][]int{}
	for i, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		dur := s.EndNs - s.StartNs
		st.count++
		st.durNs += dur
		st.selfNs += dur - coveredNs(s, spans, children[s.ID])
	}
	return out
}

// coveredNs is the length of the union of the kids' intervals, clipped
// to parent's interval.
func coveredNs(parent span, spans []span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := spans[k].StartNs, spans[k].EndNs
		if a < parent.StartNs {
			a = parent.StartNs
		}
		if b > parent.EndNs {
			b = parent.EndNs
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
