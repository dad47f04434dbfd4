// Package metrics is the serving layer's observability kernel:
// lock-cheap atomic counters and streaming latency histograms, grouped
// in a registry of labeled series and rendered in the Prometheus text
// exposition format. It exists so the hot path (every HTTP request, every
// load-generator op) can record a sample with a handful of atomic adds —
// no allocation, no lock contention — while scrapers and reports read
// consistent snapshots on the side.
//
// Histograms use fixed log-spaced buckets (factor-2, from 50µs to ~14min)
// so p50/p95/p99 estimates stay within a factor-2 relative error bound at
// any traffic volume with O(1) memory; Snapshot interpolates linearly
// inside the winning bucket, which in practice lands much closer.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram bucket layout: bucket i counts observations with
// d <= minBucket << i; one overflow bucket catches the rest.
const (
	numBuckets = 25
	minBucket  = 50 * time.Microsecond // bucket 0 upper bound
)

// NumHistBuckets is the total bucket count of every Histogram,
// including the overflow bucket — the length consumers (the SLO
// engine's window folds, fleet histogram-bucket merges) size their
// arrays by.
const NumHistBuckets = numBuckets + 1

// bucketBound returns bucket i's inclusive upper bound.
func bucketBound(i int) time.Duration { return minBucket << uint(i) }

// BucketUpperBound returns bucket i's inclusive upper bound; the
// overflow bucket (i >= NumHistBuckets-1) reports the maximum
// representable duration, i.e. effectively unbounded.
func BucketUpperBound(i int) time.Duration {
	if i >= numBuckets {
		return time.Duration(math.MaxInt64)
	}
	return bucketBound(i)
}

// Histogram is a fixed-bucket streaming latency histogram. All methods
// are safe for concurrent use; Observe is a few atomic adds.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Uint64 // +1: overflow
	count   atomic.Uint64
	sum     atomic.Int64  // nanoseconds
	max     atomic.Uint64 // nanoseconds

	// exemplars[i] holds the trace id of the last sampled observation
	// that landed in bucket i (nil until a traced request does), so a
	// latency breach in bucket i links straight to a /debug/traces
	// entry. Stored as a pointer swap: readers never see a torn string.
	exemplars [numBuckets + 1]atomic.Pointer[string]
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	h.observe(d, "")
}

// ObserveTrace records one duration and, when traceID is non-empty,
// retains it as the bucket's exemplar — the trace id of the most
// recent sampled observation in that latency band.
func (h *Histogram) ObserveTrace(d time.Duration, traceID string) {
	h.observe(d, traceID)
}

func (h *Histogram) observe(d time.Duration, traceID string) {
	if d < 0 {
		d = 0
	}
	idx := numBuckets // overflow
	for i := 0; i < numBuckets; i++ {
		if d <= bucketBound(i) {
			idx = i
			break
		}
	}
	if traceID != "" {
		id := traceID
		h.exemplars[idx].Store(&id)
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if uint64(d) <= cur || h.max.CompareAndSwap(cur, uint64(d)) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Max     time.Duration
	Buckets [numBuckets + 1]uint64

	// Exemplars[i] is the last sampled trace id seen in bucket i (""
	// when no traced observation has landed there).
	Exemplars [numBuckets + 1]string
}

// Snapshot copies the histogram state. Concurrent Observes may land
// between field reads; the drift is at most the in-flight samples.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		if p := h.exemplars[i].Load(); p != nil {
			s.Exemplars[i] = *p
		}
	}
	s.Count = h.count.Load()
	s.Sum = time.Duration(h.sum.Load())
	s.Max = time.Duration(h.max.Load())
	return s
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// within the winning bucket. Returns 0 on an empty histogram; the
// overflow bucket reports the observed maximum.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next || i == numBuckets {
			if i == numBuckets {
				return s.Max
			}
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if hi > s.Max && s.Max > lo {
				hi = s.Max // tighten the last occupied bucket
			}
			frac := (rank - cum) / float64(b)
			if frac < 0 {
				frac = 0
			}
			v := lo + time.Duration(frac*float64(hi-lo))
			// Never overshoot the observed maximum: with every sample
			// clamped to zero, Max==0 but bucket 0's bound is 50µs, and
			// uncapped interpolation would report a latency no request
			// ever saw.
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum = next
	}
	return s.Max
}

// Mean returns the average observed duration (0 when empty).
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Labels name one series within a metric family. Keys and values must
// not contain '"' or '\n' (they are rendered into the exposition format
// unescaped).
type Labels map[string]string

// render canonicalizes labels: sorted keys, Prometheus selector syntax.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, l[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// clone copies the label set so registry entries are immune to caller
// mutation of the map after registration. An unlabelled series clones
// to nil, so the event counters cost a Gather (and so /stats) nothing.
func (l Labels) clone() Labels {
	if len(l) == 0 {
		return nil
	}
	out := make(Labels, len(l))
	for k, v := range l {
		out[k] = v
	}
	return out
}

// CounterPoint is one counter series in a Gather result.
type CounterPoint struct {
	Name   string
	Labels Labels
	Value  uint64
}

// HistogramPoint is one histogram series in a Gather result.
type HistogramPoint struct {
	Name   string
	Labels Labels
	Snap   HistSnapshot
}

// GaugePoint is one gauge series in a GatherGauges result.
type GaugePoint struct {
	Name   string
	Labels Labels
	Value  float64
}

// counterEntry is read through fn: c.Value for a stored counter, the
// callback alone (c nil) for a derived one (see CounterFunc).
type counterEntry struct {
	name   string
	labels Labels
	c      *Counter
	fn     func() uint64
}

type gaugeEntry struct {
	name   string
	labels Labels
	fn     func() float64
}

type histEntry struct {
	name   string
	labels Labels
	h      *Histogram
}

// Registry holds named, labeled series. Get-or-create is a short
// critical section; the returned Counter/Histogram pointers are stable,
// so hot paths may cache them and bypass the registry entirely.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*counterEntry
	hists    map[string]*histEntry
	gauges   map[string]*gaugeEntry
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*counterEntry{},
		hists:    map[string]*histEntry{},
		gauges:   map[string]*gaugeEntry{},
	}
}

func seriesKey(name string, labels Labels) string { return name + labels.render() }

// Counter returns (creating if needed) the counter series name{labels}.
// It panics if that series is a derived counter: there is nothing to
// increment.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.counters[key]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		defer r.mu.Unlock()
		if e, ok = r.counters[key]; !ok {
			c := &Counter{}
			e = &counterEntry{name: name, labels: labels.clone(), c: c, fn: c.Value}
			r.counters[key] = e
		}
	}
	if e.c == nil {
		panic("metrics: " + key + " is a derived counter")
	}
	return e.c
}

// CounterFunc registers (or replaces) a derived counter: a series
// exposed with counter type whose value fn computes at gather time from
// counters stored elsewhere, so one event is never counted twice to
// appear under two names. fn runs outside the registry lock and may
// read the registry (SumCounters). It panics if the series already
// holds a stored counter, whose increments would silently vanish.
func (r *Registry) CounterFunc(name string, labels Labels, fn func() uint64) {
	key := seriesKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.counters[key]; ok && e.c != nil {
		panic("metrics: " + key + " is a stored counter")
	}
	r.counters[key] = &counterEntry{name: name, labels: labels.clone(), fn: fn}
}

// SumCounters adds up the stored counters named name whose labels
// include every pair in match (nil: the whole family); derived counters
// are never summed. It walks counters only — no histogram is
// snapshotted and nothing is allocated — which is what lets /stats
// report a labelled family as one scalar.
func (r *Registry) SumCounters(name string, match Labels) uint64 {
	var sum uint64
	r.mu.RLock()
	defer r.mu.RUnlock()
next:
	for _, e := range r.counters {
		if e.name != name || e.c == nil {
			continue
		}
		for k, v := range match {
			if e.labels[k] != v {
				continue next
			}
		}
		sum += e.c.Value()
	}
	return sum
}

// Histogram returns (creating if needed) the histogram series
// name{labels}.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e, ok := r.hists[key]
	r.mu.RUnlock()
	if ok {
		return e.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.hists[key]; ok {
		return e.h
	}
	e = &histEntry{name: name, labels: labels.clone(), h: &Histogram{}}
	r.hists[key] = e
	return e.h
}

// RegisterGauge registers (or replaces) a callback gauge: fn is
// invoked at gather/scrape time, so the series always reports the
// current value with no update loop. fn must be safe for concurrent
// use and must not block — runtime introspection (goroutine counts,
// memstats) is the intended shape.
func (r *Registry) RegisterGauge(name string, labels Labels, fn func() float64) {
	key := seriesKey(name, labels)
	r.mu.Lock()
	r.gauges[key] = &gaugeEntry{name: name, labels: labels.clone(), fn: fn}
	r.mu.Unlock()
}

// GatherGauges evaluates every gauge callback, sorted by series key.
// Callbacks run outside the registry lock so a slow one cannot stall
// hot-path get-or-create.
func (r *Registry) GatherGauges() []GaugePoint {
	r.mu.RLock()
	entries := make([]*gaugeEntry, 0, len(r.gauges))
	keys := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		entries = append(entries, r.gauges[k])
	}
	r.mu.RUnlock()
	out := make([]GaugePoint, 0, len(entries))
	for _, e := range entries {
		out = append(out, GaugePoint{Name: e.name, Labels: e.labels.clone(), Value: e.fn()})
	}
	return out
}

// Gather snapshots every series, sorted by series key so output order is
// stable across calls. Counter values are read after the lock is
// released: a derived counter's callback may take it again.
func (r *Registry) Gather() ([]CounterPoint, []HistogramPoint) {
	r.mu.RLock()
	ckeys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		ckeys = append(ckeys, k)
	}
	hkeys := make([]string, 0, len(r.hists))
	for k := range r.hists {
		hkeys = append(hkeys, k)
	}
	sort.Strings(ckeys)
	sort.Strings(hkeys)
	ces := make([]*counterEntry, 0, len(ckeys))
	for _, k := range ckeys {
		ces = append(ces, r.counters[k])
	}
	hs := make([]HistogramPoint, 0, len(hkeys))
	for _, k := range hkeys {
		e := r.hists[k]
		hs = append(hs, HistogramPoint{Name: e.name, Labels: e.labels.clone(), Snap: e.h.Snapshot()})
	}
	r.mu.RUnlock()
	cs := make([]CounterPoint, 0, len(ces))
	for _, e := range ces {
		cs = append(cs, CounterPoint{Name: e.name, Labels: e.labels.clone(), Value: e.fn()})
	}
	return cs, hs
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (counters, then histograms with cumulative _bucket/_sum/_count
// series), in stable sorted order.
func (r *Registry) WritePrometheus(w io.Writer) {
	cs, hs := r.Gather()
	lastType := ""
	for _, c := range cs {
		if c.Name != lastType {
			fmt.Fprintf(w, "# TYPE %s counter\n", c.Name)
			lastType = c.Name
		}
		fmt.Fprintf(w, "%s%s %d\n", c.Name, c.Labels.render(), c.Value)
	}
	lastType = ""
	for _, g := range r.GatherGauges() {
		if g.Name != lastType {
			fmt.Fprintf(w, "# TYPE %s gauge\n", g.Name)
			lastType = g.Name
		}
		fmt.Fprintf(w, "%s%s %g\n", g.Name, g.Labels.render(), g.Value)
	}
	lastType = ""
	for _, h := range hs {
		if h.Name != lastType {
			fmt.Fprintf(w, "# TYPE %s histogram\n", h.Name)
			lastType = h.Name
		}
		cum := uint64(0)
		for i := 0; i <= numBuckets; i++ {
			cum += h.Snap.Buckets[i]
			le := "+Inf"
			if i < numBuckets {
				le = formatSeconds(bucketBound(i))
			}
			lb := Labels{"le": le}
			for k, v := range h.Labels {
				lb[k] = v
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, lb.render(), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, h.Labels.render(), formatSeconds(h.Snap.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", h.Name, h.Labels.render(), h.Snap.Count)
	}
}

// formatSeconds renders a duration as decimal seconds with no trailing
// zero noise (bucket bounds are exact binary multiples of 50µs).
func formatSeconds(d time.Duration) string {
	s := d.Seconds()
	if s == math.Trunc(s) {
		return fmt.Sprintf("%d", int64(s))
	}
	return fmt.Sprintf("%g", s)
}

// EndpointSummary is the folded view of one endpoint's request series:
// totals, counts by status code, and latency quantiles.
type EndpointSummary struct {
	Endpoint string
	Requests uint64
	Codes    map[string]uint64
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Mean     time.Duration
	Max      time.Duration
}

// SummarizeEndpoints folds the registry's series into per-endpoint
// summaries, reading counters from counterName (labels: endpoint, code)
// and latency histograms from histName (label: endpoint). The result is
// sorted by endpoint. Both the serving layer's /stats and the load
// harness's report use this one fold, so their numbers reconcile by
// construction.
func (r *Registry) SummarizeEndpoints(counterName, histName string) []EndpointSummary {
	counters, hists := r.Gather()
	byEndpoint := map[string]*EndpointSummary{}
	get := func(ep string) *EndpointSummary {
		es, ok := byEndpoint[ep]
		if !ok {
			es = &EndpointSummary{Endpoint: ep, Codes: map[string]uint64{}}
			byEndpoint[ep] = es
		}
		return es
	}
	for _, c := range counters {
		if c.Name != counterName {
			continue
		}
		es := get(c.Labels["endpoint"])
		es.Codes[c.Labels["code"]] += c.Value
		es.Requests += c.Value
	}
	for _, h := range hists {
		if h.Name != histName {
			continue
		}
		es := get(h.Labels["endpoint"])
		es.P50 = h.Snap.Quantile(0.50)
		es.P95 = h.Snap.Quantile(0.95)
		es.P99 = h.Snap.Quantile(0.99)
		es.Mean = h.Snap.Mean()
		es.Max = h.Snap.Max
	}
	out := make([]EndpointSummary, 0, len(byEndpoint))
	for _, es := range byEndpoint {
		out = append(out, *es)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}
