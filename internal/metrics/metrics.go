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
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
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

// Labels name one series within a metric family. Keys must be valid
// Prometheus label names, and a histogram's keys must not include "le",
// which its bucket lines carry. Values are rendered Go-quoted (the %q
// verb, strconv.Quote): `\` and `"` are escaped, as the exposition
// format requires, and so are a newline, a tab and every other
// non-printable rune; printable non-ASCII text passes through as is.
type Labels map[string]string

// keys returns l's keys in sorted order.
func (l Labels) keys() []string {
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// appendPair appends one label as k="v".
func appendPair(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, '=')
	return strconv.AppendQuote(b, v)
}

// render canonicalizes labels: sorted keys, Prometheus selector syntax.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	b := []byte{'{'}
	for i, k := range l.keys() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPair(b, k, l[k])
	}
	return string(append(b, '}'))
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

// series is what every registry entry shares: its family, its labels,
// and its text, name{labels} rendered once at registration — the
// series' identity in the registry and the head of its exposition line.
type series struct {
	name   string
	labels Labels
	text   string
}

func newSeries(name string, labels Labels) series {
	return series{name: name, labels: labels.clone(), text: name + labels.render()}
}

func (s *series) id() *series { return s }

// entry is a registry entry of any kind.
type entry interface{ id() *series }

// find returns where the series name/text sits in s, sorted by family
// and then rendered labels, and whether it is there.
func find[E entry](s []E, name, text string) (int, bool) {
	return slices.BinarySearchFunc(s, name, func(e E, name string) int {
		if c := strings.Compare(e.id().name, name); c != 0 {
			return c
		}
		return strings.Compare(e.id().text, text)
	})
}

// with returns s with e stored at i, inserted or, when replace, in
// place of the entry there, always in a new array: the registry never
// writes a slice it has let go of, so a reader that copied the slice
// header under the lock walks it without the lock.
func with[E entry](s []E, i int, e E, replace bool) []E {
	if replace {
		s = slices.Clone(s)
		s[i] = e
		return s
	}
	return slices.Insert(slices.Clip(s), i, e)
}

// getOrCreate returns the entry of name{labels} in *list, creating it
// with mk if needed.
func getOrCreate[E entry](r *Registry, list *[]E, name string, labels Labels, mk func(series) E) E {
	text := name + labels.render()
	r.mu.RLock()
	i, ok := find(*list, name, text)
	var e E
	if ok {
		e = (*list)[i]
	}
	r.mu.RUnlock()
	if ok {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok = find(*list, name, text); ok {
		return (*list)[i]
	}
	e = mk(series{name: name, labels: labels.clone(), text: text})
	*list = with(*list, i, e, false)
	return e
}

// counterEntry is read through fn: c.Value for a stored counter, the
// callback alone (c nil) for a derived one (see CounterFunc).
type counterEntry struct {
	series
	c  *Counter
	fn func() uint64
}

type gaugeEntry struct {
	series
	fn func() float64
}

// histEntry keeps the text around each value of its exposition lines:
// bucket i's line is bucket + leText[i] + bucketEnd + cumulative count,
// the other two sum + seconds and count + observations.
type histEntry struct {
	series
	h                 *Histogram
	bucket, bucketEnd string
	sum, count        string
}

// leText is each bucket's le label value, rendered once: its upper
// bound in seconds as appendSeconds writes it (float rounding included:
// bucket 15's is 1.6383999999999999), and "+Inf" for the overflow
// bucket.
var leText = func() (t [NumHistBuckets]string) {
	for i := 0; i < numBuckets; i++ {
		t[i] = string(appendSeconds(nil, bucketBound(i)))
	}
	t[numBuckets] = "+Inf"
	return t
}()

// newHistEntry renders a histogram's line text, placing le among the
// series' own labels in key order.
func newHistEntry(s series) *histEntry {
	keys := s.labels.keys()
	at := sort.SearchStrings(keys, "le")
	b := append([]byte(s.name), "_bucket{"...)
	for _, k := range keys[:at] {
		b = append(appendPair(b, k, s.labels[k]), ',')
	}
	bucket := string(append(b, `le="`...))
	b = append(b[:0], '"')
	for _, k := range keys[at:] {
		b = appendPair(append(b, ','), k, s.labels[k])
	}
	lb := s.text[len(s.name):]
	return &histEntry{
		series: s, h: &Histogram{},
		bucket: bucket, bucketEnd: string(append(b, "} "...)),
		sum: s.name + "_sum" + lb + " ", count: s.name + "_count" + lb + " ",
	}
}

// Registry holds named, labeled series. Get-or-create is a short
// critical section; the returned Counter/Histogram pointers are stable,
// so hot paths may cache them and bypass the registry entirely.
type Registry struct {
	mu sync.RWMutex
	// Each kind's entries, sorted by family and then rendered labels,
	// so a family is one run; replaced whole on registration (see with).
	counters []*counterEntry
	gauges   []*gaugeEntry
	hists    []*histEntry

	// expoSize is the last exposition's length: the next scrape sizes
	// its one buffer by it.
	expoSize atomic.Int64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns (creating if needed) the counter series name{labels}.
// It panics if that series is a derived counter: there is nothing to
// increment.
func (r *Registry) Counter(name string, labels Labels) *Counter {
	e := getOrCreate(r, &r.counters, name, labels, func(s series) *counterEntry {
		c := &Counter{}
		return &counterEntry{series: s, c: c, fn: c.Value}
	})
	if e.c == nil {
		panic("metrics: " + e.text + " is a derived counter")
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
	e := &counterEntry{series: newSeries(name, labels), fn: fn}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := find(r.counters, name, e.text)
	if ok && r.counters[i].c != nil {
		panic("metrics: " + e.text + " is a stored counter")
	}
	r.counters = with(r.counters, i, e, ok)
}

// SumCounters adds up the stored counters named name whose labels
// include every pair in match (nil: the whole family); derived counters
// are never summed. It walks that family's counters only — no histogram
// is snapshotted and nothing is allocated — which is what lets /stats
// report a labelled family as one scalar.
func (r *Registry) SumCounters(name string, match Labels) uint64 {
	r.mu.RLock()
	cs := r.counters
	r.mu.RUnlock()
	i, _ := slices.BinarySearchFunc(cs, name, func(e *counterEntry, name string) int {
		return strings.Compare(e.name, name)
	})
	var sum uint64
next:
	for _, e := range cs[i:] {
		if e.name != name {
			break
		}
		if e.c == nil {
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
// name{labels}. It panics if labels has an "le" key.
func (r *Registry) Histogram(name string, labels Labels) *Histogram {
	if _, ok := labels["le"]; ok {
		panic("metrics: " + name + ": le is the bucket label")
	}
	return getOrCreate(r, &r.hists, name, labels, newHistEntry).h
}

// RegisterGauge registers (or replaces) a callback gauge: fn is
// invoked at gather/scrape time, so the series always reports the
// current value with no update loop. fn must be safe for concurrent
// use and must not block — runtime introspection (goroutine counts,
// memstats) is the intended shape.
func (r *Registry) RegisterGauge(name string, labels Labels, fn func() float64) {
	e := &gaugeEntry{series: newSeries(name, labels), fn: fn}
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := find(r.gauges, name, e.text)
	r.gauges = with(r.gauges, i, e, ok)
}

// GatherGauges evaluates every gauge callback, sorted by family and
// then labels. Callbacks run outside the registry lock so a slow one
// cannot stall hot-path get-or-create.
func (r *Registry) GatherGauges() []GaugePoint {
	r.mu.RLock()
	gs := r.gauges
	r.mu.RUnlock()
	out := make([]GaugePoint, len(gs))
	for i, e := range gs {
		out[i] = GaugePoint{Name: e.name, Labels: e.labels.clone(), Value: e.fn()}
	}
	return out
}

// Gather snapshots every series, sorted by family and then labels so
// output order is stable across calls. Values are read outside the
// registry lock: a derived counter's callback may take it again.
func (r *Registry) Gather() ([]CounterPoint, []HistogramPoint) {
	r.mu.RLock()
	ces, hes := r.counters, r.hists
	r.mu.RUnlock()
	cs := make([]CounterPoint, len(ces))
	for i, e := range ces {
		cs[i] = CounterPoint{Name: e.name, Labels: e.labels.clone(), Value: e.fn()}
	}
	hs := make([]HistogramPoint, len(hes))
	for i, e := range hes {
		hs[i] = HistogramPoint{Name: e.name, Labels: e.labels.clone(), Snap: e.h.Snapshot()}
	}
	return cs, hs
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (counters, then gauges, then histograms with cumulative
// _bucket/_sum/_count series), each kind sorted by family and then
// labels, in one Write. A line is text its series rendered at
// registration plus the live value formatted in place: a scrape renders
// no label and allocates one buffer.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	cs, gs, hs := r.counters, r.gauges, r.hists
	r.mu.RUnlock()
	b := make([]byte, 0, r.expoSize.Load()+1024)
	for i, e := range cs {
		if i == 0 || cs[i-1].name != e.name {
			b = appendType(b, e.name, "counter")
		}
		b = append(append(b, e.text...), ' ')
		b = append(strconv.AppendUint(b, e.fn(), 10), '\n')
	}
	for i, e := range gs {
		if i == 0 || gs[i-1].name != e.name {
			b = appendType(b, e.name, "gauge")
		}
		b = append(append(b, e.text...), ' ')
		b = append(strconv.AppendFloat(b, e.fn(), 'g', -1, 64), '\n')
	}
	for i, e := range hs {
		if i == 0 || hs[i-1].name != e.name {
			b = appendType(b, e.name, "histogram")
		}
		cum := uint64(0)
		for j := range e.h.buckets {
			cum += e.h.buckets[j].Load()
			b = append(append(append(b, e.bucket...), leText[j]...), e.bucketEnd...)
			b = append(strconv.AppendUint(b, cum, 10), '\n')
		}
		b = append(b, e.sum...)
		b = append(appendSeconds(b, time.Duration(e.h.sum.Load())), '\n')
		b = append(b, e.count...)
		b = append(strconv.AppendUint(b, e.h.count.Load(), 10), '\n')
	}
	r.expoSize.Store(int64(len(b)))
	_, _ = w.Write(b) // the writer reports its own failure (an HTTP response's)
}

// appendType appends a family's TYPE line.
func appendType(b []byte, name, typ string) []byte {
	b = append(append(append(b, "# TYPE "...), name...), ' ')
	return append(append(b, typ...), '\n')
}

// appendSeconds appends a duration as decimal seconds with no trailing
// zero noise: an integer when whole, else the shortest %g form.
func appendSeconds(b []byte, d time.Duration) []byte {
	s := d.Seconds()
	if s == math.Trunc(s) {
		return strconv.AppendInt(b, int64(s), 10)
	}
	return strconv.AppendFloat(b, s, 'g', -1, 64)
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
