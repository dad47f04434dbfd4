package metrics

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 ms uniformly: p50 ~ 500ms, p99 ~ 990ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count %d", s.Count)
	}
	if s.Max != 1000*time.Millisecond {
		t.Errorf("max %v", s.Max)
	}
	// Log-spaced buckets bound the relative error by the bucket factor
	// (2x); interpolation tightens it, but assert only the guarantee.
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.95, 950 * time.Millisecond}, {0.99, 990 * time.Millisecond}}
	for _, c := range checks {
		got := s.Quantile(c.q)
		if got < c.want/2 || got > c.want*2 {
			t.Errorf("q%.2f = %v, want within 2x of %v", c.q, got, c.want)
		}
	}
	if m := s.Mean(); m < 400*time.Millisecond || m > 600*time.Millisecond {
		t.Errorf("mean %v, want ~500ms", m)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	var h Histogram
	if q := h.Snapshot().Quantile(0.99); q != 0 {
		t.Errorf("empty histogram q99 = %v", q)
	}
	h.Observe(2 * time.Hour) // beyond the last bucket bound
	s := h.Snapshot()
	if s.Buckets[numBuckets] != 1 {
		t.Errorf("overflow bucket not hit: %+v", s.Buckets)
	}
	if q := s.Quantile(0.5); q != 2*time.Hour {
		t.Errorf("overflow quantile %v, want the observed max", q)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		var h Histogram
		s := h.Snapshot()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != 0 {
				t.Errorf("empty q%v = %v, want 0", q, got)
			}
		}
	})
	t.Run("single observation", func(t *testing.T) {
		var h Histogram
		h.Observe(3 * time.Millisecond)
		s := h.Snapshot()
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			got := s.Quantile(q)
			if got < 0 || got > s.Max {
				t.Errorf("q%v = %v outside [0, %v]", q, got, s.Max)
			}
		}
		if got := s.Quantile(1); got != s.Max {
			t.Errorf("q1 = %v, want the single observation's bucket capped at max %v", got, s.Max)
		}
	})
	t.Run("all zero durations", func(t *testing.T) {
		// Every sample clamps to 0, so Max is 0 — interpolation inside
		// bucket 0 (bound 50µs) must not invent a positive latency.
		var h Histogram
		for i := 0; i < 10; i++ {
			h.Observe(0)
		}
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.99, 1} {
			if got := s.Quantile(q); got != 0 {
				t.Errorf("all-zero q%v = %v, want 0 (max is 0)", q, got)
			}
		}
	})
	t.Run("all in one bucket", func(t *testing.T) {
		var h Histogram
		for i := 0; i < 100; i++ {
			h.Observe(70 * time.Microsecond) // bucket 1: (50µs, 100µs]
		}
		s := h.Snapshot()
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			got := s.Quantile(q)
			if got < 50*time.Microsecond || got > 70*time.Microsecond {
				t.Errorf("q%v = %v, want within (50µs, max 70µs]", q, got)
			}
		}
	})
}

func TestHistogramExemplars(t *testing.T) {
	var h Histogram
	h.Observe(70 * time.Microsecond) // untraced: no exemplar
	h.ObserveTrace(80*time.Microsecond, "trace-a")
	h.ObserveTrace(90*time.Microsecond, "trace-b") // same bucket: last wins
	h.ObserveTrace(10*time.Millisecond, "trace-slow")
	h.ObserveTrace(20*time.Millisecond, "") // empty id must not clobber
	s := h.Snapshot()
	idx := -1
	for i, b := range s.Buckets {
		if b > 0 && s.Exemplars[i] == "trace-b" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("last-write exemplar trace-b not retained: %v", s.Exemplars)
	}
	found := false
	for _, e := range s.Exemplars {
		if e == "trace-slow" {
			found = true
		}
	}
	if !found {
		t.Errorf("slow-bucket exemplar missing: %v", s.Exemplars)
	}
	for i, e := range s.Exemplars {
		if e != "" && s.Buckets[i] == 0 {
			t.Errorf("exemplar %q in empty bucket %d", e, i)
		}
	}
}

func TestBucketUpperBound(t *testing.T) {
	if got := BucketUpperBound(0); got != 50*time.Microsecond {
		t.Errorf("bucket 0 bound %v", got)
	}
	if got := BucketUpperBound(1); got != 100*time.Microsecond {
		t.Errorf("bucket 1 bound %v", got)
	}
	last := BucketUpperBound(NumHistBuckets - 1)
	if last <= BucketUpperBound(NumHistBuckets-2) {
		t.Errorf("overflow bound %v not a sentinel above the last real bound", last)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Intn(1e6)) * time.Microsecond)
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count %d, want %d", s.Count, workers*per)
	}
	sum := uint64(0)
	for _, b := range s.Buckets {
		sum += b
	}
	if sum != s.Count {
		t.Errorf("bucket sum %d != count %d", sum, s.Count)
	}
}

func TestRegistrySeriesIdentityAndGather(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("reqs", Labels{"endpoint": "/tune", "code": "200"})
	b := r.Counter("reqs", Labels{"code": "200", "endpoint": "/tune"}) // same series, reordered labels
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Add(3)
	r.Counter("reqs", Labels{"endpoint": "/tune", "code": "429"}).Inc()
	r.Histogram("lat", Labels{"endpoint": "/tune"}).Observe(time.Millisecond)

	cs, hs := r.Gather()
	if len(cs) != 2 || len(hs) != 1 {
		t.Fatalf("gather: %d counters %d hists", len(cs), len(hs))
	}
	total := uint64(0)
	for _, c := range cs {
		total += c.Value
	}
	if total != 4 {
		t.Errorf("counter total %d, want 4", total)
	}
	if hs[0].Snap.Count != 1 {
		t.Errorf("hist count %d", hs[0].Snap.Count)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("mist_http_requests_total", Labels{"endpoint": "/tune", "code": "200"}).Add(7)
	r.Histogram("mist_http_request_seconds", Labels{"endpoint": "/tune"}).Observe(30 * time.Microsecond)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE mist_http_requests_total counter",
		`mist_http_requests_total{code="200",endpoint="/tune"} 7`,
		"# TYPE mist_http_request_seconds histogram",
		`mist_http_request_seconds_bucket{endpoint="/tune",le="5e-05"} 1`,
		`mist_http_request_seconds_bucket{endpoint="/tune",le="+Inf"} 1`,
		`mist_http_request_seconds_count{endpoint="/tune"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Stable across calls.
	var buf2 bytes.Buffer
	r.WritePrometheus(&buf2)
	if buf2.String() != out {
		t.Error("exposition output not stable across calls")
	}
}

// SumCounters folds one family over a label selector; a derived counter
// built on it renders with counter type, reads the registry from inside
// Gather without deadlocking, and is never itself summed. A series is
// stored or derived, never both: crossing over panics either way.
func TestSumCountersAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs", Labels{"endpoint": "/tune", "code": "200"}).Add(5)
	r.Counter("reqs", Labels{"endpoint": "/tune", "code": "429"}).Add(2)
	r.Counter("reqs", Labels{"endpoint": "/jobs", "code": "429"}).Add(1)
	r.Counter("other", Labels{"code": "429"}).Add(100)
	r.CounterFunc("rejected", nil, func() uint64 { return r.SumCounters("reqs", Labels{"code": "429"}) })
	r.CounterFunc("reqs", Labels{"endpoint": "derived", "code": "429"}, func() uint64 { return 1000 })

	if got := r.SumCounters("reqs", nil); got != 8 {
		t.Errorf("whole family = %d, want 8", got)
	}
	if got := r.SumCounters("reqs", Labels{"code": "429"}); got != 3 {
		t.Errorf(`code="429" = %d, want 3`, got)
	}
	if got := r.SumCounters("reqs", Labels{"code": "429", "endpoint": "/jobs"}); got != 1 {
		t.Errorf("two-label selector = %d, want 1", got)
	}
	if got := r.SumCounters("absent", nil); got != 0 {
		t.Errorf("absent family = %d, want 0", got)
	}
	if n := testing.AllocsPerRun(100, func() { r.SumCounters("reqs", Labels{"code": "429"}) }); n != 0 {
		t.Errorf("SumCounters allocates %.0f per call, want 0", n)
	}

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	for _, want := range []string{"# TYPE rejected counter\nrejected 3\n", "# TYPE reqs counter\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q:\n%s", want, buf.String())
		}
	}

	r.CounterFunc("rejected", nil, func() uint64 { return 7 }) // derived replaces derived
	for name, cross := range map[string]func(){
		"Counter on a derived series":    func() { r.Counter("rejected", nil) },
		"CounterFunc on a stored series": func() { r.CounterFunc("other", Labels{"code": "429"}, func() uint64 { return 0 }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			cross()
		}()
	}
	if got := r.SumCounters("other", nil); got != 100 {
		t.Errorf("stored counter after refused CounterFunc = %d, want 100", got)
	}
}
