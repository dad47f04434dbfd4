package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"testing"
	"time"
)

// referenceWritePrometheus is the fmt-based renderer WritePrometheus
// replaced, kept verbatim as the executable spec of the exposition:
// every scrape re-renders each label set, and each bucket line builds
// its own label map. Only the Gather/GatherGauges it reads are today's.
func referenceWritePrometheus(r *Registry, w io.Writer) {
	cs, hs := r.Gather()
	lastType := ""
	for _, c := range cs {
		if c.Name != lastType {
			fmt.Fprintf(w, "# TYPE %s counter\n", c.Name)
			lastType = c.Name
		}
		fmt.Fprintf(w, "%s%s %d\n", c.Name, referenceLabels(c.Labels).render(), c.Value)
	}
	lastType = ""
	for _, g := range r.GatherGauges() {
		if g.Name != lastType {
			fmt.Fprintf(w, "# TYPE %s gauge\n", g.Name)
			lastType = g.Name
		}
		fmt.Fprintf(w, "%s%s %g\n", g.Name, referenceLabels(g.Labels).render(), g.Value)
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
				le = referenceFormatSeconds(bucketBound(i))
			}
			lb := referenceLabels{"le": le}
			for k, v := range h.Labels {
				lb[k] = v
			}
			fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, lb.render(), cum)
		}
		fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, referenceLabels(h.Labels).render(), referenceFormatSeconds(h.Snap.Sum))
		fmt.Fprintf(w, "%s_count%s %d\n", h.Name, referenceLabels(h.Labels).render(), h.Snap.Count)
	}
}

// referenceLabels carries the reference renderer's label rendering.
type referenceLabels Labels

// render canonicalizes labels: sorted keys, Prometheus selector syntax.
func (l referenceLabels) render() string {
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

// referenceFormatSeconds renders a duration as decimal seconds with no trailing
// zero noise (bucket bounds are exact binary multiples of 50µs).
func referenceFormatSeconds(d time.Duration) string {
	s := d.Seconds()
	if s == math.Trunc(s) {
		return fmt.Sprintf("%d", int64(s))
	}
	return fmt.Sprintf("%g", s)
}

// oracleRegistry holds every shape of series the exposition renders:
// unlabelled, labelled and derived counters; gauges across %g's forms;
// histograms whose label keys sort before and after le, one empty and
// one with an overflow observation; label values with a backslash, a
// tab and non-ASCII text. No family name is a prefix of another's (see
// TestFamilyIsOneRun for that case, where the reference splits a
// family).
func oracleRegistry() *Registry {
	r := NewRegistry()
	r.Counter("mist_requests_total", nil).Add(7)
	r.Counter("mist_forwards_total", Labels{"peer": "n1", "code": "200"}).Add(3)
	r.Counter("mist_forwards_total", Labels{"peer": "n2", "code": "503"}).Inc()
	r.Counter("mist_forwards_total", Labels{"peer": `C:\nodes\n3`, "code": "200"}).Add(1 << 40)
	r.Counter("mist_idle_total", Labels{"peer": "tab\there"})
	r.CounterFunc("mist_rejected_total", nil, func() uint64 { return r.SumCounters("mist_forwards_total", Labels{"code": "200"}) })

	for name, v := range map[string]float64{
		"zero": 0, "neg": -2, "big": 1.5e6, "huge": 1e21, "small": 1.23e-4,
		"inf": math.Inf(1), "nan": math.NaN(),
	} {
		r.RegisterGauge("mist_level", Labels{"v": name}, func() float64 { return v })
	}
	r.RegisterGauge("mist_build_info", Labels{"version": "v1.2-ünïcode ✓", "go": "go1.24"}, func() float64 { return 1 })

	all := r.Histogram("mist_latency_seconds", Labels{"a": "x", "endpoint": "/tune", "z": `back\slash`})
	for _, d := range []time.Duration{30 * time.Microsecond, 70 * time.Microsecond, 3 * time.Millisecond, time.Second} {
		all.Observe(d)
	}
	r.Histogram("mist_latency_seconds", Labels{"endpoint": "/simulate"}).Observe(2 * time.Second) // whole seconds: an integer sum
	r.Histogram("mist_latency_seconds", Labels{"z": "only-after-le"}).Observe(1600 * time.Millisecond)
	r.Histogram("mist_phase_seconds", Labels{"a": "only-before-le"}) // empty
	r.Histogram("mist_wait_seconds", nil).Observe(2 * time.Hour)     // overflow bucket
	return r
}

// TestWritePrometheusMatchesReference: the exposition rendered from
// registration-time text is byte for byte the reference's.
func TestWritePrometheusMatchesReference(t *testing.T) {
	r := oracleRegistry()
	var got, want bytes.Buffer
	r.WritePrometheus(&got)
	referenceWritePrometheus(r, &want)
	if got.String() != want.String() {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition differs from the reference at line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
	// The registry held what the comment promises.
	for _, want := range []string{
		`le="+Inf",z="back\\slash"} 4`, `{a="only-before-le",le="0.0001"} 0`, `mist_wait_seconds_bucket{le="+Inf"} 1`,
		`mist_level{v="nan"} NaN`, `mist_level{v="inf"} +Inf`, `mist_level{v="huge"} 1e+21`, `peer="tab\there"`,
		`mist_latency_seconds_sum{endpoint="/simulate"} 2`, `mist_rejected_total 1099511627779`,
	} {
		if !strings.Contains(got.String(), want) {
			t.Errorf("exposition lacks %s:\n%s", want, got.String())
		}
	}
}
