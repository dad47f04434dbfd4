package main

import (
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkBatchSubmit/warm-store-8   \t       3\t 123456789 ns/op\t        42 evals")
	if !ok {
		t.Fatal("bench line rejected")
	}
	if b.Name != "BenchmarkBatchSubmit/warm-store-8" || b.Iterations != 3 || b.NsPerOp != 123456789 {
		t.Fatalf("parsed %+v", b)
	}
	if b.Metrics["evals"] != 42 {
		t.Fatalf("metrics %+v", b.Metrics)
	}
	for _, bad := range []string{
		"ok  \trepro\t0.5s",
		"PASS",
		"goos: linux",
		"BenchmarkBroken notanumber 5 ns/op",
		"BenchmarkNoNsPerOp 3 12 B/op",
	} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("accepted %q", bad)
		}
	}
}

// The pairing key strips the -<GOMAXPROCS> suffix (a -8 baseline must
// match a -4 CI runner) but not sub-benchmark names or digits that are
// part of the name proper.
func TestBenchKey(t *testing.T) {
	cases := []struct {
		pkg, name, want string
	}{
		{"repro", "BenchmarkTune-8", "repro.BenchmarkTune"},
		{"repro", "BenchmarkTune-16", "repro.BenchmarkTune"},
		{"repro/internal/serve", "BenchmarkBatchSubmit/warm-store-8", "repro/internal/serve.BenchmarkBatchSubmit/warm-store"},
		{"repro", "BenchmarkFoo", "repro.BenchmarkFoo"},
	}
	for _, c := range cases {
		if got := benchKey(Benchmark{Package: c.pkg, Name: c.name}); got != c.want {
			t.Errorf("benchKey(%s, %s) = %q, want %q", c.pkg, c.name, got, c.want)
		}
	}
}

func rep(benches ...Benchmark) Report { return Report{Benchmarks: benches} }

// dim returns c's delta for one unit, ok false when it was not gated.
func dim(c comparison, unit string) (delta, bool) {
	for _, d := range c.Deltas {
		if d.Unit == unit {
			return d, true
		}
	}
	return delta{}, false
}

func TestCompareReports(t *testing.T) {
	old := rep(
		Benchmark{Package: "p", Name: "BenchmarkA-8", NsPerOp: 1000},
		Benchmark{Package: "p", Name: "BenchmarkB-8", NsPerOp: 1000},
		Benchmark{Package: "p", Name: "BenchmarkGone-8", NsPerOp: 50},
	)
	fresh := rep(
		Benchmark{Package: "p", Name: "BenchmarkA-4", NsPerOp: 1200}, // +20%: within 0.25
		Benchmark{Package: "p", Name: "BenchmarkB-4", NsPerOp: 1300}, // +30%: regressed
		Benchmark{Package: "p", Name: "BenchmarkNew-4", NsPerOp: 10},
	)
	shared, onlyOld, onlyNew := compareReports(old, fresh, 0.25)
	if len(shared) != 2 {
		t.Fatalf("shared %+v", shared)
	}
	if shared[0].Key != "p.BenchmarkA" || shared[0].Regressed() {
		t.Errorf("A: %+v", shared[0])
	}
	if shared[1].Key != "p.BenchmarkB" || !shared[1].Regressed() {
		t.Errorf("B: %+v", shared[1])
	}
	if len(onlyOld) != 1 || onlyOld[0] != "p.BenchmarkGone" {
		t.Errorf("onlyOld %v", onlyOld)
	}
	if len(onlyNew) != 1 || onlyNew[0] != "p.BenchmarkNew" {
		t.Errorf("onlyNew %v", onlyNew)
	}

	// An improvement never regresses, and a zero-tolerance gate flags
	// any growth at all.
	sh, _, _ := compareReports(rep(Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: 1000}),
		rep(Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: 900}), 0)
	if sh[0].Regressed() {
		t.Errorf("improvement flagged: %+v", sh[0])
	}
	sh, _, _ = compareReports(rep(Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: 1000}),
		rep(Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: 1001}), 0)
	if !sh[0].Regressed() {
		t.Errorf("zero-tolerance growth not flagged: %+v", sh[0])
	}
}

// The allocation metrics (B/op, allocs/op) are gated dimensions with the
// same tolerance semantics as ns/op, each active only when both sides
// carry the metric and each flagged on its own.
func TestCompareReportsAllocs(t *testing.T) {
	for _, unit := range gatedMetrics {
		with := func(ns, v float64) Benchmark {
			return Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: ns,
				Metrics: map[string]float64{unit: v}}
		}
		gated := func(old, new Benchmark) (ns, mem delta, ok bool) {
			sh, _, _ := compareReports(rep(old), rep(new), 0.25)
			ns, _ = dim(sh[0], "ns/op")
			mem, ok = dim(sh[0], unit)
			return ns, mem, ok
		}

		// Within tolerance: 8 -> 10 is exactly +25%.
		ns, mem, ok := gated(with(1000, 8), with(1000, 10))
		if !ok || mem.Old != 8 || mem.New != 10 {
			t.Fatalf("%s not compared: %+v", unit, mem)
		}
		if mem.Regressed || ns.Regressed {
			t.Errorf("+25%% %s at 0.25 tolerance flagged: %+v", unit, mem)
		}

		// Beyond tolerance: the metric regresses while ns/op stays flat.
		if ns, mem, _ = gated(with(1000, 8), with(1000, 11)); !mem.Regressed || ns.Regressed {
			t.Errorf("%s regression not flagged independently of ns/op: %+v", unit, mem)
		}

		// A zero baseline that is now positive always regresses.
		if _, mem, _ = gated(with(1000, 0), with(1000, 1)); !mem.Regressed {
			t.Errorf("0 -> 1 %s not flagged: %+v", unit, mem)
		}
		if _, mem, _ = gated(with(1000, 0), with(1000, 0)); mem.Regressed {
			t.Errorf("0 -> 0 %s flagged: %+v", unit, mem)
		}

		// A baseline without -benchmem data leaves the dimension ungated.
		if _, mem, ok = gated(Benchmark{Package: "p", Name: "BenchmarkA", NsPerOp: 1000}, with(1000, 50)); ok {
			t.Errorf("%s gated with no baseline metric: %+v", unit, mem)
		}
	}

	// The case the gate could not see before it read B/op: a cold search
	// whose rows more than double (6.9 -> 14.9 MB/op) at the same time and
	// the same allocation count.
	cold := func(bytes float64) Benchmark {
		return Benchmark{Package: "repro", Name: "BenchmarkTuneMemoizedCold-2", NsPerOp: 30e6,
			Metrics: map[string]float64{"B/op": bytes, "allocs/op": 6100}}
	}
	sh, _, _ := compareReports(rep(cold(6.9e6)), rep(cold(14.9e6)), 0.25)
	if b, _ := dim(sh[0], "B/op"); !sh[0].Regressed() || !b.Regressed {
		t.Errorf("doubled B/op at flat ns/op and allocs/op passed the gate: %+v", sh[0])
	}
	if a, _ := dim(sh[0], "allocs/op"); a.Regressed {
		t.Errorf("flat allocs/op flagged: %+v", a)
	}
}
