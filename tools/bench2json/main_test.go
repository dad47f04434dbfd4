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
// same semantics as ns/op under their own slack, each active only when
// both sides carry the metric and each flagged on its own.
func TestCompareReportsAllocs(t *testing.T) {
	for _, m := range gatedMetrics {
		unit := m.unit
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

		// Within the slack: 1000 -> 1000 × (1 + slack).
		at := 1000 * (1 + m.slack)
		ns, mem, ok := gated(with(1000, 1000), with(1000, at))
		if !ok || mem.Old != 1000 || mem.New != at {
			t.Fatalf("%s not compared: %+v", unit, mem)
		}
		if mem.Regressed || ns.Regressed {
			t.Errorf("+%.0f%% %s at its %.2f slack flagged: %+v", m.slack*100, unit, m.slack, mem)
		}

		// Beyond the slack, though well inside the ns/op tolerance: the
		// metric regresses while ns/op stays flat.
		if ns, mem, _ = gated(with(1000, 1000), with(1000, at+1)); !mem.Regressed || ns.Regressed {
			t.Errorf("%s regression not flagged independently of ns/op: %+v", unit, mem)
		}
		if m.slack >= 0.25 {
			t.Errorf("%s slack %.2f is no tighter than the ns/op tolerance", unit, m.slack)
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

	// ColdGrid's ~2 900 allocations growing by a tenth at the same time
	// and bytes: inside the 25 % tolerance the allocation metrics once
	// shared, past the allocs/op slack.
	grid := func(allocs float64) Benchmark {
		return Benchmark{Package: "repro", Name: "BenchmarkTuneColdGrid-2", NsPerOp: 7.5e6,
			Metrics: map[string]float64{"B/op": 1.9e6, "allocs/op": allocs}}
	}
	sh, _, _ := compareReports(rep(grid(2889)), rep(grid(3178)), 0.25)
	if a, _ := dim(sh[0], "allocs/op"); !a.Regressed {
		t.Errorf("+10%% allocs/op passed the gate: %+v", a)
	}
	if b, _ := dim(sh[0], "B/op"); b.Regressed {
		t.Errorf("flat B/op flagged: %+v", b)
	}

	// The case the gate could not see before it read B/op: a cold search
	// whose rows more than double (6.9 -> 14.9 MB/op) at the same time and
	// the same allocation count.
	cold := func(bytes float64) Benchmark {
		return Benchmark{Package: "repro", Name: "BenchmarkTuneMemoizedCold-2", NsPerOp: 30e6,
			Metrics: map[string]float64{"B/op": bytes, "allocs/op": 6100}}
	}
	sh, _, _ = compareReports(rep(cold(6.9e6)), rep(cold(14.9e6)), 0.25)
	if b, _ := dim(sh[0], "B/op"); !sh[0].Regressed() || !b.Regressed {
		t.Errorf("doubled B/op at flat ns/op and allocs/op passed the gate: %+v", sh[0])
	}
	if a, _ := dim(sh[0], "allocs/op"); a.Regressed {
		t.Errorf("flat allocs/op flagged: %+v", a)
	}

	// The spread two-iteration BatchSubmit runs showed between runs of one
	// commit (warm-store 33.8 -> 38.1 KB, +12.6 %) passed the old 15 %
	// B/op slack; the 10 % slack, set from twenty-iteration runs, flags it.
	warm := func(bytes float64) Benchmark {
		return Benchmark{Package: "repro/internal/serve", Name: "BenchmarkBatchSubmit/warm-store-2", NsPerOp: 3e5,
			Metrics: map[string]float64{"B/op": bytes, "allocs/op": 424}}
	}
	sh, _, _ = compareReports(rep(warm(33.8e3)), rep(warm(38.1e3)), 0.25)
	if b, _ := dim(sh[0], "B/op"); !b.Regressed {
		t.Errorf("+12.6%% B/op passed the gate: %+v", b)
	}
}

// The deterministic counts are gated at equality: any change, a drop
// included, fails whatever the tolerance; an unchanged count passes at
// any tolerance; and a side without the count leaves it ungated.
func TestCompareReportsExactCounts(t *testing.T) {
	for _, unit := range exactMetrics {
		with := func(v float64) Benchmark {
			return Benchmark{Package: "repro", Name: "BenchmarkTuneMemoizedCold-2", NsPerOp: 30e6,
				Metrics: map[string]float64{unit: v}}
		}
		gated := func(old, new Benchmark, tolerance float64) (delta, bool) {
			sh, _, _ := compareReports(rep(old), rep(new), tolerance)
			return dim(sh[0], unit)
		}
		for _, c := range []struct {
			old, new, tolerance float64
			changed             bool
		}{
			{11340, 11340, 0, false},
			{11340, 11340, 10, false},
			{11340, 11341, 10, true}, // within any tolerance, still a change
			{11340, 11339, 0.25, true},
			{0.5, 0.25, 0.25, true}, // fewer hits is a change, not a gain
		} {
			d, ok := gated(with(c.old), with(c.new), c.tolerance)
			if !ok || !d.Exact {
				t.Fatalf("%s not gated exactly: %+v", unit, d)
			}
			if d.Regressed != c.changed {
				t.Errorf("%s %v -> %v at tolerance %v: flagged %v, want %v", unit, c.old, c.new, c.tolerance, d.Regressed, c.changed)
			}
		}
		if d, ok := gated(Benchmark{Package: "repro", Name: "BenchmarkTuneMemoizedCold", NsPerOp: 30e6}, with(1), 0.25); ok {
			t.Errorf("%s gated with no baseline count: %+v", unit, d)
		}
	}
}
