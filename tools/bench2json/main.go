// Command bench2json converts `go test -bench` text output (stdin)
// into a machine-readable JSON document (stdout, or -out <file>) so
// benchmark trajectories can be recorded per PR and diffed across
// revisions, and compares two such documents as a CI regression gate.
//
// Record mode:
//
//	go test -run xxx -bench . -benchtime 3x ./... | go run ./tools/bench2json -out BENCH.json
//
// Non-benchmark lines (test chatter, pass/ok footers) are ignored, so
// several bench invocations can be concatenated on one stdin. Exits
// non-zero if no benchmark line was found — an empty trajectory file
// would silently record "no regression" forever.
//
// Compare mode:
//
//	go run ./tools/bench2json -tolerance 0.25 -compare BENCH.json BENCH_NEW.json
//
// Benchmarks are matched by package and name (the -<GOMAXPROCS> suffix
// is stripped, so runs from differently sized machines still pair up).
// The command exits non-zero when any shared benchmark's ns/op
// regressed beyond the tolerance (new > old × (1+tolerance)), or when
// the two files share no benchmarks at all — a gate that compares
// nothing must not pass. When both sides of a pair carry the -benchmem
// metrics (B/op, allocs/op), each is gated under its own fixed slack,
// far tighter than the tolerance: an allocation crept into a hot path,
// or a row grown by a field, is a regression even when the wall-clock
// noise hides it. The deterministic
// counts a search reports (candidates, unique-evals, hit-rate) are a
// function of its inputs, not of the machine, so any change in one, up
// or down, fails the gate whatever the tolerance.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string  `json:"name"`
	Package    string  `json:"package,omitempty"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"nsPerOp"`
	// Metrics holds every additional "value unit" pair on the line
	// (B/op, allocs/op, custom b.ReportMetric units).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted document.
type Report struct {
	GoVersion  string      `json:"goVersion"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench2json: ")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	compare := flag.String("compare", "", "compare this baseline report against the report named by the positional argument")
	tolerance := flag.Float64("tolerance", 0.25, "with -compare: allowed fractional ns/op growth before a benchmark counts as regressed")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			log.Fatal("usage: bench2json [-tolerance 0.25] -compare old.json new.json")
		}
		runCompare(*compare, flag.Arg(0), *tolerance)
		return
	}

	rep := Report{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		// "pkg: repro/internal/core" headers attribute the lines below.
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "pkg: "); ok {
			pkg = rest
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			b.Package = pkg
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark lines on stdin")
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bench2json: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// parseBenchLine parses one `go test -bench` result line:
//
//	BenchmarkName-8   3   123456 ns/op   12 B/op   4 allocs/op
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	// The rest is "value unit" pairs.
	ok := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		if fields[i+1] == "ns/op" {
			b.NsPerOp = v
			ok = true
			continue
		}
		b.Metrics[fields[i+1]] = v
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, ok
}

// benchKey pairs benchmarks across reports: package plus name with the
// trailing -<GOMAXPROCS> suffix stripped (a -8 baseline must match a
// -4 CI runner).
func benchKey(b Benchmark) string {
	name := b.Name
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return b.Package + "." + name
}

// gatedMetrics are the dimensions gated beside ns/op, each under its
// slack and only when both reports carry it (old baselines predating
// -benchmem stay ns/op-only). Ten runs of `make bench-json` on one commit
// (2-vCPU Intel Xeon, go1.24.0) spread at most 5.8 % in B/op
// (BenchmarkTuneMemoizedWarm) and 1.7 % in allocs/op
// (BenchmarkBatchSubmit/warm-store, now twenty iterations of a
// four-worker job queue; at two it spread 12.6 % in B/op); each slack
// is that worst spread rounded up to the next 5 %. The same runs spread
// up to 170 % in ns/op, far past its 25 % tolerance: on a shared box
// the ns/op gate catches only a gross regression.
var gatedMetrics = []struct {
	unit  string
	slack float64
}{
	{"B/op", 0.10},
	{"allocs/op", 0.05},
}

// exactMetrics are gated at equality, each only when both reports carry
// it: the work a search does, which no timing noise moves.
var exactMetrics = []string{"candidates", "unique-evals", "hit-rate"}

// delta is one gated dimension of one shared benchmark.
type delta struct {
	Unit      string
	Old, New  float64
	Ratio     float64 // new / old; 0 when the old side is zero
	Exact     bool    // gated at equality, not under the tolerance
	Regressed bool
}

// gate compares one dimension under the tolerance. A zero baseline that
// is now positive exceeds any finite tolerance.
func gate(unit string, old, new, tolerance float64) delta {
	d := delta{Unit: unit, Old: old, New: new}
	if old > 0 {
		d.Ratio = new / old
		d.Regressed = d.Ratio > 1+tolerance
	} else {
		d.Regressed = new > 0
	}
	return d
}

// comparison is one shared benchmark: ns/op first, then every gated
// metric both sides carry.
type comparison struct {
	Key    string
	Deltas []delta
}

// Regressed reports whether any gated dimension regressed.
func (c comparison) Regressed() bool {
	for _, d := range c.Deltas {
		if d.Regressed {
			return true
		}
	}
	return false
}

// compareReports pairs the two reports' benchmarks and flags every
// shared one with ns/op grown beyond the tolerance or an allocation
// metric grown beyond its slack.
// Benchmarks present in only one report are returned in onlyOld/onlyNew
// so renames and deletions are visible rather than silently ungated.
func compareReports(old, new Report, tolerance float64) (shared []comparison, onlyOld, onlyNew []string) {
	oldBy := map[string]Benchmark{}
	for _, b := range old.Benchmarks {
		oldBy[benchKey(b)] = b
	}
	newSeen := map[string]bool{}
	for _, b := range new.Benchmarks {
		key := benchKey(b)
		newSeen[key] = true
		ob, ok := oldBy[key]
		if !ok {
			onlyNew = append(onlyNew, key)
			continue
		}
		c := comparison{Key: key, Deltas: []delta{gate("ns/op", ob.NsPerOp, b.NsPerOp, tolerance)}}
		for _, m := range gatedMetrics {
			oldV, okOld := ob.Metrics[m.unit]
			newV, okNew := b.Metrics[m.unit]
			if okOld && okNew {
				c.Deltas = append(c.Deltas, gate(m.unit, oldV, newV, m.slack))
			}
		}
		for _, unit := range exactMetrics {
			oldV, okOld := ob.Metrics[unit]
			newV, okNew := b.Metrics[unit]
			if okOld && okNew {
				d := gate(unit, oldV, newV, 0)
				d.Exact, d.Regressed = true, newV != oldV
				c.Deltas = append(c.Deltas, d)
			}
		}
		shared = append(shared, c)
	}
	for key := range oldBy {
		if !newSeen[key] {
			onlyOld = append(onlyOld, key)
		}
	}
	sort.Slice(shared, func(i, j int) bool { return shared[i].Key < shared[j].Key })
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return shared, onlyOld, onlyNew
}

func readReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return Report{}, fmt.Errorf("decoding %s: %w", path, err)
	}
	return rep, nil
}

// runCompare is the CI regression gate: print the shared-benchmark
// table and exit non-zero on any regression beyond tolerance (or when
// nothing was comparable).
func runCompare(oldPath, newPath string, tolerance float64) {
	if tolerance < 0 {
		log.Fatal("-tolerance must be >= 0")
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRep, err := readReport(newPath)
	if err != nil {
		log.Fatal(err)
	}
	shared, onlyOld, onlyNew := compareReports(oldRep, newRep, tolerance)
	if len(shared) == 0 {
		log.Fatalf("no shared benchmarks between %s and %s — nothing was gated", oldPath, newPath)
	}
	regressions := 0
	for _, c := range shared {
		for _, d := range c.Deltas {
			verdict := "ok"
			switch {
			case d.Regressed && d.Exact:
				verdict = "CHANGED"
			case d.Regressed:
				verdict = "REGRESSED"
			}
			pct := "    n/a"
			if d.Ratio > 0 {
				pct = fmt.Sprintf("%+6.1f%%", (d.Ratio-1)*100)
			}
			fmt.Printf("%-60s %14.6g -> %14.6g %-12s  %s  %s\n", c.Key, d.Old, d.New, d.Unit, pct, verdict)
		}
		if c.Regressed() {
			regressions++
		}
	}
	for _, k := range onlyOld {
		fmt.Printf("%-60s only in %s (removed or renamed — not gated)\n", k, oldPath)
	}
	for _, k := range onlyNew {
		fmt.Printf("%-60s only in %s (new — no baseline yet)\n", k, newPath)
	}
	if regressions > 0 {
		log.Fatalf("%d of %d shared benchmarks regressed beyond %.0f%% ns/op tolerance or their B/op or allocs/op slack, or changed a count (candidates, unique-evals, hit-rate)", regressions, len(shared), tolerance*100)
	}
	fmt.Printf("bench-regression: %d shared benchmarks within %.0f%% ns/op tolerance and their allocation slacks\n", len(shared), tolerance*100)
}
