package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesRegistry is the drift gate between
// BENCHMARK.json and the harness's registry, plus the contract's limits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&mf); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "benchmarks" {
		t.Errorf("paths = %v, want [benchmarks]", mf.Paths)
	}
	if want := []string{"bash", "benchmarks/mistperf/run.sh"}; fmt.Sprint(mf.Command) != fmt.Sprint(want) {
		t.Errorf("command = %v, want %v", mf.Command, want)
	}
	if mf.RunSeconds < 1 || mf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", mf.RunSeconds)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(mf.Workloads) != len(workloads) || len(workloads) < 2 || len(workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry (2..8 allowed)", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if mf.Workloads[i].Name != w.name || mf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, registry has {%s %s}", i, mf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}

	if len(mf.EndToEnd) != len(endToEnd) || len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the registry (1..16 allowed)", len(mf.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		checkName(d.Name)
		got := mf.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, registry has %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, lower is better")
	}

	if len(mf.PerLayer) != len(perLayer) || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the registry (1..128 allowed)", len(mf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		checkName(d.Name)
		got := mf.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, registry has %+v", i, got, d)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
}

// TestOnlySeamImportsTheProgram keeps seam.go the single point of
// contact with repro/internal, and the reference kernel free of it.
func TestOnlySeamImportsTheProgram(t *testing.T) {
	for _, dir := range []string{".", "ref"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			parsed, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range parsed.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				switch {
				case dir == "ref" && strings.Contains(path, "."), dir == "ref" && strings.HasPrefix(path, "repro"):
					t.Errorf("%s imports %s: the reference kernel imports the standard library only", f, path)
				case strings.HasPrefix(path, "repro/internal") && filepath.Base(f) != "seam.go":
					t.Errorf("%s imports %s: only seam.go may import the program", f, path)
				}
			}
		}
	}
}

// TestOpListsArePureFunctionOfSeed: the same seed gives the same op
// list; another seed gives the same multiset of fingerprints in another
// order.
func TestOpListsArePureFunctionOfSeed(t *testing.T) {
	hash := func(fps []string) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(fps, "\n"))))
	}
	sorted := func(fps []string) []string {
		s := append([]string(nil), fps...)
		sort.Strings(s)
		return s
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			lists := map[int64][][]string{}
			for _, seed := range []int64{1, 1, 2} {
				in, err := w.setup(seed, false, false) // full size: set-up runs no measured op
				if err != nil {
					t.Fatal(err)
				}
				lists[seed] = append(lists[seed], in.fingerprints(1), in.fingerprints(2))
				in.close()
			}
			a, again, b := lists[1][0], lists[1][2], lists[2][0]
			if len(a) == 0 {
				t.Fatal("empty op list")
			}
			if hash(a) != hash(again) {
				t.Error("same seed, same pass: different op lists")
			}
			if hash(a) == hash(b) {
				t.Error("seeds 1 and 2 give the same order")
			}
			if hash(a) == hash(lists[1][1]) {
				t.Error("passes 1 and 2 of one seed have the same order")
			}
			if hash(sorted(a)) != hash(sorted(b)) || hash(sorted(a)) != hash(sorted(lists[1][1])) {
				t.Error("the multiset of fingerprints depends on the seed or the pass")
			}
		})
	}
}

// TestSmoke runs every workload at tiny counts, untraced and traced,
// with the output checks on, and verifies the span tree of the traced
// run. It asserts nothing about time.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runUntraced(&w, 1, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("untraced: %d of %d ops failed: %v", res.failed, res.attempted, res.errs)
			}
			for _, d := range endToEnd {
				if v, ok := res.metrics[d.Name]; !ok || !(v > 0) {
					t.Errorf("untraced: %s = %v (present %v); end-to-end metrics are never 0", d.Name, v, ok)
				}
			}

			out := t.TempDir()
			res, err = runTraced(&w, 1, 0, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("traced: %d of %d checks failed: %v", res.failed, res.attempted, res.errs)
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.Name]; !ok {
					t.Errorf("traced: %s missing", d.Name)
				}
			}
			if r := res.metrics["trace.overhead_ratio"]; !(r > 0) {
				t.Errorf("trace.overhead_ratio = %v", r)
			}
			data, err := os.ReadFile(filepath.Join(out, w.name+".spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Workload string `json:"workload"`
				Spans    []span `json:"spans"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatal(err)
			}
			verifySpanTree(t, file.Spans)
		})
	}
}

// verifySpanTree: every op has exactly one root; every other span has a
// parent of the same op within whose interval it lies; self times are
// never negative. The one exception to containment is documented in the
// README: a program "job" span is the asynchronous continuation of the
// request that submitted it, so it starts inside its parent but ends
// inside the op, not the parent (its descendants inherit the exception).
func verifySpanTree(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	const slackNs = 100_000 // program spans mix wall-clock starts with monotonic lengths
	byID := map[string]span{}
	roots := map[int64]span{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Errorf("span id %s used twice", s.ID)
		}
		byID[s.ID] = s
		if s.EndNs < s.StartNs {
			t.Errorf("span %s %q ends before it starts", s.ID, s.Name)
		}
		if s.Parent == "" {
			if r, ok := roots[s.Op]; ok {
				t.Errorf("op %d has two roots: %q and %q", s.Op, r.Name, s.Name)
			}
			roots[s.Op] = s
		}
	}
	async := func(s span) bool {
		for ; s.Parent != ""; s = byID[s.Parent] {
			if s.Name == "job" {
				return true
			}
		}
		return false
	}
	within := func(in, out span) bool {
		return in.StartNs >= out.StartNs-slackNs && in.EndNs <= out.EndNs+slackNs
	}
	bad := 0
	for _, s := range spans {
		root, ok := roots[s.Op]
		if !ok {
			t.Fatalf("op %d has no root span", s.Op)
		}
		if !within(s, root) {
			bad++
			t.Errorf("span %q of op %d lies outside the op", s.Name, s.Op)
		}
		if s.Parent == "" {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			bad++
			t.Errorf("span %q of op %d: parent %s not in the file", s.Name, s.Op, s.Parent)
		case p.Op != s.Op:
			bad++
			t.Errorf("span %q: op %d, parent's op %d", s.Name, s.Op, p.Op)
		case !within(s, p) && !async(s):
			bad++
			t.Errorf("span %q [%d, %d] lies outside its parent %q [%d, %d]", s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		if bad > 10 {
			t.Fatal("too many span errors")
		}
	}
	for name, st := range foldSpans(spans) {
		if st.selfNs < 0 {
			t.Errorf("span %q: negative self time %d ns", name, st.selfNs)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, med, q3 := quartiles(c.xs)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestMedianOp: the weighted median of class medians.
func TestMedianOp(t *testing.T) {
	ls := []classLat{{ref: 30, weight: 35}, {ref: 9000, weight: 25}, {ref: 50, weight: 15}, {ref: 10000, weight: 15}, {ref: 300, weight: 5}, {ref: 800, weight: 5}}
	if got := medianOp(ls, true); got != 175 {
		t.Errorf("exact half split: got %v, want the midpoint 175", got)
	}
	ls[0].weight = 36
	if got := medianOp(ls, true); got != 50 {
		t.Errorf("got %v, want 50", got)
	}
}
