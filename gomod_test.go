package mist

import (
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestGoLineNotNewerThanBenchmarkModule: the benchmark module
// (benchmarks/mistperf) builds this one through a replace directive, and
// when this module's go line is newer than the benchmark's, the go
// command refuses to build it ("go: updates to go.mod needed") — a
// failure `go test ./...` never enters that module to see. The
// benchmark's go.mod is read, not edited.
func TestGoLineNotNewerThanBenchmarkModule(t *testing.T) {
	root := goLine(t, "go.mod")
	bench := goLine(t, filepath.Join("benchmarks", "mistperf", "go.mod"))
	if compareGoVersions(t, root, bench) > 0 {
		t.Errorf("go.mod says go %s, newer than benchmarks/mistperf/go.mod's go %s: the benchmark would not build", root, bench)
	}
}

// goLine returns the version of a go.mod's go directive.
func goLine(t *testing.T, path string) string {
	t.Helper()
	for _, line := range strings.Split(readDoc(t, path), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "go "); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("%s has no go line", path)
	return ""
}

// compareGoVersions orders two go-line versions (1.N or 1.N.P) as
// slices.Compare orders their components, a missing patch reading as 0.
func compareGoVersions(t *testing.T, a, b string) int {
	t.Helper()
	parse := func(v string) []int {
		out := make([]int, 3)
		parts := strings.Split(v, ".")
		if len(parts) > len(out) {
			t.Fatalf("go version %q has more than three components", v)
		}
		for i, p := range parts {
			n, err := strconv.Atoi(p)
			if err != nil {
				t.Fatalf("go version %q: %v", v, err)
			}
			out[i] = n
		}
		return out
	}
	return slices.Compare(parse(a), parse(b))
}
