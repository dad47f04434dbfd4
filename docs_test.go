package mist

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The design doc is read as data here: its "Life of a request" table
// against BENCHMARK.json, its "Package inventory" against the tree, its
// size against a ceiling, and every quoted heading citation against the
// headings that exist. Docs that can disagree with the code are checked
// against it.

// designMaxBytes is the design doc's size ceiling: it keeps invariants,
// their reasons and their tests, and leaves history and numbers to
// CHANGES.md.
const designMaxBytes = 35000

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// docSection returns the body of the level-2 section with the given
// heading, up to the next level-2 heading.
func docSection(t *testing.T, doc, heading string) string {
	t.Helper()
	_, body, found := strings.Cut(doc, "\n## "+heading+"\n")
	if !found {
		t.Fatalf("no %q section", heading)
	}
	body, _, _ = strings.Cut(body, "\n## ")
	return body
}

// tableRows returns the trimmed cells of every data row of the Markdown
// tables in s, without header and separator rows.
func tableRows(s string) [][]string {
	var rows [][]string
	header := true
	for _, line := range strings.Split(s, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			header = true
			continue
		}
		if header {
			header = false
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if strings.Trim(cells[0], "-: ") == "" {
			continue
		}
		rows = append(rows, cells)
	}
	return rows
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

func codeSpans(cell string) []string {
	var out []string
	for _, m := range codeSpan.FindAllStringSubmatch(cell, -1) {
		out = append(out, m[1])
	}
	return out
}

// benchUnits maps every metric BENCHMARK.json declares to its unit.
func benchUnits(t *testing.T) map[string]string {
	t.Helper()
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readDoc(t, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	units := map[string]string{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		units[m.Name] = m.Unit
	}
	return units
}

var measured = regexp.MustCompile(`^([0-9][0-9.]*) ([A-Za-z/%]+)\b`)

// TestDesignRequestTableMetrics holds the "Life of a request" table to
// the benchmark: nine steps, each naming the package that runs it and
// the metrics that price it, every metric declared in BENCHMARK.json and
// every number stated in that metric's unit.
func TestDesignRequestTableMetrics(t *testing.T) {
	units := benchUnits(t)
	rows := tableRows(docSection(t, readDoc(t, "DESIGN.md"), "Life of a request"))
	if len(rows) != 9 {
		t.Fatalf("Life of a request has %d steps, want 9", len(rows))
	}
	for i, row := range rows {
		if len(row) != 4 {
			t.Errorf("step %d: %d columns, want step, package, metric, traced run", i+1, len(row))
			continue
		}
		pkgs := codeSpans(row[1])
		if len(pkgs) == 0 {
			t.Errorf("step %d names no package", i+1)
		}
		for _, p := range pkgs {
			if _, err := os.Stat(p); err != nil {
				t.Errorf("step %d: package %s: %v", i+1, p, err)
			}
		}
		metrics, numbers := strings.Split(row[2], ";"), strings.Split(row[3], ";")
		if len(metrics) != len(numbers) {
			t.Errorf("step %d: %d metrics but %d numbers", i+1, len(metrics), len(numbers))
			continue
		}
		for j, cell := range metrics {
			names := codeSpans(cell)
			if len(names) != 1 {
				t.Errorf("step %d: metric cell %q holds %d names, want one", i+1, cell, len(names))
				continue
			}
			unit, ok := units[names[0]]
			if !ok {
				t.Errorf("step %d: metric %s is not in BENCHMARK.json", i+1, names[0])
				continue
			}
			m := measured.FindStringSubmatch(strings.TrimSpace(numbers[j]))
			switch {
			case m == nil:
				t.Errorf("step %d: %q is not a number and a unit", i+1, numbers[j])
			case m[2] != unit:
				t.Errorf("step %d: %s stated in %s, BENCHMARK.json says %s", i+1, names[0], m[2], unit)
			}
		}
	}
}

// goDirs lists the directories under roots that hold Go files, skipping
// testdata.
func goDirs(t *testing.T, roots ...string) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if dir := filepath.Dir(path); !d.IsDir() && strings.HasSuffix(path, ".go") && !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, filepath.ToSlash(dir))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// TestDesignPackageInventory holds the one package inventory to the
// tree: every directory with Go code under internal/, cmd/ and tools/ is
// listed exactly once, and every listed path exists.
func TestDesignPackageInventory(t *testing.T) {
	listed := map[string]int{}
	for _, row := range tableRows(docSection(t, readDoc(t, "DESIGN.md"), "Package inventory")) {
		for _, p := range codeSpans(row[0]) {
			listed[p]++
			if _, err := os.Stat(p); err != nil {
				t.Errorf("inventory lists %s: %v", p, err)
			}
		}
	}
	if len(listed) < 20 {
		t.Fatalf("inventory scan found %d paths — the section moved or the table changed shape", len(listed))
	}
	for p, n := range listed {
		if n > 1 {
			t.Errorf("inventory lists %s %d times", p, n)
		}
	}
	for _, dir := range goDirs(t, "internal", "cmd", "tools") {
		if listed[dir] == 0 {
			t.Errorf("inventory does not list %s", dir)
		}
	}
}

// TestDesignSize fails once the design doc outgrows designMaxBytes.
func TestDesignSize(t *testing.T) {
	if n := len(readDoc(t, "DESIGN.md")); n > designMaxBytes {
		t.Errorf("DESIGN.md is %d bytes, over the %d ceiling: move history and numbers to CHANGES.md", n, designMaxBytes)
	}
}

// headings returns the Markdown headings of doc, outside code fences.
func headings(doc string) map[string]bool {
	out := map[string]bool{}
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			fenced = !fenced
		case !fenced && strings.HasPrefix(line, "#"):
			out[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	return out
}

// citation matches a heading citation — the file name, then the
// heading in double quotes — in whitespace-normalized text.
var citation = regexp.MustCompile(`\b(DESIGN\.md|README(?:\.md)?) "([^"]+)"`)

// TestDocCitationsNameHeadings checks every heading citation in the Go
// comments of the module (benchmarks/ is its own module, citing its own
// README), in README.md, docs/RUNBOOK.md and the design doc itself
// against the headings the cited file has; and that no Go comment
// cites the design doc without naming a heading.
func TestDocCitationsNameHeadings(t *testing.T) {
	have := map[string]map[string]bool{ // keyed by the cited name, ".md" dropped
		"DESIGN": headings(readDoc(t, "DESIGN.md")),
		"README": headings(readDoc(t, "README.md")),
	}
	check := func(where, text string, loose bool) int {
		text = strings.Join(strings.Fields(text), " ")
		cites := citation.FindAllStringSubmatch(text, -1)
		for _, m := range cites {
			if !have[strings.TrimSuffix(m[1], ".md")][m[2]] {
				t.Errorf("%s cites %s %q, which has no such heading", where, m[1], m[2])
			}
		}
		for rest := text; loose; {
			i := strings.Index(rest, "DESIGN.md")
			if i < 0 {
				break
			}
			if rest = rest[i+len("DESIGN.md"):]; !strings.HasPrefix(rest, ` "`) {
				t.Errorf("%s mentions DESIGN.md without a quoted heading", where)
			}
		}
		return len(cites)
	}
	n := 0
	for _, doc := range []string{"README.md", "docs/RUNBOOK.md", "DESIGN.md"} {
		n += check(doc, readDoc(t, doc), false)
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmarks") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			pos := fset.Position(cg.Pos())
			n += check(pos.String(), cg.Text(), path != "docs_test.go")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("found only %d heading citations — the scan broke", n)
	}
}
