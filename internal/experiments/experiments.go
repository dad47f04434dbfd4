// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the reproduction's simulation substrate. Each
// experiment returns a printable Table whose rows mirror the series the
// paper plots; the paper-vs-reproduction comparison is what
// `go run ./cmd/mistbench` prints (README "Performance" has the
// committed numbers). The cmd/mistbench binary and the repository-root
// benchmarks both drive this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects the experiment size: Small is a fast subset suitable for
// CI and `go test -bench`; Full is the paper-scale grid.
type Scale int

// Experiment scales.
const (
	Small Scale = iota
	Full
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row; values are rendered with %v.
func (t *Table) Add(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString("== " + t.Title + " ==\n")
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, r := range t.Rows {
		writeRow(r)
	}
	for _, n := range t.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// Func runs one experiment.
type Func func(scale Scale) (*Table, error)

// registry maps experiment names to implementations.
var registry = map[string]Func{}

func register(name string, f Func) { registry[name] = f }

// Names lists available experiments in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run executes a named experiment.
func Run(name string, scale Scale) (*Table, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return f(scale)
}
