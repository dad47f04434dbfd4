package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-hetero", "ablation-interference", "ablation-pareto", "ablation-schedule", "ablation-solver",
		"accuracy", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig2", "fig3", "fig5",
		"table1", "table3", "table4",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("experiments: %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiments: %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Small); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"a", "bb"}}
	tb.Add("x", 1.5)
	tb.Notes = append(tb.Notes, "hello")
	s := tb.String()
	for _, want := range []string{"== demo ==", "a", "bb", "1.500", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig5Small(t *testing.T) {
	tb, err := Run("fig5", Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("fig5 small: %d rows", len(tb.Rows))
	}
}

func TestFig2Small(t *testing.T) {
	tb, err := Run("fig2", Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("fig2: %d rows\n%s", len(tb.Rows), tb)
	}
	t.Log("\n" + tb.String())
	// The all-tuned row must carry the largest speedup among tuned rows.
	parse := func(s string) float64 {
		if !strings.HasSuffix(s, "x") {
			return 0
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil {
			return 0
		}
		return v
	}
	var full, best float64
	for _, r := range tb.Rows {
		v := parse(r[2])
		if r[0] == "mist" {
			full = v
		}
		if v > best {
			best = v
		}
	}
	if full < best-1e-9 {
		t.Errorf("all-tuned speedup %.2f below best single-technique %.2f", full, best)
	}
}

// TestEveryExperimentRunsSmall runs every registered experiment at Small
// scale, and pins ablation-schedule's rows, which the two pipeline op
// orders produce: equal makespans on uniform stages, and stage 0 holding
// min(S, G) stashes under 1F1B against G under GPipe.
func TestEveryExperimentRunsSmall(t *testing.T) {
	for _, name := range Names() {
		tb, err := Run(name, Small)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s: no rows", name)
		}
		for i, r := range tb.Rows {
			if len(r) != len(tb.Header) {
				t.Errorf("%s row %d: %d cells under %d columns", name, i, len(r), len(tb.Header))
			}
		}
		if name != "ablation-schedule" {
			continue
		}
		want := [][]string{
			{"4", "23.000", "23.000", "4", "4"},
			{"8", "35.000", "35.000", "4", "8"},
		}
		if fmt.Sprint(tb.Rows) != fmt.Sprint(want) {
			t.Errorf("ablation-schedule rows %v, want %v", tb.Rows, want)
		}
	}
}
