package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// selfcheckMain runs `sets` alternating sets of `runs` untraced runs of
// every workload, each run a fresh process of this binary, and reports
// per end-to-end metric how well the sets agree: each set's median and
// quartiles, the spread the contract gates (interquartile distance over
// median), the sets' relative disagreement, the furthest any run strays
// from its set's median, and the same spread taken on the raw values.
// It returns non-zero if a spread exceeds the metric's bound, if two
// sets disagree by more than half the bound, or if a run strays past
// the bound.
func selfcheckMain(args []string) int {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	sets := fs.Int("sets", 2, "alternating sets of runs")
	runs := fs.Int("runs", 5, "runs per set; run j of every set uses seed+j")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Float64("seconds", 16, "measured seconds per run")
	only := fs.String("workload", "", "comma-separated workloads (default: all)")
	_ = fs.Parse(args)
	if *sets < 2 || *runs < 2 {
		fmt.Fprintln(os.Stderr, "mistperf selfcheck: need -sets >= 2 and -runs >= 2")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mistperf selfcheck:", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		if *only == "" || strings.Contains(","+*only+",", ","+w.name+",") {
			names = append(names, w.name)
		}
	}

	// samples[workload][metric][set] = values; raw diagnostics ride
	// along under their own names.
	samples := map[string]map[string][][]float64{}
	slices := []float64{}
	bad := 0
	for j := 0; j < *runs; j++ {
		for s := 0; s < *sets; s++ {
			for _, name := range names {
				out, err := runChild(self, name, *seed+int64(j), *seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "mistperf selfcheck: %s set %d run %d: %v\n", name, s, j, err)
					return 1
				}
				if !out.Correct || out.Failed != 0 {
					fmt.Printf("%s set %d run %d: %d of %d ops failed\n", name, s, j, out.Failed, out.Attempted)
					bad++
				}
				if samples[name] == nil {
					samples[name] = map[string][][]float64{}
				}
				for k, v := range out.values {
					if samples[name][k] == nil {
						samples[name][k] = make([][]float64, *sets)
					}
					samples[name][k][s] = append(samples[name][k][s], v)
				}
				slices = append(slices, out.slices...)
				fmt.Fprintf(os.Stderr, "selfcheck: %s set %d run %d done\n", name, s, j)
			}
		}
	}

	raw := map[string]string{"ops_per_s": "bench.raw_ops_per_s", "op_p50_ms": "bench.raw_op_p50_ms", "cpu_ms_per_op": "bench.raw_cpu_ms_per_op", "setup_s": "bench.raw_setup_s"}
	for _, name := range names {
		fmt.Printf("\n%s\n", name)
		fmt.Printf("  %-18s %6s  %s\n", "metric", "bound", "per set: median [q1, q3] spread | sets disagree | worst stray | raw spread")
		for _, d := range endToEnd {
			perSet := samples[name][d.Name]
			var line []string
			var meds []float64
			worstSpread, worstStray := 0.0, 0.0
			for _, xs := range perSet {
				q1, med, q3 := quartiles(xs)
				meds = append(meds, med)
				sp := (q3 - q1) / med
				worstSpread = math.Max(worstSpread, sp)
				for _, x := range xs {
					worstStray = math.Max(worstStray, math.Abs(x-med)/med)
				}
				line = append(line, fmt.Sprintf("%.5g [%.5g, %.5g] %.2f%%", med, q1, q3, 100*sp))
			}
			disagree := 0.0
			for _, m := range meds[1:] {
				disagree = math.Max(disagree, math.Abs(m-meds[0])/meds[0])
			}
			rawSpread := "-"
			if rn, ok := raw[d.Name]; ok {
				w := 0.0
				for _, xs := range samples[name][rn] {
					q1, med, q3 := quartiles(xs)
					w = math.Max(w, (q3-q1)/med)
				}
				rawSpread = fmt.Sprintf("%.2f%%", 100*w)
			}
			verdict := "ok"
			switch {
			case worstSpread > d.Bound:
				verdict = "SPREAD EXCEEDS BOUND"
				bad++
			case disagree > d.Bound/2:
				verdict = "SETS DISAGREE"
				bad++
			case worstStray > d.Bound:
				verdict = "A RUN STRAYS PAST THE BOUND"
				bad++
			}
			fmt.Printf("  %-18s %5.1f%%  %s | %.2f%% | %.2f%% | %s  %s\n", d.Name, 100*d.Bound,
				strings.Join(line, "  "), 100*disagree, 100*worstStray, rawSpread, verdict)
		}
		fmt.Println("  every run's deviation from its set's median, %:")
		for _, d := range endToEnd {
			var sets []string
			for _, xs := range samples[name][d.Name] {
				_, med, _ := quartiles(xs)
				var devs []string
				for _, x := range xs {
					devs = append(devs, fmt.Sprintf("%+.1f", 100*(x-med)/med))
				}
				sets = append(sets, strings.Join(devs, " "))
			}
			fmt.Printf("  %-18s %s\n", d.Name, strings.Join(sets, "  |  "))
		}
	}
	sort.Float64s(slices)
	if len(slices) > 0 {
		fmt.Printf("\nreference slices: %d taken, fastest decile %.3f ms (ref.NominalMs should be this), median %.3f ms, p90 %.3f ms\n",
			len(slices), quantile(slices, 0.1), quantile(slices, 0.5), quantile(slices, 0.9))
	}
	if bad > 0 {
		fmt.Printf("\nselfcheck: FAILED (%d findings)\n", bad)
		return 1
	}
	fmt.Println("\nselfcheck: ok")
	return 0
}

// quartiles are Python's statistics.quantiles(xs, n=4) — the method the
// benchmark contract names — for len(xs) >= 2.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// childResult is one child run: its result line plus the diagnostics it
// printed on "diag " lines.
type childResult struct {
	wireResult
	values map[string]float64
	slices []float64
}

// childDiag is the line a run prints before its result line for
// selfcheck to read: raw (not normalised) values and every slice taken.
type childDiag struct {
	Values  map[string]float64 `json:"values"`
	Slices  []float64          `json:"slicesMs"`
	Batches []batchDump        `json:"batches"`
}

func runChild(self, workload string, seed int64, seconds float64) (*childResult, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = nil
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	out := &childResult{values: map[string]float64{}}
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "diag "); ok {
			var d childDiag
			if err := json.Unmarshal([]byte(rest), &d); err != nil {
				return nil, fmt.Errorf("child diag line: %w", err)
			}
			for k, v := range d.Values {
				out.values[k] = v
			}
			out.slices = d.Slices
			continue
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &out.wireResult); err != nil {
		return nil, fmt.Errorf("child result line %q: %w", last, err)
	}
	for k, v := range out.Metrics {
		out.values[k] = v.Value
	}
	return out, nil
}
