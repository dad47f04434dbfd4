// Command mistperf is the repo's end-to-end benchmark: four workloads
// over the tuner and the tuning service, every time metric restated at
// the speed of a reference kernel run right next to the work, a traced
// mode that gives one number per layer, and a selfcheck that says
// whether two sets of runs of the same code agree. See ../README.md.
//
//	mistperf -workload search-cold -seed 1 -seconds 16 -trace 0
//	mistperf -all
//	mistperf selfcheck -sets 2 -runs 5
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics (end-to-end with -trace 0,
// per-layer with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see -list)")
		seed    = flag.Int64("seed", 1, "seed of the op lists: permutes order and ingress node, never the work")
		seconds = flag.Float64("seconds", 16, "length of the measured phase; a run ends at the first pass boundary after it")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics and the span file")
		all     = flag.Bool("all", false, "run every workload in turn")
		list    = flag.Bool("list", false, "list the workloads and why each exists")
		outDir  = flag.String("out", "benchmarks/out", "directory for span files and probe scratch space")
		short   = flag.Bool("short", false, "tiny counts (smoke test; the numbers mean nothing)")
	)
	flag.Parse()
	if flag.Arg(0) == "selfcheck" {
		os.Exit(selfcheckMain(flag.Args()[1:]))
	}
	if *list {
		for _, w := range workloads {
			fmt.Printf("%-13s %d client(s)  %s\n", w.name, w.clients, w.why)
		}
		return
	}
	var names []string
	switch {
	case *all:
		for _, w := range workloads {
			names = append(names, w.name)
		}
	case *name != "":
		names = []string{*name}
	default:
		fmt.Fprintln(os.Stderr, "mistperf: need -workload <name>, -all or -list")
		os.Exit(2)
	}
	for _, n := range names {
		w := workloadByName(n)
		if w == nil {
			fmt.Fprintf(os.Stderr, "mistperf: unknown workload %q\n", n)
			os.Exit(2)
		}
		res, err := runOne(w, *seed, *seconds, *traced != 0, *short, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mistperf: %s: %v\n", n, err)
			os.Exit(1)
		}
		report(w, res, *traced != 0)
	}
}

func runOne(w *workload, seed int64, seconds float64, traced, short bool, outDir string) (*result, error) {
	if traced {
		return runTraced(w, seed, seconds, short, outDir)
	}
	return runUntraced(w, seed, seconds, short)
}

// wireMetric is one metric on the result line.
type wireMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wireResult is the result line.
type wireResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]wireMetric `json:"metrics"`
}

// report prints every metric by name with its unit, then the result
// line.
func report(w *workload, res *result, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "mistperf: %s: failed op: %s\n", w.name, e)
	}
	out := wireResult{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]wireMetric{}}
	fmt.Printf("workload %s: %d ops attempted, %d failed\n", w.name, res.attempted, res.failed)
	for _, d := range defs {
		v := res.metrics[d.Name]
		fmt.Printf("  %-36s %14.6g %-9s (%s is better)\n", d.Name, v, d.Unit, d.Better)
		out.Metrics[d.Name] = wireMetric{Value: v, Unit: d.Unit}
	}
	if len(res.diag) > 0 {
		if !traced {
			fmt.Println("diagnostics (not gated):")
			for _, k := range sortedKeys(res.diag) {
				fmt.Printf("  %-36s %14.6g\n", k, res.diag[k])
			}
		}
		dl, err := json.Marshal(childDiag{Values: res.diag, Slices: res.slices, Batches: res.batches})
		if err == nil {
			fmt.Println("diag " + string(dl))
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mistperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
