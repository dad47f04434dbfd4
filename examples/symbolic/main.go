// Symbolic: the educational use of Mist's symbolic analysis system
// highlighted in the paper's artifact appendix (§A.5): "it supports
// tracing, which generates a corresponding symbolic computational graph
// ... helping users understand shape propagation and how each input
// dimension is utilized."
//
// This example traces one GPT-3 transformer block once, prints its
// closed-form memory expressions in the microbatch symbol b and the
// tensor-parallel degree tp, and shows how a single compiled program
// answers many what-if questions at once (the batched value substitution
// behind Mist's tuning speed).
//
//	go run ./examples/symbolic
package main

import (
	"fmt"
	"log"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/symbolic"
)

func main() {
	log.SetFlags(0)
	cfg := model.MustByName("gpt3-2.7b")
	seq := 2048

	for _, flash := range []bool{true, false} {
		secs, err := graph.Trace(cfg, seq, flash)
		if err != nil {
			log.Fatal(err)
		}
		g := secs.Layer
		fmt.Printf("=== %s, seq %d, flash=%v: %d traced ops ===\n", cfg.Name, seq, flash, g.NumOps())
		fmt.Printf("saved activations (bytes):  %s\n", g.SavedActivationBytes())
		fmt.Printf("checkpoint boundary:        %s\n", g.BoundaryBytes())
		fmt.Printf("backward liveness peak:     %s\n\n", g.PeakBackwardBytes())
	}

	// One symbolic trace, many configurations: compile the stash and
	// backward-peak expressions once and sweep microbatch size and TP
	// degree — no re-trace per degree.
	secs, err := graph.Trace(cfg, seq, true)
	if err != nil {
		log.Fatal(err)
	}
	bytes := secs.Bytes()
	prog := symbolic.MustCompile(
		[]*symbolic.Expr{bytes[graph.LayerStash], bytes[graph.LayerBwdPeak]},
		[]string{graph.BSymbol, graph.TPSymbol},
	)
	fmt.Println("batched substitution over (b, tp) (GB per layer):")
	fmt.Printf("%4s  %4s  %12s  %12s\n", "b", "tp", "stash", "bwd peak")
	for _, tp := range []int{1, 2, 4, 8} {
		if err := graph.CheckTP(cfg, tp); err != nil {
			log.Fatal(err)
		}
		for _, b := range []float64{1, 2, 4, 8, 16} {
			out := prog.EvalFrame([]float64{b, float64(tp)}, nil, nil)
			fmt.Printf("%4.0f  %4d  %12.3f  %12.3f\n", b, tp, out[0]/(1<<30), out[1]/(1<<30))
		}
	}
}
