// Command mistbench regenerates the paper's evaluation tables and
// figures on the reproduction's simulation substrate.
//
//	mistbench -exp fig2            # one experiment, fast subset
//	mistbench -exp fig11 -full     # paper-scale grid (slow)
//	mistbench -exp all             # everything, fast subsets
//
// The printed tables are the paper-vs-reproduction record (there is no
// separate results file); README "Performance" has the committed
// benchmark numbers.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mistbench: ")
	var (
		exp  = flag.String("exp", "all", "experiment name or 'all': "+strings.Join(experiments.Names(), ", "))
		full = flag.Bool("full", false, "paper-scale grids (slow) instead of fast subsets")
	)
	flag.Parse()

	scale := experiments.Small
	if *full {
		scale = experiments.Full
	}
	names := experiments.Names()
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	for _, name := range names {
		start := time.Now()
		tb, err := experiments.Run(strings.TrimSpace(name), scale)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(tb)
		fmt.Printf("(%s completed in %s)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
