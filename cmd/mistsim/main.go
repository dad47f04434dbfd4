// Command mistsim executes a training plan on the discrete-event engine
// and prints its timeline characteristics: per-stage microbatch costs,
// pipeline bubble, per-stage peak memory, and throughput.
//
// The plan comes either from a JSON file written by misttune -plan-out,
// or from flags describing a uniform plan:
//
//	mistsim -model gpt3-2.7b -platform l4 -gpus 4 -batch 32 \
//	        -stages 2 -g 4 -dp 1 -tp 2 -zero 2 -ckpt 8 -ao 0.5
//	mistsim -model gpt3-2.7b -platform l4 -gpus 4 -batch 32 -plan plan.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	mist "repro"
	"repro/internal/hardware"
	"repro/internal/schedule"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mistsim: ")
	var (
		modelName = flag.String("model", "gpt3-2.7b", "model name")
		platform  = flag.String("platform", "l4", "l4 or a100")
		gpus      = flag.Int("gpus", 4, "total GPU count")
		batch     = flag.Int("batch", 32, "global batch size")
		seq       = flag.Int("seq", 0, "sequence length (default by platform)")
		flash     = flag.Bool("flash", true, "enable FlashAttention")
		planFile  = flag.String("plan", "", "JSON plan file (overrides the uniform-plan flags)")
		traceFile = flag.String("trace", "", "write a Chrome trace of the pipeline timeline to this file")

		stages = flag.Int("stages", 1, "pipeline stages")
		g      = flag.Int("g", 1, "gradient accumulation steps")
		dp     = flag.Int("dp", 0, "data-parallel degree per stage (default: devices/tp)")
		tp     = flag.Int("tp", 1, "tensor-parallel degree per stage")
		zero   = flag.Int("zero", 0, "ZeRO level 0..3")
		ckpt   = flag.Int("ckpt", -1, "checkpointed layers per stage (-1 = all)")
		wo     = flag.Float64("wo", 0, "weight offload ratio")
		gro    = flag.Float64("go", 0, "gradient offload ratio")
		oo     = flag.Float64("oo", 0, "optimizer offload ratio")
		ao     = flag.Float64("ao", 0, "activation offload ratio")
	)
	flag.Parse()

	cfg, err := mist.ModelByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	cl, defaultSeq, err := hardware.ClusterByName(*platform, *gpus)
	if err != nil {
		log.Fatal(err)
	}
	if *seq == 0 {
		*seq = defaultSeq
	}
	w := mist.Workload{Model: cfg, Seq: *seq, Flash: *flash, GlobalBatch: *batch}

	var p *mist.Plan
	if *planFile != "" {
		data, err := os.ReadFile(*planFile)
		if err != nil {
			log.Fatal(err)
		}
		p = &mist.Plan{}
		if err := json.Unmarshal(data, p); err != nil {
			log.Fatal(err)
		}
	} else {
		p = uniformPlan(w, cl, *stages, *g, *dp, *tp, *zero, *ckpt, *wo, *gro, *oo, *ao)
	}

	m, events, err := mist.Trace(w, cl, p)
	if err != nil {
		log.Fatal(err)
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := mist.WriteChromeTrace(f, events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("timeline written to %s (open in chrome://tracing)\n", *traceFile)
	}
	fmt.Printf("plan:\n%s\n\n", p)
	fmt.Printf("iteration time: %.3fs  throughput: %.2f samples/s  bubble: %.1f%%\n",
		m.IterTime, m.Throughput, 100*m.Bubble)
	for i, c := range m.StageCosts {
		fmt.Printf("stage %d: fwd %.1fms bwd %.1fms first+%.1fms last+%.1fms peak %.2f GB\n",
			i, 1e3*c.Fwd, 1e3*c.Bwd, 1e3*c.FirstExtra, 1e3*c.LastExtra, m.PeakMem[i]/(1<<30))
	}
	if m.OOM(cl.MemoryBudget()) {
		fmt.Printf("RESULT: OOM (budget %.2f GB)\n", cl.MemoryBudget()/(1<<30))
		os.Exit(1)
	}
	fmt.Println("RESULT: fits")
}

// uniformPlan builds an S-stage plan with identical knobs per stage.
func uniformPlan(w mist.Workload, cl *mist.Cluster, s, g, dp, tp, zero, ckpt int, wo, gro, oo, ao float64) *mist.Plan {
	devPer := cl.TotalGPUs() / s
	if s <= 0 || devPer*s != cl.TotalGPUs() {
		log.Fatalf("stages %d must divide the GPU count %d", s, cl.TotalGPUs())
	}
	if dp == 0 {
		dp = devPer / tp
	}
	if dp*tp != devPer {
		log.Fatalf("dp(%d)*tp(%d) != devices per stage (%d)", dp, tp, devPer)
	}
	if w.GlobalBatch%(dp*g) != 0 {
		log.Fatalf("global batch %d not divisible by dp*G = %d", w.GlobalBatch, dp*g)
	}
	b := w.GlobalBatch / (dp * g)
	if w.Model.Layers%s != 0 {
		log.Fatalf("layers %d not divisible by stages %d", w.Model.Layers, s)
	}
	layers := w.Model.Layers / s
	if ckpt < 0 || ckpt > layers {
		ckpt = layers
	}
	p := &mist.Plan{GradAccum: g}
	for i := 0; i < s; i++ {
		p.Stages = append(p.Stages, mist.Stage{
			Shape: schedule.StageShape{
				B: b, DP: dp, TP: tp, ZeRO: zero,
				HasPre: i == 0, HasPost: i == s-1,
				NumStages: s, StageIdx: i, GradAccum: g,
			},
			Knobs: schedule.Knobs{Layers: layers, Ckpt: ckpt, WO: wo, GO: gro, OO: oo, AO: ao},
		})
	}
	return p
}
