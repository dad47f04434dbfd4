// Command misttune runs the Mist auto-tuner on one workload and prints
// the chosen plan, the analyzer's prediction, and the execution engine's
// measurement. With -batch it tunes a whole file of workloads through
// the async job queue instead, optionally against a durable plan store
// (-store-dir) so repeated invocations reuse earlier results.
//
// Example:
//
//	misttune -model gpt3-2.7b -platform l4 -gpus 4 -batch 32
//	misttune -model llama-7b -platform a100 -gpus 8 -batch 128 -space deepspeed
//	misttune -batch workloads.json -store-dir ./plans -workers 4
//
// The batch file is a JSON array of job specs:
//
//	[{"model":"gpt3-2.7b","gpus":4,"batch":32},
//	 {"model":"gpt3-2.7b","gpus":8,"batch":64,"priority":2}]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	mist "repro"
	"repro/internal/core"
	"repro/internal/hardware"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("misttune: ")
	var (
		modelName = flag.String("model", "gpt3-2.7b", "model name (see -list-models)")
		platform  = flag.String("platform", "l4", "l4 or a100")
		gpus      = flag.Int("gpus", 4, "total GPU count (2, 4, 8 or a multiple of 8)")
		batchArg  = flag.String("batch", "32", "global batch size, or a JSON file of job specs to tune in batch mode")
		seq       = flag.Int("seq", 0, "sequence length (default: 2048 on l4, 4096 on a100)")
		flash     = flag.Bool("flash", true, "enable FlashAttention")
		spaceName = flag.String("space", "mist", "search space: mist|megatron|deepspeed|aceso|3d|uniform")
		planOut   = flag.String("plan-out", "", "write the tuned plan as JSON to this file")
		list      = flag.Bool("list-models", false, "list model catalog and exit")
		storeDir  = flag.String("store-dir", "", "durable plan-store directory for batch mode")
		workers   = flag.Int("workers", 2, "batch-mode worker pool size")
		version   = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("misttune " + serve.ReadBuildInfo().String())
		return
	}
	if *list {
		for _, n := range mist.Models() {
			fmt.Println(n)
		}
		return
	}

	// -batch doubles as the entry into batch mode: a numeric value is
	// the single-workload global batch size, anything else names a JSON
	// file of job specs.
	batchSize, batchErr := strconv.Atoi(*batchArg)
	if batchErr != nil {
		if err := runBatch(*batchArg, *storeDir, *workers); err != nil {
			log.Fatal(err)
		}
		return
	}
	batch := &batchSize

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
	space, err := core.SpaceByName(*spaceName)
	if err != nil {
		log.Fatal(err)
	}

	w := mist.Workload{Model: cfg, Seq: *seq, Flash: *flash, GlobalBatch: *batch}
	fmt.Printf("tuning %s on %d x %s (seq=%d, batch=%d, flash=%v, space=%s)\n",
		cfg.Name, *gpus, cl.GPU.Name, *seq, *batch, *flash, space.Name)

	res, err := mist.TuneWithSpace(w, cl, space)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbest plan:\n%s\n", res.Plan)
	fmt.Printf("\npredicted iteration time: %.3fs (%.2f samples/s)\n", res.Predicted, res.PredThroughput)
	fmt.Printf("tuning: %d candidates over %d (S,G) pairs in %s (eval cache: %.1f%% hits, %d unique points)\n",
		res.Candidates, res.SGPairs, res.Elapsed.Round(1e6),
		100*res.CacheHitRate(), res.EvalCacheMisses)
	fmt.Printf("        %d of %d (S, G) pairs skipped by compute floor\n", res.FloorSkippedPairs, res.SGPairs)

	m, err := mist.Simulate(w, cl, res.Plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured iteration time: %.3fs (%.2f samples/s), bubble %.1f%%\n",
		m.IterTime, m.Throughput, 100*m.Bubble)
	for i, pm := range m.PeakMem {
		fmt.Printf("  stage %d peak memory: %.2f GB (budget %.2f GB)\n",
			i, pm/(1<<30), cl.MemoryBudget()/(1<<30))
	}
	if m.OOM(cl.MemoryBudget()) {
		fmt.Println("WARNING: plan exceeds the memory budget")
	}

	if *planOut != "" {
		data, err := json.MarshalIndent(res.Plan, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*planOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("plan written to %s\n", *planOut)
	}
}

// runBatch tunes every workload in a JSON spec file through the async
// job queue (priorities respected, duplicate specs deduplicated onto one
// search), optionally backed by a durable plan store so a re-run serves
// finished plans from disk and searches only the rest.
func runBatch(file, storeDir string, workers int) error {
	data, err := os.ReadFile(file)
	if err != nil {
		return fmt.Errorf("-batch %q is neither a global batch size nor a readable spec file: %w", file, err)
	}
	var specs []serve.JobSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("parsing %s (want a JSON array of job specs): %w", file, err)
	}
	if len(specs) == 0 {
		return fmt.Errorf("%s: no job specs", file)
	}

	// Batch mode submits every spec up front before waiting, so the job
	// queue must hold the whole file — size the admission bound to it
	// instead of inheriting the serving default.
	opts := []serve.Option{
		serve.WithJobWorkers(workers),
		serve.WithLimits(serve.Limits{MaxQueue: len(specs) + 1}),
	}
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		fmt.Printf("plan store: %d plans loaded from %s\n", st.Len(), storeDir)
		opts = append(opts, serve.WithStore(st))
	}
	srv := serve.New(opts...)
	defer srv.Close()

	type submitted struct {
		spec serve.JobSpec
		st   serve.JobStatus
	}
	subs := make([]submitted, 0, len(specs))
	for i, spec := range specs {
		st, err := srv.SubmitJob(context.Background(), spec)
		if err != nil {
			return fmt.Errorf("spec %d: %w", i, err)
		}
		subs = append(subs, submitted{spec: spec, st: st})
	}
	fmt.Printf("submitted %d specs (%d distinct jobs) on %d workers\n\n",
		len(subs), countDistinct(subs, func(s submitted) string { return s.st.ID }), workers)

	failed := 0
	for _, sub := range subs {
		final, err := srv.WaitJob(context.Background(), sub.st.ID)
		if err != nil {
			return err
		}
		tag := fmt.Sprintf("%s %s x%d batch %d [%s]",
			sub.spec.Model, sub.spec.Platform, sub.spec.GPUs, sub.spec.Batch, sub.st.ID)
		switch {
		case final.State != "done":
			failed++
			fmt.Printf("%-48s %s: %s\n", tag, final.State, final.Error)
		case final.Result == nil:
			failed++
			fmt.Printf("%-48s done without a result\n", tag)
		default:
			r := final.Result
			src := "search"
			switch {
			case r.FromStore:
				src = "plan store"
			case r.Cached:
				src = "plan cache"
			}
			fmt.Printf("%-48s %8.2f samples/s  %8.0fms  %s\n",
				tag, r.PredThroughput, r.ElapsedMS, src)
		}
	}
	st := srv.Stats()
	fmt.Printf("\nsearches run: %d  plan-cache hits: %d  store hits: %d  job dedups: %d\n",
		st.TunesRun, st.PlanCacheHits, st.StoreHits, st.JobsDeduped)
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(subs))
	}
	return nil
}

func countDistinct[T any](xs []T, key func(T) string) int {
	seen := map[string]bool{}
	for _, x := range xs {
		seen[key(x)] = true
	}
	return len(seen)
}
