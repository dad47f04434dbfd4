package core

import (
	"testing"

	"repro/internal/hardware"
)

// BenchmarkWarmStartTune compares a cold search against the same search
// warm-started from a neighboring workload's plan (half the batch). Both
// sub-benchmarks report candidate evaluations per op alongside wall
// time. The committed BENCH.json records warm 299 evals/op against cold
// 298: the incumbent bound that aborts dominated (S, G) pairs is fed by
// every completed wave of pairs on cold searches too, and the seed's own
// pricing is the extra evaluation. Whether Tuner.Warm earns its keep is
// ROADMAP item 3 (b); this bench is the instrument, not a promise.
func BenchmarkWarmStartTune(b *testing.B) {
	w := testWorkload("gpt3-1.3b", 16)
	space := DeepSpeedSpace()
	nodes, perNode, err := hardware.MeshForGPUs(4)
	if err != nil {
		b.Fatal(err)
	}
	cl := hardware.L4Cluster(nodes, perNode)

	// The neighbor a plan store would offer: same model, half the batch.
	neighborTuner, err := New(testWorkload("gpt3-1.3b", 8), cl, space)
	if err != nil {
		b.Fatal(err)
	}
	neighborRes, err := neighborTuner.Tune()
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, warm bool) {
		evals := 0
		for i := 0; i < b.N; i++ {
			tn, err := New(w, cl, space) // fresh tuner: no eval-cache carryover
			if err != nil {
				b.Fatal(err)
			}
			if warm {
				tn.Warm = neighborRes.Plan
			}
			res, err := tn.Tune()
			if err != nil {
				b.Fatal(err)
			}
			if warm && !res.WarmStarted {
				b.Fatal("seed rejected")
			}
			evals += res.Candidates
		}
		b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, false) })
	b.Run("warm", func(b *testing.B) { run(b, true) })
}
