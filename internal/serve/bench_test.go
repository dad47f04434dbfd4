package serve

import (
	"context"
	"testing"

	"repro/internal/store"
)

// BenchmarkBatchSubmit drives a fleet-style batch — several distinct
// workloads plus duplicates — through the async job queue and waits for
// the batch to drain. The cold sub-benchmark starts from an empty plan
// store each op; the warm one reuses a pre-populated store, so exact
// repeats are answered from disk and only the rest are searched — the
// amortization a fleet operator sees across recurring tuning sweeps.
// searches/op reports how many searches actually ran per batch.
func BenchmarkBatchSubmit(b *testing.B) {
	specs := make([]JobSpec, 0, 8)
	for _, batch := range []int{8, 16} {
		for _, prio := range []int{0, 1} {
			specs = append(specs, JobSpec{
				WorkloadSpec: WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: batch, Space: "deepspeed"},
				Priority:     prio,
			}) // two duplicates per batch size: dedup work for the queue
		}
	}
	specs = append(specs,
		JobSpec{WorkloadSpec: WorkloadSpec{Model: "gpt3-1.3b", GPUs: 4, Batch: 8, Space: "deepspeed"}},
		JobSpec{WorkloadSpec: WorkloadSpec{Model: "falcon-1.3b", GPUs: 2, Batch: 8, Space: "deepspeed"}},
	)

	drain := func(b *testing.B, s *Server) (searches uint64) {
		b.Helper()
		ids := map[string]bool{}
		for i, spec := range specs {
			st, err := s.SubmitJob(context.Background(), spec)
			if err != nil {
				b.Fatalf("spec %d: %v", i, err)
			}
			ids[st.ID] = true
		}
		for id := range ids {
			final, err := s.WaitJob(context.Background(), id)
			if err != nil {
				b.Fatal(err)
			}
			if final.State != "done" {
				b.Fatalf("job %s: %s (%s)", id, final.State, final.Error)
			}
		}
		return s.Stats().TunesRun
	}

	b.Run("cold-store", func(b *testing.B) {
		searches := uint64(0)
		for i := 0; i < b.N; i++ {
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s := New(WithStore(st), WithJobWorkers(4))
			searches += drain(b, s)
			s.Close()
		}
		b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
	})

	b.Run("warm-store", func(b *testing.B) {
		// One shared directory: the first fill pays, every measured op
		// reuses it through a fresh server (fresh plan cache, cold
		// memory, warm disk).
		dir := b.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s := New(WithStore(st), WithJobWorkers(4))
		drain(b, s)
		s.Close()
		b.ResetTimer()
		searches := uint64(0)
		for i := 0; i < b.N; i++ {
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			s := New(WithStore(st), WithJobWorkers(4))
			searches += drain(b, s)
			s.Close()
		}
		b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
	})

	b.Run("no-store", func(b *testing.B) {
		searches := uint64(0)
		for i := 0; i < b.N; i++ {
			s := New(WithJobWorkers(4))
			searches += drain(b, s)
			s.Close()
		}
		b.ReportMetric(float64(searches)/float64(b.N), "searches/op")
	})
}
