// Package evalcache is the old name of the analyzer's row store, kept as
// aliases because benchmarks/mistperf/seam.go names them (ROADMAP 10 (g)).
// The store is schedule.Rows, and every search prices through its
// analyzer's own (schedule.Analyzer.Rows); New builds a second, empty one,
// which a measurement of cold pricing wants.
package evalcache

import "repro/internal/schedule"

type (
	Cache   = schedule.Rows
	KnobSet = schedule.Batch
	Scratch = schedule.EvalScratch
)

var (
	New        = schedule.NewRows
	NewKnobSet = schedule.NewBatch
)
