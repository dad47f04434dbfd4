package schedule

import (
	"slices"
	"sync"
	"testing"
)

// dropTraces empties the process's trace table, so the next analyzer of
// any key traces its model.
func dropTraces() {
	traces.mu.Lock()
	traces.m = nil
	traces.mu.Unlock()
}

// tracesHeld reports how many keys the process's trace table holds.
func tracesHeld() int {
	traces.mu.Lock()
	defer traces.mu.Unlock()
	return len(traces.m)
}

// TestConcurrentFirstUseTracesOnce: fresh analyzers of one (model, seq,
// flash) on four clusters race their first pricing. The process traces
// the model once, every analyzer holds that trace by pointer and fetched
// it once, and each prices exactly as an analyzer over a trace of its
// own, priced serially.
func TestConcurrentFirstUseTracesOnce(t *testing.T) {
	shapes := []StageShape{
		{HasPre: true, NumStages: 4, StageIdx: 0, GradAccum: 4},
		{NumStages: 4, StageIdx: 1, GradAccum: 4},
		{HasPost: true, NumStages: 4, StageIdx: 3, GradAccum: 4},
		{HasPre: true, HasPost: true, NumStages: 1, GradAccum: 4},
	}
	gpus := []int{2, 4, 8, 16}
	type job struct {
		ctx   int
		shape StageShape
	}
	var jobs []job
	for c := range gpus {
		for _, shape := range shapes {
			for _, tp := range []int{1, 2, 4} {
				for b := 1; b <= 2; b++ {
					shape.B, shape.DP, shape.TP = b, 2, tp
					jobs = append(jobs, job{c, shape})
				}
			}
		}
	}
	fresh := func() []*Analyzer {
		as := make([]*Analyzer, len(gpus))
		for i, n := range gpus {
			as[i] = newTestAnalyzer(t, "llama-2.7b", n, true)
		}
		return as
	}
	set := NewBatch(mistKnobGrid(8))

	racing := fresh()
	dropTraces()
	before := nTraces.Load()
	got := make([][]Result, len(jobs))
	errs := make([]error, len(jobs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = racing[j.ctx].EvaluatePreparedInto(nil, j.shape, set, new(EvalScratch))
		}()
	}
	close(start)
	wg.Wait()
	if n := nTraces.Load() - before; n != 1 {
		t.Errorf("%d analyzers of one key racing first use traced the model %d times, want 1", len(racing), n)
	}
	for c, a := range racing {
		if a.traced != racing[0].traced {
			t.Errorf("%d GPUs: analyzer holds its own trace, not the process's", gpus[c])
		}
		if n := a.BuildCounts(); n != 1 {
			t.Errorf("%d GPUs: analyzer fetched its trace %d times, want 1", gpus[c], n)
		}
	}

	dropTraces() // the serial analyzers trace the model anew
	serial := fresh()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := serial[j.ctx].EvaluatePreparedInto(nil, j.shape, set, new(EvalScratch))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got[i], want) {
			t.Errorf("%d GPUs shape %+v: concurrent first use over the shared trace priced differently from a serial analyzer", gpus[j.ctx], j.shape)
		}
	}
	if serial[0].traced == racing[0].traced {
		t.Errorf("serial analyzers share the racing analyzers' trace after the table was dropped")
	}
}

// TestTraceTableBounded: more distinct keys than the table's bound keep
// it at or under maxTraces, dropping it whole when full. An analyzer
// whose key was dropped keeps pricing over the trace it holds, and a
// fresh analyzer of that key traces again and prices identically.
func TestTraceTableBounded(t *testing.T) {
	dropTraces()
	shape, other := baseShape(), baseShape()
	other.TP, other.B = 4, 1
	set := NewBatch(mistKnobGrid(8))
	price := func(a *Analyzer, shape StageShape) []Result {
		t.Helper()
		rs, err := a.EvaluatePreparedInto(nil, shape, set, new(EvalScratch))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	kept := newTestAnalyzer(t, "gpt3-1.3b", 4, true)
	want := price(kept, shape)
	cl, db, intf := kept.Cluster, kept.DB, kept.Intf
	for seq := 1; seq <= maxTraces+1; seq++ {
		NewAnalyzer(kept.Model, seq, false, cl, db, intf).LayerComputeFloor(1, 1)
		if n := tracesHeld(); n > maxTraces {
			t.Fatalf("after %d new keys the trace table holds %d, want <= %d", seq, n, maxTraces)
		}
	}
	traces.mu.Lock()
	_, held := traces.m[traceKey{model: kept.Model, seq: kept.Seq, flash: kept.Flash}]
	traces.mu.Unlock()
	if held {
		t.Fatalf("%d new keys did not drop the first key's trace", maxTraces+1)
	}

	if got := price(kept, shape); !slices.Equal(got, want) {
		t.Errorf("an analyzer whose trace was dropped from the table re-prices a shape differently")
	}
	before := nTraces.Load()
	again := NewAnalyzer(kept.Model, kept.Seq, kept.Flash, cl, db, intf)
	if got := price(again, shape); !slices.Equal(got, want) {
		t.Errorf("a fresh analyzer over a re-traced key prices differently")
	}
	if n := nTraces.Load() - before; n != 1 || again.traced == kept.traced {
		t.Errorf("a fresh analyzer of a dropped key traced %d times (shared the old trace: %v), want 1 new trace", n, again.traced == kept.traced)
	}
	if !slices.Equal(price(kept, other), price(again, other)) {
		t.Errorf("the kept trace and the re-trace price a new shape differently")
	}
	third := NewAnalyzer(kept.Model, kept.Seq, kept.Flash, cl, db, intf)
	third.LayerComputeFloor(1, 1)
	if third.traced != again.traced {
		t.Errorf("the re-trace did not re-enter the table: a third analyzer of the key holds another trace")
	}
}
