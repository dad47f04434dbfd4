package schedule

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/opdb"
	"repro/internal/pipeline"
)

// describeCheckError re-decodes a quick.CheckError's raw generator inputs
// with the same arithmetic the property applies, so a CI log shows the
// failing knob values (and evaluated results) instead of opaque bytes
// like "#62: failed on input 0xa5, 0xe8".
func describeCheckError(err error, decode func(in []any) string) error {
	var ce *quick.CheckError
	if errors.As(err, &ce) {
		return fmt.Errorf("%w — counterexample: %s", err, decode(ce.In))
	}
	return err
}

func newTestAnalyzer(t testing.TB, name string, gpus int, flash bool) *Analyzer {
	t.Helper()
	return newTestAnalyzerFor(t, model.MustByName(name), gpus, flash)
}

func newTestAnalyzerFor(t testing.TB, cfg model.Config, gpus int, flash bool) *Analyzer {
	t.Helper()
	nodes, perNode, err := hardware.MeshForGPUs(gpus)
	if err != nil {
		t.Fatal(err)
	}
	cl := hardware.L4Cluster(nodes, perNode)
	db := opdb.New(cl.GPU)
	intf := interference.Fit(interference.PCIeFluid(), 10, rand.New(rand.NewSource(1)))
	return NewAnalyzer(cfg, 2048, flash, cl, db, intf)
}

func baseShape() StageShape {
	return StageShape{
		B: 2, DP: 2, TP: 2, ZeRO: 0,
		HasPre: true, HasPost: true,
		NumStages: 1, StageIdx: 0, GradAccum: 4,
	}
}

func baseKnobs() Knobs {
	return Knobs{Layers: 32, Ckpt: 0}
}

func TestKnobsValidate(t *testing.T) {
	if err := (Knobs{Layers: 4, Ckpt: 5}).Validate(); err == nil {
		t.Error("ckpt > layers accepted")
	}
	if err := (Knobs{Layers: 4, Ckpt: 2, WO: 1.2}).Validate(); err == nil {
		t.Error("ratio > 1 accepted")
	}
	if err := (Knobs{Layers: 4, Ckpt: 2, AO: -0.1}).Validate(); err == nil {
		t.Error("negative ratio accepted")
	}
	if err := (Knobs{Layers: 4, Ckpt: 2, GO: math.NaN()}).Validate(); err == nil {
		t.Error("NaN ratio accepted")
	}
	if err := baseKnobs().Validate(); err != nil {
		t.Errorf("valid knobs rejected: %v", err)
	}
}

func TestInvalidShapeRejected(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	if _, err := a.Evaluate(StageShape{B: 0, DP: 1, TP: 1}, baseKnobs()); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := a.Evaluate(StageShape{B: 1, DP: 1, TP: 1, ZeRO: 4}, baseKnobs()); err == nil {
		t.Error("zero=4 accepted")
	}
	if _, err := a.Evaluate(StageShape{B: 1, DP: 1, TP: 3}, baseKnobs()); err == nil {
		t.Error("tp=3 accepted for 32-head model")
	}
}

func TestBasicEvaluate(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	r, err := a.Evaluate(baseShape(), baseKnobs())
	if err != nil {
		t.Fatal(err)
	}
	if r.Stable <= 0 || r.PeakMem <= 0 {
		t.Fatalf("non-positive result: %+v", r)
	}
	if r.Delta < 0 {
		t.Errorf("negative delta %v", r.Delta)
	}
	ch, err := a.Channels(baseShape(), baseKnobs())
	if err != nil {
		t.Fatal(err)
	}
	if ch.CBwd <= ch.CFwd {
		t.Errorf("backward compute %v should exceed forward %v", ch.CBwd, ch.CFwd)
	}
}

// TestResultShape pins what a priced point costs wherever it is stored: a
// stored Row is a []Result, so a fourth field is 8 more bytes on every
// point a search prices (11 340 on the bench cell, 1.57 M at paper scale).
func TestResultShape(t *testing.T) {
	if got := unsafe.Sizeof(Result{}); got != 24 {
		t.Errorf("schedule.Result is %d bytes, want 24 (Stable, Delta, PeakMem)", got)
	}
}

func TestCheckpointingTradesTimeForMemory(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	none, err := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: 0})
	if err != nil {
		t.Fatal(err)
	}
	full, err := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: 32})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stable <= none.Stable {
		t.Errorf("full ckpt stable %v should exceed no-ckpt %v (recompute cost)", full.Stable, none.Stable)
	}
	if full.PeakMem >= none.PeakMem {
		t.Errorf("full ckpt peak %v should be below no-ckpt %v", full.PeakMem, none.PeakMem)
	}
}

func TestZeROReducesMemory(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	k := Knobs{Layers: 32, Ckpt: 16}
	var peaks [4]float64
	for z := 0; z <= 3; z++ {
		shape := baseShape()
		shape.DP, shape.TP = 4, 1
		shape.ZeRO = z
		r, err := a.Evaluate(shape, k)
		if err != nil {
			t.Fatal(err)
		}
		peaks[z] = r.PeakMem
	}
	for z := 1; z <= 3; z++ {
		if peaks[z] >= peaks[z-1] {
			t.Errorf("ZeRO-%d peak %v should be below ZeRO-%d peak %v", z, peaks[z], z-1, peaks[z-1])
		}
	}
}

func TestZeRONoOpWithoutDP(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	shape.DP, shape.TP = 1, 4
	k := baseKnobs()
	shape.ZeRO = 0
	r0, err := a.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	shape.ZeRO = 3
	r3, err := a.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	if r0.PeakMem != r3.PeakMem || r0.Stable != r3.Stable {
		t.Error("ZeRO with dp=1 should be normalized to a no-op")
	}
}

func TestOffloadingReducesMemoryAddsDelta(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	plain, err := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: 32})
	if err != nil {
		t.Fatal(err)
	}
	oo, err := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: 32, OO: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if oo.PeakMem >= plain.PeakMem {
		t.Errorf("optimizer offload peak %v should be below plain %v", oo.PeakMem, plain.PeakMem)
	}
	if oo.Delta <= plain.Delta {
		t.Errorf("optimizer offload delta %v should exceed plain %v (paper §5.3: aggressive OO raises first-microbatch time)", oo.Delta, plain.Delta)
	}
}

func TestActivationOffloadReducesActMemory(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	shape.NumStages, shape.GradAccum = 4, 8 // deep pipeline: stage 0 holds 4 in-flight stashes
	k0 := Knobs{Layers: 8, Ckpt: 0}
	kAO := Knobs{Layers: 8, Ckpt: 0, AO: 0.9}
	r0, err := a.Evaluate(shape, k0)
	if err != nil {
		t.Fatal(err)
	}
	rAO, err := a.Evaluate(shape, kAO)
	if err != nil {
		t.Fatal(err)
	}
	if rAO.PeakMem >= r0.PeakMem {
		t.Errorf("AO peak %v should be below plain %v", rAO.PeakMem, r0.PeakMem)
	}
	if rAO.Stable < r0.Stable {
		t.Errorf("AO stable %v should not be below plain %v", rAO.Stable, r0.Stable)
	}
}

func TestWeightOffloadTradeoff(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-7b", 4, true)
	shape := baseShape()
	r0, err := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: 32})
	if err != nil {
		t.Fatal(err)
	}
	rWO, err := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: 32, WO: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rWO.PeakMem >= r0.PeakMem {
		t.Errorf("WO peak %v should be below plain %v", rWO.PeakMem, r0.PeakMem)
	}
	if rWO.Stable <= r0.Stable {
		t.Errorf("WO stable %v should exceed plain %v (PCIe refetch not fully hidden on L4)", rWO.Stable, r0.Stable)
	}
}

func TestInFlightMicrobatchesRaiseMemory(t *testing.T) {
	// Stage 0 of a 4-stage pipeline holds 4 in-flight activation stashes;
	// the last stage holds 1.
	a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	k := Knobs{Layers: 8, Ckpt: 0}
	first := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 0, GradAccum: 8}
	last := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 3, GradAccum: 8}
	rf, err := a.Evaluate(first, k)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := a.Evaluate(last, k)
	if err != nil {
		t.Fatal(err)
	}
	if rf.PeakMem <= rl.PeakMem {
		t.Errorf("stage 0 peak %v should exceed last stage peak %v", rf.PeakMem, rl.PeakMem)
	}
}

func TestTPAllReduceCostFalconVsGPT(t *testing.T) {
	// Falcon has one TP all-reduce per layer vs GPT's two, so at the same
	// scale its TP time premium is smaller.
	gpt := newTestAnalyzer(t, "gpt3-7b", 4, true)
	falcon := newTestAnalyzer(t, "falcon-7b", 4, true)
	shape := baseShape()
	shape.DP, shape.TP = 1, 4
	k := Knobs{Layers: 8, Ckpt: 0}
	rg, err := gpt.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := falcon.Evaluate(shape, k)
	if err != nil {
		t.Fatal(err)
	}
	// Not directly comparable in absolute terms (different models have
	// same dims here), but Falcon's comm share must be lower: compare
	// overhead above pure compute.
	if rf.Stable >= rg.Stable {
		t.Errorf("falcon stable %v should be below gpt stable %v at tp=4 (half the all-reduces)", rf.Stable, rg.Stable)
	}
}

// TestBatchMatchesSingle: a candidate priced alone is bit-identical, on
// every Result field, to the same candidate inside a shuffled batch that
// mixes layer counts and offload tuples — through the ad-hoc path and
// through a prepared Batch — across random shapes, every ZeRO level and
// both Serialize values. Batch pricing shares the tape prefix and the
// interference predictions across a tuple group; a group of one (the
// single Evaluate) shares nothing. Every trial prices two shapes that
// share a compiled variant back to back on one EvalScratch: the second
// finds the first's registers under the same program, and must not
// reuse its coefficient prefix.
func TestBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	grid := []float64{0, 0.25, 0.5, 1}
	for _, serialize := range []bool{false, true} {
		a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
		a.Serialize = serialize
		var sc EvalScratch // reused across shapes, like a tuner worker's
		var dst []Result
		for trial := 0; trial < 24; trial++ {
			stages := 1 + rng.Intn(4)
			shape := StageShape{
				B: 1 + rng.Intn(4), DP: 1 << rng.Intn(3), TP: 1 << rng.Intn(3), ZeRO: trial % 4,
				HasPre: rng.Intn(2) == 0, HasPost: rng.Intn(2) == 0,
				NumStages: stages, StageIdx: rng.Intn(stages), GradAccum: 1 + rng.Intn(8),
			}
			twin := shape
			twin.B = 2 * shape.B // other coefficients, same structure
			if a.program(shape).prog != a.program(twin).prog {
				t.Fatalf("shapes %+v and %+v should share a variant", shape, twin)
			}
			ks := make([]Knobs, 1+rng.Intn(60))
			for i := range ks {
				l := 1 + rng.Intn(32)
				ks[i] = Knobs{
					Layers: l, Ckpt: rng.Intn(l + 1),
					WO: grid[rng.Intn(2)], GO: grid[rng.Intn(2)], OO: grid[rng.Intn(4)], AO: grid[rng.Intn(4)],
				}
			}
			for _, shape := range []StageShape{shape, twin} {
				var err error
				if dst, err = a.EvaluateBatchInto(dst, shape, ks, &sc); err != nil {
					t.Fatal(err)
				}
				prepared, err := a.EvaluatePreparedInto(nil, shape, NewBatch(ks), &sc)
				if err != nil {
					t.Fatal(err)
				}
				for i, k := range ks {
					single, err := a.Evaluate(shape, k)
					if err != nil {
						t.Fatal(err)
					}
					if dst[i] != single || prepared[i] != single {
						t.Fatalf("serialize=%v shape %+v candidate %d %+v:\n  batch    %+v\n  prepared %+v\n  single   %+v",
							serialize, shape, i, k, dst[i], prepared[i], single)
					}
				}
			}
		}
	}
}

// TestConcurrentFirstUseCompilesOnce: goroutines pricing shapes on fresh
// analyzers of three models on three clusters, all at once, share one
// program per structural variant, pointer-equal across the analyzers
// (variantPrograms); each analyzer traces its model once, and every
// result equals a serial analyzer's.
func TestConcurrentFirstUseCompilesOnce(t *testing.T) {
	// Three stage positions of a dense model, one variant each whatever
	// the model, cluster, TP, DP and b.
	positions := []struct {
		key   variantKey
		shape StageShape
	}{
		{variantKey{act: actScaled}, StageShape{HasPre: true, NumStages: 4, StageIdx: 0, GradAccum: 4}},
		{variantKey{bareStates: true, act: actBare}, StageShape{NumStages: 4, StageIdx: 1, GradAccum: 4}},
		{variantKey{act: actFlat}, StageShape{HasPost: true, NumStages: 4, StageIdx: 3, GradAccum: 4}},
	}
	contexts := []struct {
		model string
		gpus  int
	}{{"gpt3-2.7b", 8}, {"llama-1.3b", 4}, {"falcon-1.3b", 2}}
	type job struct {
		ctx, pos int
		shape    StageShape
	}
	var jobs []job
	for c := range contexts {
		for p, pos := range positions {
			for _, tp := range []int{1, 2, 4} {
				for _, dp := range []int{1, 2} {
					for b := 1; b <= 2; b++ {
						shape := pos.shape
						shape.B, shape.DP, shape.TP = b, dp, tp
						jobs = append(jobs, job{c, p, shape})
					}
				}
			}
		}
	}
	fresh := func() []*Analyzer {
		as := make([]*Analyzer, len(contexts))
		for i, ctx := range contexts {
			as[i] = newTestAnalyzer(t, ctx.model, ctx.gpus, true)
		}
		return as
	}
	set := NewBatch(mistKnobGrid(8)) // shared by every goroutine, like the tuner's

	racing := fresh()
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
			t.Errorf("%s shape %+v: concurrent first use priced differently from a serial analyzer", contexts[j.ctx].model, j.shape)
		}
		key := positions[j.pos].key
		if racing[j.ctx].program(j.shape).prog != variantProgram(key) || serial[j.ctx].program(j.shape).prog != variantProgram(key) {
			t.Errorf("%s shape %+v: stage program is not variant %+v's process-wide one", contexts[j.ctx].model, j.shape, key)
		}
	}
	for c, a := range racing {
		if traced, programs := a.BuildCounts(), a.VariantPrograms(); traced != 1 || programs != len(positions) {
			t.Errorf("%s: traced the model %d times and shared %d distinct programs, want 1 and %d", contexts[c].model, traced, programs, len(positions))
		}
	}
}

// TestVariantIndexIsDense: variantKey.index maps the 96 keys one to one
// onto variantPrograms' slots.
func TestVariantIndexIsDense(t *testing.T) {
	keys := variantKeys()
	if len(keys) != numVariants {
		t.Fatalf("%d variant keys, want %d", len(keys), numVariants)
	}
	seen := make([]bool, numVariants)
	for _, key := range keys {
		i := key.index()
		if i < 0 || i >= numVariants || seen[i] {
			t.Fatalf("variant %+v: index %d out of range or taken", key, i)
		}
		seen[i] = true
	}
}

// The recompute term never engages on a catalog model (every traced
// layer's backward liveness peak exceeds its forward one), so the
// reference grid cannot reach its variant. Pin its wiring directly: with
// a zero coefficient the variant prices exactly as the plain one, and a
// positive coefficient adds that many bytes to the backward peak from
// the first checkpointed layer on.
func TestRecomputeVariantGatesOnCkpt(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	sp := a.program(baseShape())
	key := variantKey{act: actFlat}
	if variantProgram(key) != sp.prog {
		t.Fatalf("base shape should price under variant %+v", key)
	}
	key.recompute = true
	rec := variantProgram(key)
	frame := make([]float64, frameLen)
	copy(frame, sp.coefs[:])
	for _, k := range mistKnobGrid(8) {
		knobFrame(frame, k)
		frame[cRec] = 0
		plain := sp.prog.EvalFrame(frame, nil, nil)
		if got := rec.EvalFrame(frame, nil, nil); !slices.Equal(got, plain) {
			t.Fatalf("knobs %+v: zero-coefficient recompute variant differs from the plain one", k)
		}
		const ws = 1 << 40 // dwarfs every other term, so the backward peak is the maximum
		frame[cRec] = ws
		got := rec.EvalFrame(frame, nil, nil)
		if k.Ckpt == 0 {
			if !slices.Equal(got, plain) {
				t.Fatalf("knobs %+v: recompute term engaged with no checkpointed layer", k)
			}
			continue
		}
		if got[outRecompute] != ws {
			t.Fatalf("knobs %+v: recompute working set %v, want %v", k, got[outRecompute], float64(ws))
		}
		if peak := got[outPeakMem]; peak < ws || peak > ws+plain[outPeakMem] {
			t.Fatalf("knobs %+v: peak %v, want within [%v, %v]", k, peak, float64(ws), ws+plain[outPeakMem])
		}
	}
}

func TestPrePostAddCost(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	k := Knobs{Layers: 8, Ckpt: 0}
	mid := StageShape{B: 2, DP: 1, TP: 2, NumStages: 4, StageIdx: 1, GradAccum: 4}
	withPost := mid
	withPost.StageIdx = 3
	withPost.HasPost = true
	rm, err := a.Evaluate(mid, k)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := a.Evaluate(withPost, k)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Stable <= rm.Stable {
		t.Errorf("post stage stable %v should exceed middle stage %v (LM head)", rp.Stable, rm.Stable)
	}
}

func TestLargerMicrobatchMoreEfficient(t *testing.T) {
	// Per-sample time should drop with microbatch size (kernel
	// efficiency), the effect motivating batch-size increases in §3.1.
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	k := Knobs{Layers: 32, Ckpt: 32}
	perSample := func(b int) float64 {
		shape := baseShape()
		shape.B = b
		r, err := a.Evaluate(shape, k)
		if err != nil {
			t.Fatal(err)
		}
		return r.Stable / float64(b)
	}
	if p1, p4 := perSample(1), perSample(4); p4 >= p1 {
		t.Errorf("per-sample time b=4 (%v) should be below b=1 (%v)", p4, p1)
	}
}

func TestFitsBudget(t *testing.T) {
	r := Result{PeakMem: 10e9}
	if !r.Fits(11e9) || r.Fits(9e9) {
		t.Error("Fits comparison wrong")
	}
}

// Property: memory is monotone non-increasing in each offload ratio.
func TestPropertyMemoryMonotoneInOffload(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	knobNames := [4]string{"WO", "GO", "OO", "AO"}
	decodeOffload := func(sel, r1, r2 uint8) (name string, kLo, kHi Knobs) {
		x, y := float64(r1%11)/10, float64(r2%11)/10
		if x > y {
			x, y = y, x
		}
		kLo, kHi = baseKnobs(), baseKnobs()
		switch sel % 4 {
		case 0:
			kLo.WO, kHi.WO = x, y
		case 1:
			kLo.GO, kHi.GO = x, y
		case 2:
			kLo.OO, kHi.OO = x, y
		default:
			kLo.AO, kHi.AO = x, y
		}
		return knobNames[sel%4], kLo, kHi
	}
	f := func(sel uint8, r1, r2 uint8) bool {
		_, kLo, kHi := decodeOffload(sel, r1, r2)
		rLo, err1 := a.Evaluate(shape, kLo)
		rHi, err2 := a.Evaluate(shape, kHi)
		if err1 != nil || err2 != nil {
			return false
		}
		return rHi.PeakMem <= rLo.PeakMem+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 1.2}); err != nil {
		t.Error(describeCheckError(err, func(in []any) string {
			name, kLo, kHi := decodeOffload(in[0].(uint8), in[1].(uint8), in[2].(uint8))
			rLo, _ := a.Evaluate(shape, kLo)
			rHi, _ := a.Evaluate(shape, kHi)
			return fmt.Sprintf("%s lo=%+v hi=%+v -> PeakMem lo=%.6g hi=%.6g",
				name, kLo, kHi, rLo.PeakMem, rHi.PeakMem)
		}))
	}
}

// Property: stable time is monotone in checkpointed layers.
func TestPropertyStableMonotoneInCkpt(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	decodeCkpt := func(c1, c2 uint8) (x, y int) {
		x, y = int(c1%33), int(c2%33)
		if x > y {
			x, y = y, x
		}
		return x, y
	}
	f := func(c1, c2 uint8) bool {
		x, y := decodeCkpt(c1, c2)
		rx, err1 := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: x})
		ry, err2 := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: y})
		if err1 != nil || err2 != nil {
			return false
		}
		return rx.Stable <= ry.Stable+1e-12 && ry.PeakMem <= rx.PeakMem+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.8}); err != nil {
		t.Error(describeCheckError(err, func(in []any) string {
			x, y := decodeCkpt(in[0].(uint8), in[1].(uint8))
			rx, _ := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: x})
			ry, _ := a.Evaluate(shape, Knobs{Layers: 32, Ckpt: y})
			return fmt.Sprintf("layers=32 ckpt lo=%d hi=%d -> Stable lo=%.6g hi=%.6g, PeakMem lo=%.6g hi=%.6g",
				x, y, rx.Stable, ry.Stable, rx.PeakMem, ry.PeakMem)
		}))
	}
}

// TestCkptAxisIsNotMonotoneUnderOffload bounds the property above: it
// holds at AO = 0 and does not survive activation offloading, which is why
// the tuner sweeps the checkpoint axis instead of binary-searching it
// (DESIGN.md "schedule: knob grids and the lane-major tape"). At
// AO = 1 a checkpointed layer offloads a boundary tensor where a plain one
// offloads its whole stash, and on a slow host link that saves more than
// the recompute costs: Stable falls. Delta is a difference of two sums
// over the layer split and moves in the last place either way.
func TestCkptAxisIsNotMonotoneUnderOffload(t *testing.T) {
	middle := StageShape{B: 1, DP: 2, TP: 1, ZeRO: 3, NumStages: 1, GradAccum: 4}
	a := newTestAnalyzer(t, "gpt3-2.7b", 8, true)
	k := Knobs{Layers: 8, WO: .5, GO: .5, AO: 1}
	r0, _ := a.Evaluate(middle, k)
	k.Ckpt = 2
	r2, _ := a.Evaluate(middle, k)
	if !(r2.Stable < r0.Stable) {
		t.Errorf("Stable at Ckpt 0, 2 = %v, %v: want it to fall (0.45832 -> 0.45588 when recorded)", r0.Stable, r2.Stable)
	}

	a = newTestAnalyzer(t, "falcon-2.7b", 8, true)
	middle.DP, middle.ZeRO = 1, 0
	r7, _ := a.Evaluate(middle, Knobs{Layers: 8, Ckpt: 7, AO: .5})
	r8, _ := a.Evaluate(middle, Knobs{Layers: 8, Ckpt: 8, AO: .5})
	if !(r8.Delta < r7.Delta) || r7.Delta-r8.Delta > 1e-15 {
		t.Errorf("Delta at Ckpt 7, 8 = %v, %v: want it to fall by an ulp or two", r7.Delta, r8.Delta)
	}
}

// Property: results scale with layers: more layers, more time and memory.
func TestPropertyMonotoneInLayers(t *testing.T) {
	a := newTestAnalyzer(t, "gpt3-2.7b", 4, true)
	shape := baseShape()
	decodeLayers := func(l1, l2 uint8) (x, y int) {
		x, y = int(l1%31)+1, int(l2%31)+1
		if x > y {
			x, y = y, x
		}
		return x, y
	}
	f := func(l1, l2 uint8) bool {
		x, y := decodeLayers(l1, l2)
		rx, err1 := a.Evaluate(shape, Knobs{Layers: x})
		ry, err2 := a.Evaluate(shape, Knobs{Layers: y})
		if err1 != nil || err2 != nil {
			return false
		}
		return rx.Stable <= ry.Stable+1e-12 && rx.PeakMem <= ry.PeakMem+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCountScale: 0.8}); err != nil {
		t.Error(describeCheckError(err, func(in []any) string {
			x, y := decodeLayers(in[0].(uint8), in[1].(uint8))
			rx, _ := a.Evaluate(shape, Knobs{Layers: x})
			ry, _ := a.Evaluate(shape, Knobs{Layers: y})
			return fmt.Sprintf("layers lo=%d hi=%d -> Stable lo=%.6g hi=%.6g, PeakMem lo=%.6g hi=%.6g",
				x, y, rx.Stable, ry.Stable, rx.PeakMem, ry.PeakMem)
		}))
	}
}

// BenchmarkEvaluateBatch prices one full MistSpace row — 5 checkpoint
// counts x 3^4 offload tuples = 405 knobs — under one shape, the unit
// the tuner's intra-stage sweep asks for.
func BenchmarkEvaluateBatch(b *testing.B) {
	a := newTestAnalyzer(b, "gpt3-7b", 8, true)
	shape := baseShape()
	ks := mistKnobGrid(32)
	var sc EvalScratch
	// Warm the trace/compile cache and the scratch.
	dst, err := a.EvaluateBatchInto(nil, shape, ks, &sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dst, err = a.EvaluateBatchInto(dst, shape, ks, &sc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestInFlightMatchesOneFOneB checks the analyzer's closed-form stash
// depth against the referee's ledger: for every S ≤ 8, stage and G ≤ 16,
// inFlight() is the most forwards stage i of pipeline.OneFOneB(S, G)
// has outstanding at once.
func TestInFlightMatchesOneFOneB(t *testing.T) {
	for s := 1; s <= 8; s++ {
		for g := 1; g <= 16; g++ {
			for i, ops := range pipeline.OneFOneB(s, g) {
				sh := StageShape{NumStages: s, StageIdx: i, GradAccum: g}
				if got, want := sh.inFlight(), pipeline.InFlight(ops); got != want {
					t.Errorf("S=%d G=%d stage %d: inFlight() = %d, 1F1B order holds %d", s, g, i, got, want)
				}
			}
		}
	}
}
