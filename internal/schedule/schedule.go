// Package schedule implements Mist's fine-grained overlap-centric schedule
// template (paper §5.1, Figure 7) as an analytical stage model. Given a
// pipeline stage's shape (microbatch size, DP/TP degrees, ZeRO level,
// pre/post sections, position in the pipeline) and its tunable knobs
// (layer count, checkpointed layers, four offloading ratios), it produces:
//
//   - the stable-microbatch time t (Eq. 5): per-layer compute overlapped
//     with ZeRO all-gathers, reduce-scatters and offloading copies,
//     composed by the interference model;
//   - the first/last-microbatch delta d (Eq. 6): decoupled, repositioned
//     optimizer steps, the exposed first-layer prefetch, and the gradient
//     all-reduce tail;
//   - the peak GPU memory over the forward, backward and optimizer-step
//     phases of the 1F1B pipeline schedule.
//
// Knob-dependent quantities are symbolic expressions compiled for batched
// evaluation (§5.2's batched value substitution), compiled once per
// structural variant per process rather than once per stage shape: the
// process traces each (model, seq, flash) once, symbolic in b and TP; an
// analyzer evaluates that trace's operator times and byte sizes once per
// (TP, b), and enters a shape's own constants into its variant's shared
// program as values, not as literals. The program's frame is
//
//	[shape coefficients (numCoefs) | wo, go, oo, ao | l, ckpt]
//
// and its tape is staged in that order (symbolic.Program), so a new
// shape is a coefficient fill. A list of knob sets — a stage's whole
// layer window — is priced lane-major, one offload tuple per lane and up
// to 64 lanes per block, each instruction running over the whole block:
// the coefficient prefix runs once, the tape from wo once per block for
// the whole list, and each further (l, ckpt) position of the block's
// tuple groups, in any set, only the l/ckpt suffix. The folding rule keeps
// this exact: the symbolic constructors fold literal constants, so each
// coefficient holds a shape constant as they would have folded it
// (computed in plain Go in the same operand order), and a case where
// folding would have changed the tree's structure is another variant,
// never a per-shape compile (program.go; reference_test.go keeps the
// per-shape build and compares with ==). The interference model is then
// applied numerically to the evaluated channel aggregates.
package schedule

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hardware"
	"repro/internal/interference"
	"repro/internal/model"
	"repro/internal/opdb"
)

// Byte-per-parameter constants for mixed-precision Adam (paper §5.1,
// "Optimizer Step Decoupling": fp16 params, fp16 grads, fp32 master
// params + two fp32 moments).
const (
	BytesParam     = 2.0
	BytesGrad      = 2.0
	BytesOptStates = 12.0
	BytesAll       = BytesParam + BytesGrad + BytesOptStates
)

// cpuAdamParamsPerSec is the host-side Adam update throughput used when
// optimizer states are offloaded (ZeRO-Offload-style CPU optimizer).
const cpuAdamParamsPerSec = 1.5e9

// StageShape fixes the discrete choices of one pipeline stage: what the
// analyzer derives once per shape (a coefficient fill over its shared
// trace, for its variant's process-wide program) and then prices under
// any Knobs.
type StageShape struct {
	B    int // microbatch size b_i
	DP   int // data-parallel degree
	TP   int // tensor-parallel degree
	ZeRO int // 0..3

	HasPre  bool // stage holds the embedding section
	HasPost bool // stage holds the final norm + LM head + loss

	NumStages int // S
	StageIdx  int // 0-based position (in-flight microbatches = min(G, S-idx))
	GradAccum int // G
}

// Devices returns the number of GPUs the stage occupies.
func (s StageShape) Devices() int { return s.DP * s.TP }

// inFlight is the 1F1B in-flight microbatch count min(G, S-idx), clamped
// to >= 1 — the only way NumStages, StageIdx and GradAccum enter the
// stage model.
func (s StageShape) inFlight() int {
	n := s.NumStages - s.StageIdx
	if n > s.GradAccum {
		n = s.GradAccum
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Canonical maps the shape onto its evaluation-equivalence class
// representative: two shapes with the same Canonical() produce identical
// analyzer results. The analyzer depends on the raw shape only through
// (B, DP, TP), the ZeRO level normalized to 0 when DP == 1 (sharding a
// group of one is a no-op and every collective over it costs 0), the
// pre/post flags, whether the pipeline is deeper than one stage
// (boundary p2p), and the in-flight microbatch count. The representative
// re-encodes (pipelined, inFlight) as NumStages = inFlight+1, StageIdx =
// 0, GradAccum = inFlight so it round-trips through the same model code.
func (s StageShape) Canonical() StageShape {
	zero := s.ZeRO
	if s.DP == 1 && zero >= 0 && zero <= 3 {
		zero = 0 // out-of-range levels pass through so validation still rejects them
	}
	stages, accum := 1, 1
	if s.NumStages > 1 {
		n := s.inFlight()
		stages, accum = n+1, n
	}
	return StageShape{
		B: s.B, DP: s.DP, TP: s.TP, ZeRO: zero,
		HasPre: s.HasPre, HasPost: s.HasPost,
		NumStages: stages, StageIdx: 0, GradAccum: accum,
	}
}

// Knobs are the continuous/integer per-stage optimization variables of
// Table 2 that do not require re-tracing.
type Knobs struct {
	Layers int     // L_i
	Ckpt   int     // recomputed layers, 0..Layers
	WO     float64 // weight offloading ratio
	GO     float64 // gradient offloading ratio
	OO     float64 // optimizer-state offloading ratio
	AO     float64 // activation offloading ratio
}

// Validate checks knob ranges.
func (k Knobs) Validate() error {
	if k.Layers < 0 || k.Ckpt < 0 || k.Ckpt > k.Layers {
		return fmt.Errorf("schedule: invalid layers=%d ckpt=%d", k.Layers, k.Ckpt)
	}
	for _, r := range []float64{k.WO, k.GO, k.OO, k.AO} {
		if !(r >= 0 && r <= 1) { // NaN fails both comparisons
			return fmt.Errorf("schedule: offload ratio %v outside [0,1]", r)
		}
	}
	return nil
}

// Result is the analyzer's verdict for one (shape, knobs) candidate, and
// exactly what the search reads of it: the two Pareto axes of Eq. 3-4 and
// the memory constraint. It is the element of a stored Row, so every
// field costs 8 bytes per priced point (TestResultShape); a time or memory
// breakdown of a candidate comes from Analyzer.Channels instead.
type Result struct {
	Stable  float64 // t_i: stable microbatch time (s)
	Delta   float64 // d_i: first+last microbatch extra (s)
	PeakMem float64 // bytes
}

// Fits reports whether the candidate respects the memory budget.
func (r Result) Fits(budget float64) bool { return r.PeakMem <= budget }

// planSafetyFraction leaves headroom between the analyzer's closed-form
// memory estimate and the budget: the runtime's allocator fragmentation
// (page rounding in the execution engine, ~2% in the paper's §6.6 memory
// error) would otherwise push boundary plans into OOM at execution.
const planSafetyFraction = 0.96

// PlanBudget is the per-GPU byte budget every stage of a plan must fit
// (Result.Fits): the cluster's MemoryBudget less the safety headroom. It
// is one number per analyzer, so what fits is a function of a priced
// entry alone.
func (a *Analyzer) PlanBudget() float64 { return a.Cluster.MemoryBudget() * planSafetyFraction }

// Analyzer prices stage candidates for one (model, seq, flash, cluster)
// context. It is safe for concurrent use.
type Analyzer struct {
	Model   model.Config
	Seq     int
	Flash   bool
	Cluster *hardware.Cluster
	DB      *opdb.DB
	Intf    *interference.Model

	// Serialize disables computation-communication overlap, emulating
	// overlap-unaware systems (Shortcoming #1; used by the Aceso-style
	// baseline).
	Serialize bool

	// Everything derived from the whole context is memoized here and dies
	// with the analyzer (program.go): one memo per (TP, b), which holds
	// the layer's compute, all the compute floor reads, so it is priced
	// for every (TP, b) a search enumerates, and the full section costs,
	// built only for the (TP, b) of a shape it prices; and the numeric
	// fill per canonical stage shape. What depends on less is the
	// process's, shared by pointer: the model's trace and compiled (b,
	// TP) byte program, one per (model, seq, flash) in a bounded table
	// (traces; traced is this analyzer's, fetched on first use), each
	// structural variant's stage program (variantPrograms), and the knob
	// grids, held weakly (grids).
	traceOnce sync.Once
	traced    *modelTrace
	tpbMu     sync.Mutex
	tpbs      map[tpB]*tpbCosts
	programs  onceMap[StageShape, *stageProgram]

	// The rows priced under the process's knob grids (rows.go).
	rows *Rows

	// Trace fetches, section-cost builds and tuple passes run, and overlap
	// regions predicted, for tests and benchmarks. A tuple pass is what
	// priceGroups does once per offload tuple of a call: the tuple's lane
	// of the tape from frameWO and its overlapTerms, of which it predicts
	// only the regions no earlier tuple of the call shares
	// (regionClasses).
	nTraced                         atomic.Int32
	nSections                       atomic.Int64
	nTuplePasses, nRegionsPredicted atomic.Int64
}

// NewAnalyzer builds an analyzer context and its empty row store.
func NewAnalyzer(cfg model.Config, seq int, flash bool, cluster *hardware.Cluster, db *opdb.DB, intf *interference.Model) *Analyzer {
	a := &Analyzer{
		Model: cfg, Seq: seq, Flash: flash,
		Cluster: cluster, DB: db, Intf: intf,
	}
	a.rows = NewRows(a)
	return a
}

// Evaluate prices one candidate.
func (a *Analyzer) Evaluate(shape StageShape, k Knobs) (Result, error) {
	var sc EvalScratch
	rs, err := a.EvaluateBatchInto(nil, shape, []Knobs{k}, &sc)
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// EvalScratch holds the reusable buffers of one evaluation stream. One
// scratch belongs to one goroutine at a time (callers in worker pools own
// one per worker); the zero value is ready to use and the buffers grow to
// the largest program, block of lanes and batch seen.
type EvalScratch struct {
	regs  []float64      // lane-minor register file: NumRegs x lanes
	frame []float64      // lane-minor frames: frameLen x lanes
	terms []overlapTerms // per tuple group of the call
	out   []float64      // one lane's outputs
	group grouper        // tuple partition of the current ad-hoc batch
	fresh [][]Result     // full pricings of the sets a Rows call missed; only their steps are stored
	stair []uint16       // staircases of the rows a Rows call publishes, before they move to their slab
}

// lanes sizes sc for blocks of w lanes of a program of nregs registers
// over a call of the given tuple groups and returns its buffers.
func (sc *EvalScratch) lanes(nregs, w, groups int) (regs, frame []float64, terms []overlapTerms, out []float64) {
	if cap(sc.regs) < nregs*w {
		sc.regs = make([]float64, nregs*w)
	}
	if cap(sc.frame) < frameLen*w {
		sc.frame = make([]float64, frameLen*w)
	}
	if cap(sc.terms) < groups {
		sc.terms = make([]overlapTerms, groups)
	}
	if cap(sc.out) < numOutputs {
		sc.out = make([]float64, numOutputs)
	}
	return sc.regs[:nregs*w], sc.frame[:frameLen*w], sc.terms[:groups], sc.out[:numOutputs]
}

// tupleSet is one batch as priceGroups takes it: validated entries, their
// tuple partition, and where their results go
// (len(dst) >= len(ks)).
type tupleSet struct {
	ks  []Knobs
	tg  *tupleGroups
	dst []Result
}

// lead returns the first member of tuple group g.
func (s *tupleSet) lead(g int) *Knobs { return &s.ks[s.tg.order[s.tg.starts[g]]] }

// EvaluateBatchInto prices an ad-hoc knob slice under one shape with a
// single compiled-program sweep (the batched value substitution of §5.2).
// dst is reused when its capacity suffices (the returned slice aliases
// it), and sc's internal buffers persist across calls, so a stream of
// calls allocates nothing once they have grown. The slice is partitioned
// by offload tuple into sc on every call; callers pricing the same knobs
// under many shapes prepare a Batch once and price it through Rows.
func (a *Analyzer) EvaluateBatchInto(dst []Result, shape StageShape, ks []Knobs, sc *EvalScratch) ([]Result, error) {
	sp := a.program(shape)
	if sp.err != nil {
		return nil, sp.err
	}
	if err := sc.group.build(ks); err != nil {
		return nil, err
	}
	dst = slices.Grow(dst[:0], len(ks))[:len(ks)]
	a.priceGroups(sp, []tupleSet{{ks, &sc.group.tupleGroups, dst}}, sc)
	return dst, nil
}

// evaluateSets prices every entry of each prepared Batch under one shape:
// on return dsts[i] holds sets[i]'s results in batch order (reused when
// its capacity suffices, replaced otherwise; len(dsts) == len(sets)).
// sc is reused as in EvaluateBatchInto. The row store prices its missed
// rows here, out of the knob grids of a stage's layer window: when
// the sets are tuple-aligned (aligned), what depends on the offload tuple
// alone is computed once for the whole list; otherwise each set is priced
// on its own — same results either way.
func (a *Analyzer) evaluateSets(shape StageShape, sets []*Batch, dsts [][]Result, sc *EvalScratch) error {
	sp := a.program(shape)
	if sp.err != nil {
		return sp.err
	}
	if len(sets) == 0 {
		return nil
	}
	var buf [8]tupleSet // on the stack: a window is five sets
	ts := buf[:0]
	for i, set := range sets {
		if set.err != nil {
			return set.err
		}
		n := len(set.knobs)
		dsts[i] = slices.Grow(dsts[i][:0], n)[:n]
		ts = append(ts, tupleSet{set.knobs, &set.groups, dsts[i]})
	}
	if aligned(ts) {
		a.priceGroups(sp, ts, sc)
	} else {
		for i := range ts {
			a.priceGroups(sp, ts[i:i+1], sc)
		}
	}
	return nil
}

// aligned reports whether the sets are tuple-aligned: the same offload
// tuples (by bit pattern) in the same first-appearance order, so that
// group g is one tuple across the whole list. The tuner's per-layer-count
// grids are — each is ckpt-major over one fixed tuple grid. The check is
// exact and costs one tuple comparison per group and further set, against
// the tape run per member that follows.
func aligned(sets []tupleSet) bool {
	first := &sets[0]
	for i := 1; i < len(sets); i++ {
		s := &sets[i]
		if len(s.tg.starts) != len(first.tg.starts) {
			return false
		}
		for g := 0; g+1 < len(s.tg.starts); g++ {
			if !sameTuple(s.lead(g), first.lead(g)) {
				return false
			}
		}
	}
	return true
}

// laneBlock is the most offload tuples priceGroups runs through the tape
// at once. A block pays one instruction dispatch, operand-list walk and
// bounds check per instruction where a lane at a time paid them per
// point, so wider is cheaper until the block's register file falls out
// of L1: 64 lanes of an 85-register program are 43.5 KB. Measured on a
// 2-vCPU Xeon (48 KB L1d per core), BenchmarkEvaluateBatch,
// BenchmarkTuneMemoizedCold and `mistbench -exp fig14/fig15 -full` read
// the same at 16, 32, 64 and 128 lanes within run-to-run noise; 64 is the
// widest whose register file fits that L1.
const laneBlock = 64

// priceGroups prices a list of validated, tuple-partitioned, tuple-aligned
// batches under one shape, lane-major: a lane is one tuple group (group g
// is one offload tuple across the whole list), and the groups are priced
// in blocks of up to laneBlock lanes of near-equal width, each tape
// instruction running over a whole block (symbolic.Program.EvalLanes).
// The tape's coefficient prefix depends on the shape alone, so only the
// first block runs it. Every tape output except the memory expressions,
// and every interference prediction, depends on the knobs only through
// the offload tuple, so a block runs the tape from the tuple stage once,
// with each lane's first member, and the overlap composition once per
// lane — one tuple pass per group for the whole list. A region class
// whose inputs read only some of the ratios is predicted only at the
// first group with its projection of the tuple (tupleGroups.first) and
// copied to the later ones, which may sit blocks later: the terms are
// kept per group for the whole call, not per lane. The members then step
// through the list by position: step (s, p) sets each lane's l and ckpt
// to the p-th member of its group in batch s (a lane whose group has
// none keeps its frame and sits the step out) and re-runs the tape's
// suffix for the members' peak memory — from the l stage if any lane's
// layer count changed, from the ckpt stage if only a checkpoint count
// did, not at all if neither did. So groups may differ in member count
// and layer counts: one loop prices any input. Every lane does the scalar
// tape's operations, so a list of one batch of one is exactly the
// per-candidate evaluation.
func (a *Analyzer) priceGroups(sp *stageProgram, sets []tupleSet, sc *EvalScratch) {
	groups := len(sets[0].tg.starts) - 1
	if groups <= 0 {
		return
	}
	a.nTuplePasses.Add(int64(groups))
	blocks := (groups + laneBlock - 1) / laneBlock
	w := (groups + blocks - 1) / blocks // 81 tuples: blocks of 41 and 40 lanes, not 64 and 17
	prog := sp.prog
	regs, frame, terms, out := sc.lanes(prog.NumRegs(), w, groups)
	first := &sets[0].tg.first
	predicted := 0
	variable := func(v int) []float64 { return frame[v*w:][:w] } // variable v's lanes
	for c, v := range sp.coefs {
		row := variable(c)
		for j := range row {
			row[j] = v
		}
	}
	wo, gov, oo, ao := variable(frameWO), variable(frameGO), variable(frameOO), variable(frameAO)
	ls, cks := variable(frameL), variable(frameCkpt)
	var rows [numOutputs][]float64
	for o := range rows {
		rows[o] = prog.Output(regs, w, o)
	}
	peaks := rows[outPeakMem]
	from := 0 // regs may hold another shape's run of this very program
	for g0 := 0; g0 < groups; g0 += w {
		n := min(w, groups-g0)
		for j := 0; j < n; j++ {
			k := sets[0].lead(g0 + j)
			wo[j], gov[j], oo[j], ao[j] = k.WO, k.GO, k.OO, k.AO
			ls[j], cks[j] = float64(k.Layers), float64(k.Ckpt)
		}
		prog.EvalLanes(frame, regs, w, from)
		from = frameWO
		for j := range n {
			for o, row := range rows {
				out[o] = row[j]
			}
			g := g0 + j
			t := &terms[g]
			*t = overlapTerms{}
			for c := range numRegionClasses {
				if c < sharedRegions {
					if f := first[c][g]; int(f) != g {
						t.share(c, &terms[f])
						continue
					}
				}
				predicted += a.predictRegions(sp, c, out, t)
			}
		}
		for s := range sets {
			set := &sets[s]
			starts := set.tg.starts[g0 : g0+n+1]
			for p := int32(0); ; p++ {
				live, newL, newCkpt := false, false, false
				for j := range n {
					at := starts[j] + p
					if at >= starts[j+1] {
						continue
					}
					k := &set.ks[set.tg.order[at]]
					l, ck := float64(k.Layers), float64(k.Ckpt)
					live, newL, newCkpt = true, newL || l != ls[j], newCkpt || ck != cks[j]
					ls[j], cks[j] = l, ck
				}
				if !live {
					break
				}
				switch {
				case newL:
					prog.EvalLanes(frame, regs, w, frameL)
				case newCkpt:
					prog.EvalLanes(frame, regs, w, frameCkpt)
				}
				for j := range n {
					at := starts[j] + p
					if at >= starts[j+1] {
						continue
					}
					i := set.tg.order[at]
					out[outPeakMem] = peaks[j]
					set.dst[i] = sp.compose(set.ks[i], &terms[g0+j], out)
				}
			}
		}
	}
	a.nRegionsPredicted.Add(int64(predicted))
}

// overlapTerms are the per-layer region times of one offload tuple after
// the interference model has resolved each region's concurrent channels;
// N is a non-checkpointed layer, C a checkpointed one.
type overlapTerms struct {
	fwdN, fwdC           float64 // stable microbatch, forward
	bwdN, bwdC           float64 // stable microbatch, backward
	fwdFirstN, fwdFirstC float64 // first microbatch: repositioned optimizer steps ride the forward
	bwdLastN, bwdLastC   float64 // last microbatch: the gradient all-reduce rides the backward
	prefetch, cpuStep    float64 // first microbatch, the tuple's tape outputs compose reads: H2D of a plain layer's forward, CPU Adam per layer
}

// The overlap regions by the offload ratios their channel inputs read.
// Two tuples that agree, bit for bit, on a class's ratios give its
// regions the same inputs and so the same times: the stable forward
// regions read (wo, ao) — 9 distinct values among a grid's 81 tuples —
// and the backward ones (wo, go, ao), 27; the first microbatch's forward
// adds the optimizer step's oo and go and reads the whole tuple.
const (
	fwdRegions   = iota // fwdN, fwdC
	bwdRegions          // bwdN, bwdC, bwdLastN, bwdLastC
	firstRegions        // fwdFirstN, fwdFirstC (and prefetch, cpuStep)
	numRegionClasses
)

// sharedRegions counts the classes before firstRegions, the ones that read
// only part of the tuple: tupleGroups records each group's first match
// under each of them.
const sharedRegions = firstRegions

// regionClasses declares each class's inputs — the tape outputs its
// regions read — and the ratios (wo, go, oo, ao) those may depend on,
// which is how grouper.build projects the tuple. TestOverlapRegionReadSets
// checks both against variantExprs and predictRegions.
var regionClasses = [numRegionClasses]struct {
	inputs []int
	reads  [4]bool
}{
	fwdRegions:   {[]int{outH2DFwdN, outD2HFwdN, outH2DFwdC, outD2HFwdC}, [4]bool{true, false, false, true}},
	bwdRegions:   {[]int{outH2DBwdN, outD2HBwdN, outH2DBwdC, outD2HBwdC}, [4]bool{true, true, false, true}},
	firstRegions: {[]int{outH2DFwdN, outD2HFwdN, outH2DFwdC, outD2HFwdC, outStepGPULayer, outStepH2DLayer, outStepD2HLayer, outStepCPULayer}, [4]bool{true, true, true, true}},
}

// overlapTerms applies the interference model to the evaluated channel
// aggregates of one offload tuple, predicting every region: the reference
// build prices each candidate through it, while priceGroups predicts a
// shared class once per projection of the tuple (predictRegions, share).
func (a *Analyzer) overlapTerms(sp *stageProgram, out []float64) overlapTerms {
	var t overlapTerms
	for c := range numRegionClasses {
		a.predictRegions(sp, c, out, &t)
	}
	return t
}

// predictRegions resolves region class c's terms of t from the tuple's
// tape outputs and returns how many regions it predicted.
func (a *Analyzer) predictRegions(sp *stageProgram, c int, out []float64, t *overlapTerms) int {
	switch c {
	case fwdRegions:
		// Stable forward: per-layer region = serial TP all-reduce +
		// overlapped {compute, ZeRO-3 gather (next layer), weight
		// prefetch, activation offload}.
		t.fwdN = sp.tpARFwd + a.overlap(interference.Times{sp.cFwd, sp.agTime, out[outH2DFwdN], out[outD2HFwdN]})
		t.fwdC = sp.tpARFwd + a.overlap(interference.Times{sp.cFwd, sp.agTime, out[outH2DFwdC], out[outD2HFwdC]})
		return 2
	case bwdRegions:
		// Stable backward: non-checkpointed layers run bwd compute
		// overlapped with re-gather + reduce-scatter + refetch + gradient
		// offload; checkpointed layers prepend recomputation (fwd compute
		// + fwd TP all-reduces).
		t.bwdN = sp.tpARBwd + a.overlap(interference.Times{sp.cBwd, sp.agTime + sp.rsTime, out[outH2DBwdN], out[outD2HBwdN]})
		t.bwdC = sp.tpARBwd + sp.tpARFwd + a.overlap(interference.Times{
			sp.cBwd + sp.cFwd, 2*sp.agTime + sp.rsTime, out[outH2DBwdC], out[outD2HBwdC]})
		// Last microbatch: under plain DP / ZeRO-1 the full gradient
		// all-reduce fires once, overlapped with the last backward
		// (arGradLayer is 0 without data parallelism).
		if sp.arGradLayer <= 0 {
			return 2
		}
		t.bwdLastN = sp.tpARBwd + a.overlap(interference.Times{sp.cBwd, sp.arGradLayer, out[outH2DBwdN], out[outD2HBwdN]})
		t.bwdLastC = sp.tpARBwd + sp.tpARFwd + a.overlap(interference.Times{
			sp.cBwd + sp.cFwd, sp.arGradLayer, out[outH2DBwdC], out[outD2HBwdC]})
		return 4
	default:
		// First microbatch: repositioned optimizer steps overlap the
		// forward, and compose exposes the first layer's prefetch and the
		// CPU step beyond what hides behind it.
		t.prefetch, t.cpuStep = out[outH2DFwdN], out[outStepCPULayer]
		t.fwdFirstN = sp.tpARFwd + a.overlap(interference.Times{
			sp.cFwd + out[outStepGPULayer],
			sp.agTime,
			out[outH2DFwdN] + out[outStepH2DLayer],
			out[outD2HFwdN] + out[outStepD2HLayer],
		})
		t.fwdFirstC = sp.tpARFwd + a.overlap(interference.Times{
			sp.cFwd + out[outStepGPULayer],
			sp.agTime,
			out[outH2DFwdC] + out[outStepH2DLayer],
			out[outD2HFwdC] + out[outStepD2HLayer],
		})
		return 2
	}
}

// share copies shared class c's terms from src, the terms of the first
// group with the same projection of the tuple.
func (t *overlapTerms) share(c int, src *overlapTerms) {
	switch c {
	case fwdRegions:
		t.fwdN, t.fwdC = src.fwdN, src.fwdC
	case bwdRegions:
		t.bwdN, t.bwdC, t.bwdLastN, t.bwdLastC = src.bwdN, src.bwdC, src.bwdLastN, src.bwdLastC
	}
}

// compose scales a tuple's per-layer region times by the candidate's
// layer and checkpoint counts, producing t, d, and peak memory. out is
// the tape's output row for this candidate, of which only the peak
// memory depends on more than the tuple; the rest compose reads from t.
func (sp *stageProgram) compose(k Knobs, t *overlapTerms, out []float64) Result {
	nonCkpt := float64(k.Layers - k.Ckpt)
	ckpt := float64(k.Ckpt)

	fwdStage := nonCkpt*t.fwdN + ckpt*t.fwdC + sp.preFwd + sp.postFwd + sp.p2pTime
	bwdStage := nonCkpt*t.bwdN + ckpt*t.bwdC + sp.preBwd + sp.postBwd + sp.p2pTime
	stable := fwdStage + bwdStage

	// First microbatch: the first layer's prefetch/gather is exposed (it
	// cannot hide behind anything), and ZeRO-1/2 re-gather the updated
	// parameter shards once after the step.
	firstFwdStage := nonCkpt*t.fwdFirstN + ckpt*t.fwdFirstC + sp.preFwd + sp.postFwd + sp.p2pTime
	exposedPrefetch := sp.agTime + t.prefetch + float64(k.Layers)*sp.regatherLayer
	// CPU Adam for the offloaded fraction runs on a single serial host
	// stream concurrently with the first forward pass, but layer k's step
	// must land before layer k's forward: exposure is whatever exceeds
	// the GPU's concurrent work (at least one layer's step is exposed).
	exposedCPUStep := 0.0
	if cpuTotal := float64(k.Layers) * t.cpuStep; cpuTotal > 0 {
		hideCapacity := max(0, firstFwdStage-t.fwdFirstN)
		exposedCPUStep = max(t.cpuStep, cpuTotal-hideCapacity)
	}
	firstExtra := (firstFwdStage - fwdStage) + exposedPrefetch + exposedCPUStep

	lastExtra := 0.0
	if sp.arGradLayer > 0 {
		lastBwdStage := nonCkpt*t.bwdLastN + ckpt*t.bwdLastC + sp.preBwd + sp.postBwd + sp.p2pTime
		lastExtra = lastBwdStage - bwdStage
	}
	if lastExtra < 0 {
		lastExtra = 0
	}
	delta := max(0, firstExtra) + lastExtra

	return Result{Stable: stable, Delta: delta, PeakMem: out[outPeakMem]}
}
