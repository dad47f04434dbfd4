package main

import (
	"fmt"
	"time"
)

// coldGrid is search-cold's 8-cell grid: three families, 1.3b–7b, 2/4/8
// GPUs, L4 and A100, FlashAttention on and off. Cell 0 is BENCH.json's
// cold cell (ROADMAP item 2's ≤ 100 ms target); cell 1 is Fig. 16's
// small case. Every cell is a fresh full-MistSpace search of 0.1–0.6 s,
// so a reference slice is never far from the work it normalises.
var coldGrid = []serveSpec{
	{Model: "gpt3-2.7b", Platform: "l4", GPUs: 8, Batch: 8, Seq: 2048, Space: "mist"},
	{Model: "gpt3-2.7b", Platform: "l4", GPUs: 4, Batch: 32, Seq: 2048, Space: "mist"},
	{Model: "gpt3-1.3b", Platform: "l4", GPUs: 2, Batch: 64, Seq: 2048, Space: "mist"},
	{Model: "gpt3-1.3b", Platform: "l4", GPUs: 4, Batch: 16, Seq: 2048, NoFlash: true, Space: "mist"},
	{Model: "llama-1.3b", Platform: "a100", GPUs: 4, Batch: 32, Seq: 4096, Space: "mist"},
	{Model: "llama-2.7b", Platform: "a100", GPUs: 8, Batch: 16, Seq: 4096, Space: "mist"},
	{Model: "falcon-1.3b", Platform: "l4", GPUs: 8, Batch: 16, Seq: 2048, NoFlash: true, Space: "mist"},
	{Model: "gpt3-7b", Platform: "a100", GPUs: 8, Batch: 8, Seq: 4096, Space: "mist"},
}

// searchCounts accumulates what core.Result exposes about each search.
type searchCounts struct {
	ops, candidates, hits, misses, sgPairs, pruned, aborted float64
}

func (c *searchCounts) add(r *coreResult) {
	c.ops++
	c.candidates += float64(r.Candidates)
	c.hits += float64(r.EvalCacheHits)
	c.misses += float64(r.EvalCacheMisses)
	c.sgPairs += float64(r.SGPairs)
	c.pruned += float64(r.WarmPruned)
	c.aborted += float64(r.WarmAbortedPairs)
}

func (c *searchCounts) counters() map[string]float64 {
	if c.ops == 0 {
		return nil
	}
	out := map[string]float64{
		"core.candidates_per_op":    c.candidates / c.ops,
		"core.unique_evals_per_op":  c.misses / c.ops,
		"core.sg_pairs_per_op":      c.sgPairs / c.ops,
		"core.pruned_per_op":        c.pruned / c.ops,
		"core.aborted_pairs_per_op": c.aborted / c.ops,
	}
	if t := c.hits + c.misses; t > 0 {
		out["core.cache_hit_ratio"] = c.hits / t
	}
	return out
}

// searchBase is what both search workloads share.
type searchBase struct {
	seed   int64
	tr     *tracer
	chk    *checker
	counts searchCounts
}

func (s *searchBase) planThroughputs() map[string]float64 { return s.chk.throughputs() }
func (s *searchBase) counters() map[string]float64        { return s.counts.counters() }
func (s *searchBase) close()                              {}
func (s *searchBase) traceWith(tr *tracer)                { s.tr = tr }

// collectSpans has nothing to do: tuneTraced adopts the program's spans
// as each search returns.
func (s *searchBase) collectSpans(*tracer, int64, int64) {}

// finishSearchOp runs the engine re-measure and the output check that
// close every search op, and logs the op.
func (s *searchBase) finishSearchOp(log *opLog, class int, op int64, root *live, r *resolved, res *tuned, err error, t0 time.Time) {
	if err != nil {
		log.done(t0, class)
		root.end()
		log.fail("%s: %v", r.key, err)
		return
	}
	// The engine re-measure on the tuner's own analyzer is part of the
	// op: it is what a user does with a plan.
	sp := s.tr.start(op, root, "trainsim.measure")
	_, merr := simNew(r.w, r.cl, res.tn.An).Measure(res.Plan)
	sp.end()
	log.done(t0, class)
	if merr != nil {
		root.end()
		log.fail("%s: engine: %v", r.key, merr)
		return
	}
	sp = s.tr.start(op, root, "check")
	_, cerr := s.chk.checkPlan(r, res.Plan, res.PredThroughput)
	sp.end()
	root.end()
	if cerr != nil {
		log.fail("%v", cerr)
		return
	}
	s.counts.add(res.coreResult)
}

// coldInstance is one set-up of search-cold.
type coldInstance struct {
	searchBase
	cells []*resolved
}

func setupSearchCold(seed int64, _, short bool) (instance, error) {
	grid := coldGrid
	if short {
		grid = shortSpecs
	}
	in := &coldInstance{searchBase: searchBase{seed: seed, chk: newChecker()}}
	for _, s := range grid {
		r, err := resolve(s)
		if err != nil {
			return nil, err
		}
		in.cells = append(in.cells, r)
	}
	return in, nil
}

func (in *coldInstance) order(n int) []int { return passRand(in.seed, n).Perm(len(in.cells)) }

func (in *coldInstance) fingerprints(n int) []string {
	var out []string
	for _, i := range in.order(n) {
		out = append(out, in.cells[i].key)
	}
	return out
}

// pass is one batch per cell: a fresh tuner (calibration included), a
// full search, the engine re-measure.
func (in *coldInstance) pass(n int) []batch {
	var out []batch
	for _, i := range in.order(n) {
		r := in.cells[i]
		out = append(out, batch{class: i, ops: 1, run: func(log *opLog) {
			op := in.tr.newOp()
			t0 := time.Now()
			root := in.tr.start(op, nil, "op")
			sp := in.tr.start(op, root, "core.calibrate")
			tn, err := coreNew(r.w, r.cl, r.space)
			sp.end()
			var res *tuned
			if err == nil {
				res, err = in.tune(op, root, tn)
			}
			in.finishSearchOp(log, i, op, root, r, res, err, t0)
		}})
	}
	return out
}

// tuned is a search result together with the tuner that produced it.
type tuned struct {
	*coreResult
	tn *coreTuner
}

func (s *searchBase) tune(op int64, root *live, tn *coreTuner) (*tuned, error) {
	sp := s.tr.start(op, root, "core.tune")
	res, err := s.tr.tuneTraced(op, sp, tn)
	sp.end()
	if err != nil {
		return nil, err
	}
	return &tuned{coreResult: res, tn: tn}, nil
}

// reuseBases are search-reuse's two sweeps: BENCH.json's cell on L4 and
// one A100 base. Within a base, calibration does not depend on the
// global batch, so one analyzer and one evaluation cache serve the
// whole sweep — exactly what the service's eval registry does.
var reuseBases = []serveSpec{
	{Model: "gpt3-2.7b", Platform: "l4", GPUs: 8, Seq: 2048, Space: "mist"},
	{Model: "llama-2.7b", Platform: "a100", GPUs: 4, Seq: 4096, Space: "mist"},
}

var reuseBatches = []int{8, 16, 32}

const reuseRetunes = 2

// reuseOp is one op of search-reuse: a sweep step (search at the next
// batch value, warm-started from the previous step's plan, filling the
// shared cache) or a re-tune of an already-swept value on the filled
// cache.
type reuseOp struct {
	base   int
	retune bool
	r      *resolved
}

type reuseInstance struct {
	searchBase
	ops []reuseOp
	dep []int
	// states are the current round's per-base analyzer, cache and
	// previous plan; kept on the instance so the last round's caches
	// are still referenced when the live heap is read.
	states map[int]*reuseState
}

type reuseState struct {
	an    *schedAnalyzer
	cache *evalCache
	prev  *planPlan
}

func setupSearchReuse(seed int64, _, short bool) (instance, error) {
	in := &reuseInstance{searchBase: searchBase{seed: seed, chk: newChecker()}}
	bases, sweep := reuseBases, reuseBatches
	if short {
		bases = []serveSpec{{Model: "gpt3-1.3b", Platform: "l4", GPUs: 2, Seq: 1024, Space: "mist"}}
		sweep = []int{4, 8}
	}
	for b, base := range bases {
		prev := -1
		for _, gb := range sweep {
			s := base
			s.Batch = gb
			r, err := resolve(s)
			if err != nil {
				return nil, err
			}
			in.ops = append(in.ops, reuseOp{base: b, r: r})
			in.dep = append(in.dep, prev)
			prev = len(in.ops) - 1
			for k := 0; k < reuseRetunes; k++ {
				in.ops = append(in.ops, reuseOp{base: b, retune: true, r: r})
				in.dep = append(in.dep, prev)
			}
		}
	}
	return in, nil
}

func (in *reuseInstance) order(n int) []int { return orderWithDeps(passRand(in.seed, n), in.dep) }

func (in *reuseInstance) fingerprints(n int) []string {
	var out []string
	for _, i := range in.order(n) {
		out = append(out, in.ops[i].r.key)
	}
	return out
}

// pass is one round: per base a fresh analyzer and cache (built by the
// base's first sweep op and charged to it), then one batch per op.
func (in *reuseInstance) pass(n int) []batch {
	states := map[int]*reuseState{}
	in.states = states
	var out []batch
	for _, i := range in.order(n) {
		o := in.ops[i]
		out = append(out, batch{class: i, ops: 1, run: func(log *opLog) {
			op := in.tr.newOp()
			t0 := time.Now()
			root := in.tr.start(op, nil, "op")
			st := states[o.base]
			var err error
			if st == nil {
				st = &reuseState{}
				states[o.base] = st
				sp := in.tr.start(op, root, "core.calibrate")
				st.an, err = coreCalibratedAnalyzer(o.r.w, o.r.cl, o.r.space)
				if err == nil {
					st.cache = evalNewCache(st.an)
				}
				sp.end()
			}
			var res *tuned
			if err == nil {
				var tn *coreTuner
				tn, err = coreNewShared(o.r.w, o.r.cl, st.an, o.r.space, st.cache)
				if err == nil {
					if !o.retune {
						tn.Warm = st.prev
					}
					res, err = in.tune(op, root, tn)
				}
			}
			if err == nil && !o.retune {
				st.prev = res.Plan
			}
			if err == nil && o.retune && res.EvalCacheMisses != 0 {
				err = fmt.Errorf("re-tune on the filled cache missed %d times", res.EvalCacheMisses)
			}
			in.finishSearchOp(log, i, op, root, o.r, res, err, t0)
		}})
	}
	return out
}

// shortSpecs are the cheap cells the -short smoke runs use.
var shortSpecs = []serveSpec{
	{Model: "gpt3-1.3b", Platform: "l4", GPUs: 2, Batch: 8, Seq: 1024, Space: "mist"},
	{Model: "llama-1.3b", Platform: "a100", GPUs: 2, Batch: 4, Seq: 1024, NoFlash: true, Space: "mist"},
}
