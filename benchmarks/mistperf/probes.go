package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"
)

// A probe times calls into one layer's public functions on fixed,
// recorded inputs, from outside, bracketed by reference slices like any
// batch. The inputs are constants of this file: the seed does not reach
// them, so a probe's value moves only when the layer does.

// prober runs probes under the meter and collects their values.
type prober struct {
	m     *meter
	short bool
	timed []timedProbe
	out   map[string]float64
	errs  []string
}

// timedProbe is a probe's raw measurement; it is restated at reference
// speed once the slices after it exist (see finish).
type timedProbe struct {
	name  string
	st    batchStat
	calls float64 // calls × unit: what the wall time is divided by
}

const (
	unitNs = 1.0
	unitUs = 1e3
	unitMs = 1e6
)

// time runs fn iters times as one measured batch and records the cost
// of one call at reference speed; the first error ends the probe and is
// reported instead of a value.
func (p *prober) time(name string, unit float64, iters int, fn func() error) {
	iters = p.iters(iters)
	var err error
	st := p.m.measure(func() {
		for i := 0; i < iters && err == nil; i++ {
			err = fn()
		}
	})
	if err != nil {
		p.fail(name, err)
		return
	}
	p.timed = append(p.timed, timedProbe{name, st, float64(iters) * unit})
}

// finish restates every timed probe at reference speed.
func (p *prober) finish() {
	p.m.tail()
	for _, t := range p.timed {
		p.out[t.name] = float64(t.st.wallNs) / p.m.slowdown(t.st) / t.calls
	}
}

// iters scales an iteration count down for -short.
func (p *prober) iters(n int) int {
	if p.short {
		return max(1, n/100)
	}
	return n
}

func (p *prober) fail(name string, err error) {
	p.errs = append(p.errs, fmt.Sprintf("probe %s: %v", name, err))
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink float64

// refCell is BENCH.json's cold cell; smallCell is Fig. 16's small case.
var (
	refCell   = serveSpec{Model: "gpt3-2.7b", Platform: "l4", GPUs: 8, Batch: 8, Seq: 2048, Space: "mist"}
	smallCell = serveSpec{Model: "gpt3-2.7b", Platform: "l4", GPUs: 4, Batch: 32, Seq: 2048, Space: "mist"}
)

// mistKnobs is the full Mist knob batch for one layer count: the
// default checkpoint grid crossed with the four offload grids.
func mistKnobs(layers int) []schedKnobs {
	var ks []schedKnobs
	grid := []float64{0, 0.5, 1}
	for ck := 0; ck <= layers; ck += layers / 4 {
		for _, wo := range grid {
			for _, gov := range grid {
				for _, oo := range grid {
					for _, ao := range grid {
						ks = append(ks, schedKnobs{Layers: layers, Ckpt: ck, WO: wo, GO: gov, OO: oo, AO: ao})
					}
				}
			}
		}
	}
	return ks
}

// probeShapes are the stage shapes the evalcache probe prices: the
// (B, DP, TP, ZeRO) combinations an 8-GPU single-stage sweep visits.
func probeShapes() []schedShape {
	var out []schedShape
	for _, b := range []int{1, 2, 4} {
		for _, tp := range []int{1, 2, 4} {
			for z := 0; z <= 3; z++ {
				out = append(out, schedShape{B: b, DP: 8 / tp, TP: tp, ZeRO: z, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 8})
			}
		}
	}
	return out
}

func runProbes(m *meter, short bool, outDir string) (map[string]float64, []string) {
	p := &prober{m: m, short: short, out: map[string]float64{}}
	p.paperCore()
	p.storeAndCluster(outDir)
	p.service()
	p.controlPlane()
	p.finish()
	return p.out, p.errs
}

// paperCore probes symbolic, graph, interference, schedule, evalcache,
// core, milp, pipeline and trainsim.
func (p *prober) paperCore() {
	ref := mustResolve(refCell)
	cfg := ref.w.Model

	// graph + symbolic: trace one transformer block, compile its four
	// symbolic memory expressions, evaluate the program.
	p.time("graph.trace_layer_us", unitUs, 300, func() error {
		_, err := graphTraceLayer(cfg, ref.w.Seq, 2, true)
		return err
	})
	g, err := graphTraceLayer(cfg, ref.w.Seq, 2, true)
	if err != nil {
		p.fail("graph", err)
		return
	}
	exprs := []*symExpr{g.PeakForwardBytes(), g.PeakBackwardBytes(), g.SavedActivationBytes(), g.BoundaryBytes()}
	vars := symMergeVars(exprs...)
	p.time("symbolic.compile_us", unitUs, 300, func() error {
		_, err := symCompile(exprs, vars)
		return err
	})
	prog, err := symCompile(exprs, vars)
	if err != nil {
		p.fail("symbolic", err)
		return
	}
	frame := make([]float64, len(vars))
	for i := range frame {
		frame[i] = 4
	}
	regs, out := prog.Scratch(), make([]float64, prog.NumOutputs())
	p.time("symbolic.evalframe_ns", unitNs, 1_000_000, func() error {
		sink += prog.EvalFrame(frame, regs, out)[0]
		return nil
	})

	// interference: Algorithm 1's predictor and its fit.
	p.time("interference.fit_ms", unitMs, 60, func() error {
		intfFit(intfPCIeFluid(), 12, rand.New(rand.NewSource(42)))
		return nil
	})
	model := intfFit(intfPCIeFluid(), 12, rand.New(rand.NewSource(42)))
	x := intfTimes{1.2, 0.8, 0.4, 0.3}
	p.time("interference.predict_ns", unitNs, 2_000_000, func() error {
		sink += model.Predict(x)
		return nil
	})

	// schedule: the first Evaluate on a fresh analyzer builds and
	// compiles the stage program; after that a full knob batch streams
	// through it.
	p.time("core.calibrate_ms", unitMs, 60, func() error {
		_, err := coreCalibratedAnalyzer(ref.w, ref.cl, ref.space)
		return err
	})
	shape := schedShape{B: 1, DP: 4, TP: 2, ZeRO: 1, HasPre: true, HasPost: true, NumStages: 1, GradAccum: 8}
	knobs := mistKnobs(cfg.Layers)
	const fresh = 12
	ans := make([]*schedAnalyzer, fresh)
	for i := range ans {
		if ans[i], err = coreCalibratedAnalyzer(ref.w, ref.cl, ref.space); err != nil {
			p.fail("schedule", err)
			return
		}
	}
	next := 0
	p.time("schedule.program_build_ms", unitMs, fresh, func() error {
		r, err := ans[next%fresh].Evaluate(shape, knobs[0])
		sink += r.Stable
		next++
		return err
	})
	an := ans[0]
	var dst []schedResult
	var sc schedScratch
	p.time("schedule.eval_ns_per_cand", unitNs*float64(len(knobs)), 150, func() error {
		dst, err = an.EvaluateBatchInto(dst, shape, knobs, &sc)
		return err
	})

	// evalcache: the same knob set priced through the cache over many
	// shapes, first pass (all misses) and second pass (all hits). A
	// KnobSet remembers the last cache that resolved it, so the retained
	// size is taken with a set of its own.
	shapes := probeShapes()
	points := float64(len(shapes) * len(knobs))
	const caches = 6
	var es evalScratch
	pass := func(c *evalCache, set *evalKnobSet) error {
		for _, s := range shapes {
			if dst, err = c.EvaluateSet(s, set, dst, &es); err != nil {
				return err
			}
		}
		return nil
	}
	// Compile every shape's program outside the timing and the sizing.
	if err := pass(evalNewCache(an), evalNewKnobSet(knobs)); err != nil {
		p.fail("evalcache", err)
		return
	}
	before := liveHeapMiB()
	kept, keptSet := evalNewCache(an), evalNewKnobSet(knobs)
	if err := pass(kept, keptSet); err == nil {
		p.out["evalcache.bytes_per_point"] = (liveHeapMiB() - before) * (1 << 20) / float64(kept.Len())
	}
	runtime.KeepAlive(kept)
	runtime.KeepAlive(keptSet)
	set := evalNewKnobSet(knobs)
	fills := make([]*evalCache, p.iters(caches))
	for i := range fills {
		fills[i] = evalNewCache(an)
	}
	next = 0
	p.time("evalcache.miss_ns_per_point", unitNs*points, caches, func() error {
		next++
		return pass(fills[next-1], set)
	})
	p.time("evalcache.hit_ns_per_point", unitNs*points, 4*caches, func() error {
		next++
		return pass(fills[next%len(fills)], set)
	})

	// core: the reference cell end to end, and the small cell through
	// the paper-faithful MILP inter-stage solver.
	var refPlan *planPlan
	var refAn *schedAnalyzer
	p.time("core.tune_ms_ref_cell", unitMs, 1, func() error {
		tn, err := coreNew(ref.w, ref.cl, ref.space)
		if err != nil {
			return err
		}
		res, err := tn.Tune()
		if err != nil {
			return err
		}
		refPlan, refAn = res.Plan, tn.An
		return nil
	})
	small := mustResolve(smallCell)
	if p.short {
		small = mustResolve(shortSpecs[0])
	}
	p.time("core.tune_milp_ms", unitMs, 1, func() error {
		tn, err := coreNew(small.w, small.cl, small.space)
		if err != nil {
			return err
		}
		tn.UseMILP = true
		_, err = tn.Tune()
		return err
	})

	// Quality: Mist's plan against Megatron-LM's on three cells both can
	// run, each measured on the engine. Deterministic.
	cells := []serveSpec{
		{Model: "gpt3-1.3b", Platform: "l4", GPUs: 2, Batch: 16, Seq: 2048, Space: "mist"},
		smallCell,
		{Model: "llama-1.3b", Platform: "a100", GPUs: 4, Batch: 32, Seq: 4096, Space: "mist"},
	}
	if p.short {
		cells = shortSpecs[:1]
	}
	speedups := map[string]float64{}
	for _, s := range cells {
		r := mustResolve(s)
		mist, err1 := baselinesRun(r.w, r.cl, baselinesMist())
		mega, err2 := baselinesRun(r.w, r.cl, baselinesMegatron())
		if err1 != nil || err2 != nil {
			p.fail("core.speedup_vs_megatron_geomean", fmt.Errorf("%s: %v %v", r.key, err1, err2))
			continue
		}
		if sp := baselinesSpeedup(mist, mega); sp > 0 {
			speedups[r.key] = sp
		}
	}
	p.out["core.speedup_vs_megatron_geomean"] = geomean(speedups)

	// milp: an 8×8 stage-assignment instance with fixed costs.
	rng := rand.New(rand.NewSource(11))
	const n = 8
	var cost [n][n]float64
	for i := range cost {
		for j := range cost[i] {
			cost[i][j] = float64(rng.Intn(100))
		}
	}
	p.time("milp.solve_ms", unitMs, 4, func() error {
		prob := milpNewProblem(n * n)
		for i := 0; i < n; i++ {
			row, col := map[int]float64{}, map[int]float64{}
			for j := 0; j < n; j++ {
				prob.SetBinary(i*n + j)
				prob.SetObjective(i*n+j, cost[i][j])
				row[i*n+j] = 1
				col[j*n+i] = 1
			}
			prob.AddConstraint(row, milpEQ, 1)
			prob.AddConstraint(col, milpEQ, 1)
		}
		_, err := prob.SolveMILP()
		return err
	})

	// pipeline + trainsim: 1F1B playback and one engine measurement.
	stages := make([]pipeCost, 8)
	for i := range stages {
		stages[i] = pipeCost{Fwd: 1, Bwd: 2, FirstExtra: 0.3, LastExtra: 0.2}
	}
	p.time("pipeline.playback_us", unitUs, 3000, func() error {
		t, err := pipePlayback1F1B(stages, 32)
		sink += t
		return err
	})
	if refPlan != nil {
		eng := simNew(ref.w, ref.cl, refAn)
		p.time("trainsim.measure_us", unitUs, 4000, func() error {
			m, err := eng.Measure(refPlan)
			sink += m.Throughput
			return err
		})
	}
}

// probeRecords are 1 000 distinct store records, all carrying one small
// real plan (the store refuses nil plans and never looks inside one).
func probeRecords(pl *planPlan) []storeRecord {
	recs := make([]storeRecord, 0, 1000)
	for i := 0; len(recs) < 1000; i++ {
		for _, m := range []string{"gpt3-1.3b", "llama-1.3b", "falcon-1.3b", "gpt3-2.7b"} {
			recs = append(recs, storeRecord{
				Fingerprint:    storeFingerprint{Model: m, Platform: "l4", GPUs: 2 << (i % 3), Batch: 4 + 4*(i%16), Seq: 256 + 64*(i/16), Flash: true, Space: "mist"},
				Plan:           pl,
				Predicted:      1,
				PredThroughput: 1,
			})
		}
	}
	return recs[:1000]
}

func (p *prober) storeAndCluster(outDir string) {
	cell := mustResolve(shortSpecs[0])
	tn, err := coreNew(cell.w, cell.cl, coreSpaces["deepspeed"]())
	if err != nil {
		p.fail("store", err)
		return
	}
	res, err := tn.Tune()
	if err != nil {
		p.fail("store", err)
		return
	}
	recs := probeRecords(res.Plan)
	if p.short {
		recs = recs[:50]
	}
	st := storeInMemory()
	putAll := func(into interface {
		Put(storeRecord) (storeRecord, error)
	}, recs []storeRecord) func() error {
		return func() error {
			for _, r := range recs {
				if _, err := into.Put(r); err != nil {
					return err
				}
			}
			return nil
		}
	}
	p.time("store.put_us", unitUs*float64(len(recs)), 1, putAll(st, recs))
	i := 0
	p.time("store.get_ns", unitNs, 400_000, func() error {
		i++
		if _, ok := st.Get(recs[i%len(recs)].Fingerprint); !ok {
			return fmt.Errorf("record missing")
		}
		return nil
	})
	// Nearest is asked for fingerprints that are not stored (a batch
	// value no record has), the way a cold request asks.
	p.time("store.nearest_us", unitUs, 3000, func() error {
		i++
		fp := recs[i%len(recs)].Fingerprint
		fp.Batch = 3
		st.Nearest(fp)
		return nil
	})

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		p.fail("store.put_disk_us", err)
	} else if dir, err := os.MkdirTemp(outDir, "store-probe-"); err != nil {
		p.fail("store.put_disk_us", err)
	} else {
		defer os.RemoveAll(dir)
		disk, err := storeOpen(dir)
		if err != nil {
			p.fail("store.put_disk_us", err)
		} else {
			n := min(len(recs), 200)
			p.time("store.put_disk_us", unitUs*float64(n), 1, putAll(disk, recs[:n]))
		}
	}

	ring, err := clusterNewRing([]string{"n1", "n2", "n3"}, clusterVNodes)
	if err != nil {
		p.fail("cluster.ring_lookup_ns", err)
		return
	}
	keys := make([]string, len(recs))
	for k, r := range recs {
		keys[k] = r.Fingerprint.Key()
	}
	p.time("cluster.ring_lookup_ns", unitNs, 400_000, func() error {
		i++
		k := keys[i%len(keys)]
		if ring.Owner(k) == "" || len(ring.Replicas(k, 2)) != 2 {
			return fmt.Errorf("no owner for %s", k)
		}
		return nil
	})
}

// service probes serve and jobs on one 3-node fleet: the same warm
// request sent to its owner and to a non-owner (the difference is the
// forward hop), the cheap read endpoints, and cold requests on distinct
// fingerprints.
func (p *prober) service() {
	f, err := newFleet(false)
	if err != nil {
		p.fail("serve", err)
		return
	}
	defer f.close()
	spec := shortSpecs[0]
	spec.Space = "deepspeed"
	body := specBody(spec)
	owner, other := -1, -1
	for node := range f.ids {
		var hdr http.Header
		code, reply := f.doHeader(node, http.MethodPost, "/tune", body, 0, nil, &hdr)
		if code != http.StatusOK {
			p.fail("serve", fmt.Errorf("warming /tune: status %d: %.200s", code, reply))
			return
		}
		if hdr.Get(clusterHeaderServedBy) == f.ids[node] {
			owner = node
		} else {
			other = node
		}
	}
	if owner < 0 || other < 0 {
		p.fail("serve", fmt.Errorf("could not tell the owner from a non-owner"))
		return
	}
	call := func(node int, method, path string, body []byte) func() error {
		return func() error {
			if code, reply := f.do(node, method, path, body, 0, nil); code != http.StatusOK {
				return fmt.Errorf("%s: status %d: %.200s", path, code, reply)
			}
			return nil
		}
	}
	post := func(node int, path string) func() error { return call(node, http.MethodPost, path, body) }
	get := func(path string) func() error { return call(owner, http.MethodGet, path, nil) }
	if err := post(owner, "/simulate")(); err != nil {
		p.fail("serve", err)
		return
	}
	p.time("serve.tune_hit_local_us", unitUs, 5000, post(owner, "/tune"))
	p.time("serve.tune_hit_forwarded_us", unitUs, 3000, post(other, "/tune"))
	p.time("serve.simulate_hit_us", unitUs, 3000, post(owner, "/simulate"))
	p.time("serve.stats_us", unitUs, 150, get("/stats"))
	p.time("serve.metrics_us", unitUs, 150, get("/metrics"))
	cold := mixSpecs(24)
	k := 0
	p.time("serve.tune_cold_ms", unitMs, len(cold), func() error {
		k++
		return call(k%fleetNodes, http.MethodPost, "/tune", specBody(cold[k%len(cold)]))()
	})

	// jobs: the queue itself, with a task that does nothing — submit
	// cost, and submit-to-settled latency through a worker.
	mgr := jobsNewManager(2, 1<<16)
	defer mgr.Close()
	ctx := context.Background()
	noop := func(context.Context, func(string)) (any, error) { return nil, nil }
	p.time("jobs.submit_to_done_ms", unitMs, 3000, func() error {
		snap, _, err := mgr.Submit(ctx, "", 0, noop)
		if err == nil {
			_, err = mgr.Wait(ctx, snap.ID)
		}
		return err
	})
	block := make(chan struct{})
	parked := func(ctx context.Context, _ func(string)) (any, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}
	// With both workers parked, a submit is pure queue work.
	for w := 0; w < 2; w++ {
		if _, _, err := mgr.Submit(ctx, "", 0, parked); err != nil {
			p.fail("jobs.submit_us", err)
		}
	}
	p.time("jobs.submit_us", unitUs, 20000, func() error {
		_, _, err := mgr.Submit(ctx, "", 0, noop)
		return err
	})
	close(block)
}

// fixedClock is the virtual clock the slo and pilot probes drive.
type fixedClock struct{ t time.Time }

func (c *fixedClock) Now() time.Time { return c.t }

// controlPlane probes metrics, trace, slo and pilot: off the request
// path (apart from one histogram observation per request), listed so
// growth is visible.
func (p *prober) controlPlane() {
	reg := metricsNewRegistry()
	hist := reg.Histogram("lat", metricsLabels{"endpoint": "/tune"})
	d := 137 * time.Microsecond
	p.time("metrics.observe_ns", unitNs, 3_000_000, func() error {
		hist.Observe(d)
		return nil
	})
	feed := func(endpoint, code string, count int, lat time.Duration) {
		reg.Counter("reqs", metricsLabels{"endpoint": endpoint, "code": code}).Add(uint64(count))
		h := reg.Histogram("lat", metricsLabels{"endpoint": endpoint})
		for i := 0; i < count; i++ {
			h.Observe(lat)
		}
	}

	// slo: four objectives over a 60 s / 1 s ring, three endpoints.
	clock := &fixedClock{t: time.Unix(1_000_000, 0).UTC()}
	eng, err := sloNewEngine(sloConfig{
		IntervalMs: 1000,
		Objectives: []sloObjective{
			{Name: "avail", Type: sloAvailability, Target: 0.999, WindowS: 60},
			{Name: "p99", Type: sloLatency, Target: 0.99, Bound: 250, WindowS: 60},
			{Name: "shed", Type: sloRate429, Target: 0.99, WindowS: 60},
			{Name: "queue", Type: sloQueueDepth, Target: 0.95, Bound: 64, WindowS: 60},
		},
	}, reg, sloOptions{Clock: clock, CounterFamily: "reqs", HistFamily: "lat", QueueDepth: func() float64 { return 3 }})
	if err != nil {
		p.fail("slo.evaluate_ns", err)
	} else {
		for i := 0; i < 60; i++ {
			feed("/tune", "200", 50, 5*time.Millisecond)
			feed("/simulate", "200", 20, 40*time.Millisecond)
			feed("/jobs", "429", 2, time.Millisecond)
			clock.t = clock.t.Add(time.Second)
			eng.Tick()
		}
		p.time("slo.evaluate_ns", unitNs, 20000, func() error {
			eng.Evaluate()
			return nil
		})
	}
	p.time("metrics.expose_us", unitUs, 2000, func() error {
		reg.WritePrometheus(io.Discard)
		return nil
	})

	// trace: one child span started and ended under a recorded root.
	rec := traceNewRecorder(traceOptions{SampleEvery: 1, Capacity: 8})
	const perRoot = 1000
	p.time("trace.span_ns", unitNs*perRoot, 300, func() error {
		ctx, root := rec.StartTrace(context.Background(), "probe", "")
		for i := 0; i < perRoot; i++ {
			_, sp := traceStartSpan(ctx, "child")
			sp.End()
		}
		root.End()
		return nil
	})

	// pilot: one steady-state decision tick over a healthy 3-node fleet.
	pclock := &fixedClock{t: time.Unix(1_000_000, 0).UTC()}
	pl, err := pilotNew(pilotConfig{
		IntervalMs: 1000, SaturationQueue: 10, Saturation429: 0.5, SaturationEvals: 2,
		HealthyEvals: 3, UnhealthyEvals: 2, CooldownS: 5, MaxActionsPerWindow: 3, WindowS: 60, MinNodes: 2,
	}, pclock)
	if err != nil {
		p.fail("pilot.evaluate_ns", err)
		return
	}
	in := pilotInputs{
		AllOK: true,
		Members: []pilotMember{
			{ID: "n1", Self: true, Health: clusterOk, Load: 0.34},
			{ID: "n2", Health: clusterOk, Load: 0.33},
			{ID: "n3", Health: clusterOk, Load: 0.33},
		},
		Standbys: []clusterMember{{ID: "s1", Addr: "http://s1"}, {ID: "s2", Addr: "http://s2"}},
	}
	p.time("pilot.evaluate_ns", unitNs, 1_000_000, func() error {
		pclock.t = pclock.t.Add(time.Second)
		pl.Evaluate(in)
		return nil
	})
}
