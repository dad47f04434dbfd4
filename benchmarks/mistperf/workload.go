package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one set of inputs the benchmark runs. set-up builds
// everything that must exist before the first op (catalogue, fleet,
// pre-filled stores) from the seed; the returned instance then yields
// passes of batches. Pass 0 is the warm-up; every later pass is measured.
// traceable asks for a set-up whose passes can be traced (fleets boot
// with a trace recorder); tracing itself stays off until traceWith.
type workload struct {
	name    string
	why     string
	clients int // closed-loop clients issuing concurrently inside a batch
	setup   func(seed int64, traceable, short bool) (instance, error)
}

// instance is one set-up of a workload.
type instance interface {
	// pass returns the batches of pass n: the same multiset of work on
	// every n, in an order that is a pure function of (seed, n).
	pass(n int) []batch
	// fingerprints lists, in issue order, the fingerprint of every op
	// of pass n that names one (used to test the op lists).
	fingerprints(n int) []string
	// planThroughputs reports, per distinct spec seen so far, the
	// engine-measured throughput of the plan the program returned.
	planThroughputs() map[string]float64
	// counters are per-layer counts the program's public results
	// expose, accumulated over measured ops.
	counters() map[string]float64
	// traceWith switches the harness spans (and the trace headers or
	// contexts that make the program record its own) on or off for the
	// passes that follow; nil is off.
	traceWith(tr *tracer)
	// collectSpans copies the program-side spans of ops lo..hi that the
	// program still holds into tr.
	collectSpans(tr *tracer, lo, hi int64)
	close()
}

// batch is a run of ops issued back to back between two reference
// slices. run issues them (clients at a time) and logs every op. class
// names the work: two batches of one class hold the same multiset of
// work, so their costs are repeated measurements of one quantity.
type batch struct {
	class int
	ops   int
	run   func(log *opLog)
}

// opLog collects what one batch's ops did: per op its latency and its
// class (the grid cell, the sweep step, the endpoint kind — ops of one
// class do the same work). Clients own disjoint logs while a batch
// runs; the runner merges them.
type opLog struct {
	latNs  []int64
	class  []uint16
	failed int
	errs   []string
}

func newOpLog(ops int) *opLog {
	return &opLog{latNs: make([]int64, 0, ops), class: make([]uint16, 0, ops)}
}

// done logs one op's latency, taken from t0 to now.
func (l *opLog) done(t0 time.Time, class int) {
	l.latNs = append(l.latNs, int64(time.Since(t0)))
	l.class = append(l.class, uint16(class))
}

func (l *opLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

func (l *opLog) merge(o *opLog) {
	l.latNs = append(l.latNs, o.latNs...)
	l.class = append(l.class, o.class...)
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < 5 {
			l.errs = append(l.errs, e)
		}
	}
}

// resolved is a spec with its program-side objects.
type resolved struct {
	spec  serveSpec
	key   string
	w     planWorkload
	cl    *hwCluster
	space coreSpace
}

// resolve turns a wire spec into the program's workload, cluster and
// search space (the benchmark's own copy of what the service does when
// it normalises a request).
func resolve(s serveSpec) (*resolved, error) {
	cfg, err := modelByName(s.Model)
	if err != nil {
		return nil, err
	}
	nodes, perNode, err := meshForGPUs(s.GPUs)
	if err != nil {
		return nil, err
	}
	var cl *hwCluster
	switch strings.ToLower(s.Platform) {
	case "l4":
		cl = l4Cluster(nodes, perNode)
	case "a100":
		cl = a100Cluster(nodes, perNode)
	default:
		return nil, fmt.Errorf("unknown platform %q", s.Platform)
	}
	mk, ok := coreSpaces[strings.ToLower(s.Space)]
	if !ok {
		return nil, fmt.Errorf("unknown space %q", s.Space)
	}
	key, err := s.CanonicalKey()
	if err != nil {
		return nil, err
	}
	return &resolved{
		spec:  s,
		key:   key,
		w:     planWorkload{Model: cfg, Seq: s.Seq, Flash: !s.NoFlash, GlobalBatch: s.Batch},
		cl:    cl,
		space: mk(),
	}, nil
}

func mustResolve(s serveSpec) *resolved {
	r, err := resolve(s)
	if err != nil {
		panic(fmt.Sprintf("mistperf: bad built-in spec %+v: %v", s, err))
	}
	return r
}

// checker holds what the output checks need across ops: the first plan
// returned for each fingerprint (every later answer for that
// fingerprint must be byte-identical), a calibrated analyzer per
// analyzer configuration, and the engine-measured throughput per spec.
type checker struct {
	mu        sync.Mutex
	plans     map[string][]byte
	analyzers map[string]*schedAnalyzer
	tput      map[string]float64
}

func newChecker() *checker {
	return &checker{
		plans:     map[string][]byte{},
		analyzers: map[string]*schedAnalyzer{},
		tput:      map[string]float64{},
	}
}

// forgetPlans drops the per-fingerprint reference plans (a fresh fleet
// starts a fresh "same run" for the byte-identity check); analyzers and
// throughputs are kept.
func (c *checker) forgetPlans() {
	c.mu.Lock()
	c.plans = map[string][]byte{}
	c.mu.Unlock()
}

// analyzer returns the checker's own calibrated analyzer for r; batch
// size does not enter calibration, so specs differing only in batch
// share one.
func (c *checker) analyzer(r *resolved) (*schedAnalyzer, error) {
	k := fmt.Sprintf("%s|%s|%d|%d|%v|%v", r.spec.Model, r.spec.Platform, r.spec.GPUs, r.spec.Seq, r.spec.NoFlash, r.space.OverlapAware)
	c.mu.Lock()
	an := c.analyzers[k]
	c.mu.Unlock()
	if an != nil {
		return an, nil
	}
	an, err := coreCalibratedAnalyzer(r.w, r.cl, r.space)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.analyzers[k] = an
	c.mu.Unlock()
	return an, nil
}

// checkPlan is the per-op output check: the plan validates against the
// workload, runs on the engine without exceeding the cluster's memory
// budget, the analyzer's prediction is within 10 % of the engine
// (paper §6.6), and the plan is byte-identical to the first plan
// returned for this fingerprint. It returns the measurement so callers
// can compare a /simulate answer against it.
func (c *checker) checkPlan(r *resolved, p *planPlan, predictedTput float64) (simMeasurement, error) {
	var zero simMeasurement
	if p == nil {
		return zero, fmt.Errorf("%s: no plan", r.key)
	}
	if err := p.Validate(r.w); err != nil {
		return zero, fmt.Errorf("%s: invalid plan: %w", r.key, err)
	}
	an, err := c.analyzer(r)
	if err != nil {
		return zero, err
	}
	m, err := simNew(r.w, r.cl, an).Measure(p)
	if err != nil {
		return zero, fmt.Errorf("%s: engine: %w", r.key, err)
	}
	if m.OOM(r.cl.MemoryBudget()) {
		return zero, fmt.Errorf("%s: plan is OOM on the engine", r.key)
	}
	if predictedTput > 0 {
		if rel := math.Abs(predictedTput-m.Throughput) / m.Throughput; rel > 0.10 {
			return zero, fmt.Errorf("%s: prediction %.4g vs engine %.4g samples/s (%.1f %% apart)", r.key, predictedTput, m.Throughput, 100*rel)
		}
	}
	enc, err := json.Marshal(p)
	if err != nil {
		return zero, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if first, ok := c.plans[r.key]; ok {
		if !bytes.Equal(first, enc) {
			return zero, fmt.Errorf("%s: plan differs from the first plan returned for this fingerprint", r.key)
		}
	} else {
		c.plans[r.key] = enc
	}
	c.tput[r.key] = m.Throughput
	return m, nil
}

func (c *checker) throughputs() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.tput))
	for k, v := range c.tput {
		out[k] = v
	}
	return out
}

// geomean over the values of m in key order (so the float result is
// bit-identical whatever order the ops ran in).
func geomean(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0.0
	for _, k := range sortedKeys(m) {
		s += math.Log(m[k])
	}
	return math.Exp(s / float64(len(m)))
}

// passRand is the random source of pass n of a seeded run.
func passRand(seed int64, n int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(n)*7919 + 17))
}

// orderWithDeps returns a seeded order of n items in which item i comes
// after item dep[i] (dep[i] < 0: no constraint; otherwise dep[i] < i).
// Items draw a uniform key; a dependent item draws its key above its
// dependency's, and the stable sort breaks a tie in index order.
func orderWithDeps(rng *rand.Rand, dep []int) []int {
	n := len(dep)
	key := make([]float64, n)
	for i, d := range dep {
		lo := 0.0
		if d >= 0 {
			lo = key[d]
		}
		key[i] = lo + (1-lo)*rng.Float64()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key[idx[a]] < key[idx[b]] })
	return idx
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
