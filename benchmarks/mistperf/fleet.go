package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// fleet is a 3-node in-process cluster (R = 2) and the handlers the
// clients send to. Node handlers are mounted once: mounting builds a
// fresh mux and instruments every route.
type fleet struct {
	lc       *serveFleet
	ids      []string
	handlers []http.Handler

	requests atomic.Int64
	rejected atomic.Int64
}

const fleetNodes = 3

func newFleet(traceable bool) (*fleet, error) {
	opt := serveFleetOptions{Nodes: fleetNodes, Replicas: 2}
	if traceable {
		// Sampling stays at 0: only requests the harness stamps with
		// X-Mist-Trace are recorded. The ring must hold one traced pass.
		opt.ServerOptions = []serveOption{serveWithTrace(traceOptions{Capacity: 1 << 15})}
	}
	lc, err := serveNewFleet(opt)
	if err != nil {
		return nil, err
	}
	f := &fleet{lc: lc, ids: lc.IDs()}
	for _, id := range f.ids {
		f.handlers = append(f.handlers, lc.Handler(id))
	}
	return f, nil
}

func (f *fleet) close() { f.lc.Close() }

// do sends one request to a node's handler and returns the status and
// body. Under tracing the request carries the op's trace id and the
// harness span that caused it, so the program's own spans join the op.
func (f *fleet) do(node int, method, path string, body []byte, op int64, sp *live) (int, []byte) {
	return f.doHeader(node, method, path, body, op, sp, nil)
}

// doHeader is do that also hands back the response headers.
func (f *fleet) doHeader(node int, method, path string, body []byte, op int64, sp *live, hdr *http.Header) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+f.ids[node]+path, rd)
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != nil {
		req.Header.Set(traceHeaderTrace, opTraceID(op))
		req.Header.Set(traceHeaderSpan, sp.id())
	}
	rec := httptest.NewRecorder()
	f.handlers[node].ServeHTTP(rec, req)
	f.requests.Add(1)
	if rec.Code == http.StatusTooManyRequests {
		f.rejected.Add(1)
	}
	if hdr != nil {
		*hdr = rec.Header()
	}
	return rec.Code, rec.Body.Bytes()
}

// request is do wrapped in the op's harness spans: op ⊃ serve.request.
// With a nil tracer the request carries no trace headers.
func (f *fleet) request(tr *tracer, node int, method, path string, body []byte, op int64, root *live) (int, []byte) {
	sp := tr.start(op, root, "serve.request")
	code, out := f.do(node, method, path, body, op, sp)
	sp.end()
	return code, out
}

// forwards sums the hops the fleet's nodes took.
func (f *fleet) forwards() float64 {
	n := 0.0
	for _, id := range f.ids {
		n += float64(f.lc.Node(id).Stats().ClusterForwards)
	}
	return n
}

// collectSpans copies every trace portion the nodes recorded for ops
// lo..hi into the tracer. The portions' local roots already name the
// harness span that caused them as their parent (X-Mist-Span).
func (f *fleet) collectSpans(tr *tracer, lo, hi int64) {
	if tr == nil {
		return
	}
	for _, id := range f.ids {
		rec := f.lc.Node(id).TraceRecorder()
		for _, td := range rec.Traces(traceFilter{}) {
			op, err := strconv.ParseInt(td.TraceID, 16, 64)
			if err != nil || op < lo || op > hi {
				continue
			}
			tr.adopt(op, td, "", "")
		}
	}
}

// fleetCounts is what both fleet workloads report about the fleet.
type fleetCounts struct {
	requests, rejected, forwards float64
}

func (c *fleetCounts) absorb(f *fleet) {
	c.requests += float64(f.requests.Load())
	c.rejected += float64(f.rejected.Load())
	c.forwards += f.forwards()
}

func (c fleetCounts) counters() map[string]float64 {
	if c.requests == 0 {
		return nil
	}
	return map[string]float64{
		"cluster.forward_share": c.forwards / c.requests,
		"serve.reject_ratio":    c.rejected / c.requests,
	}
}

func specBody(s serveSpec) []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return b
}

// checkTune checks a /tune answer (or a job's result) for r. cold says
// whether this op is the fingerprint's first touch: a first touch must
// have searched, anything later must have been served from a cache or a
// store. Either way the plan goes through the full output check.
func checkTune(chk *checker, r *resolved, resp *serveTuneResp, cold bool) error {
	if resp == nil {
		return fmt.Errorf("%s: no tune response", r.key)
	}
	reused := resp.Cached || resp.FromStore
	if cold && reused {
		return fmt.Errorf("%s: first touch was served from a cache", r.key)
	}
	if !cold && !reused {
		return fmt.Errorf("%s: repeat ran a fresh search", r.key)
	}
	_, err := chk.checkPlan(r, resp.Plan, resp.PredThroughput)
	return err
}

// checkSimulate checks a /simulate answer: the plan it tuned on demand
// passes the output check and the reported throughput is the engine's.
func checkSimulate(chk *checker, r *resolved, body []byte) error {
	var resp serveSimResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: simulate reply: %w", r.key, err)
	}
	if resp.OOM {
		return fmt.Errorf("%s: simulate says OOM", r.key)
	}
	m, err := chk.checkPlan(r, resp.TunedPlan, 0)
	if err != nil {
		return err
	}
	if resp.Throughput != m.Throughput {
		return fmt.Errorf("%s: simulate throughput %v, engine says %v", r.key, resp.Throughput, m.Throughput)
	}
	return nil
}

// ---------------------------------------------------------------- fleet-warm

// warmPool is fleet-warm's 24 fingerprints, tuned in set-up: three
// families × 2/4 GPUs × two batches × two sequence lengths, DeepSpeed
// space — cheap to search, so set-up stays short, and small in the eval
// registry, so /stats and /metrics (which walk it) cost what they cost
// on a service that mostly serves, not what twelve big search caches
// make them cost. The measured traffic never searches.
func warmPool(short bool) []serveSpec {
	var out []serveSpec
	for _, m := range []string{"gpt3-1.3b", "llama-1.3b", "falcon-1.3b"} {
		for _, g := range []int{2, 4} {
			for _, b := range []int{8, 16} {
				for _, seq := range []int{512, 1024} {
					out = append(out, serveSpec{Model: m, Platform: "l4", GPUs: g, Batch: b, Seq: seq, Space: "deepspeed"})
				}
			}
		}
	}
	if short {
		return out[:3]
	}
	return out
}

const (
	warmTune = iota
	warmSimulate
	warmStats
	warmMetrics
)

// Per batch and fingerprint: 360 /tune repeats and 32 /simulate
// repeats; per batch 96 /stats and 96 /metrics — 90/8/1/1 % of 9 600
// requests, about 200 ms of work for the two clients.
const (
	warmTunePerFP   = 360
	warmSimPerFP    = 32
	warmStatsPer    = 96
	warmMetricsPer  = 96
	warmBatchesPass = 4
	warmClients     = 2
)

type warmOp struct {
	kind, fp, node uint8
}

type warmInstance struct {
	seed   int64
	chk    *checker
	tr     *tracer
	f      *fleet
	pool   []*resolved
	bodies [][]byte
	// First verified reply per (kind, fingerprint): every later reply
	// must equal it byte for byte.
	ref     [2][]atomic.Pointer[[]byte]
	scale   int // divides the per-batch counts (-short)
	perPass int // batches per pass
}

func setupFleetWarm(seed int64, traceable, short bool) (instance, error) {
	f, err := newFleet(traceable)
	if err != nil {
		return nil, err
	}
	in := &warmInstance{seed: seed, chk: newChecker(), f: f, scale: 1, perPass: warmBatchesPass}
	if short {
		in.scale, in.perPass = 80, 1
	}
	if traceable {
		// One batch per pass keeps a traced pass's spans within spanCap.
		in.perPass = 1
	}
	for _, s := range warmPool(short) {
		r, err := resolve(s)
		if err != nil {
			return nil, err
		}
		in.pool = append(in.pool, r)
		in.bodies = append(in.bodies, specBody(s))
	}
	in.ref[warmTune] = make([]atomic.Pointer[[]byte], len(in.pool))
	in.ref[warmSimulate] = make([]atomic.Pointer[[]byte], len(in.pool))
	// Pre-fill: every fingerprint is searched once, through a different
	// ingress node each, and checked like any cold op.
	for i, r := range in.pool {
		code, body := f.do(i%fleetNodes, http.MethodPost, "/tune", in.bodies[i], 0, nil)
		if code != http.StatusOK {
			return nil, fmt.Errorf("fleet-warm pre-fill %s: status %d: %s", r.key, code, body)
		}
		var resp serveTuneResp
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, err
		}
		if err := checkTune(in.chk, r, &resp, true); err != nil {
			return nil, fmt.Errorf("fleet-warm pre-fill: %w", err)
		}
	}
	return in, nil
}

func (in *warmInstance) traceWith(tr *tracer) { in.tr = tr }
func (in *warmInstance) close()               { in.f.close() }

func (in *warmInstance) planThroughputs() map[string]float64 { return in.chk.throughputs() }

func (in *warmInstance) counters() map[string]float64 {
	var c fleetCounts
	c.absorb(in.f)
	return c.counters()
}

func (in *warmInstance) collectSpans(tr *tracer, lo, hi int64) { in.f.collectSpans(tr, lo, hi) }

func (in *warmInstance) scaled(n int) int { return max(1, n/in.scale) }

// ops of batch b of pass n: the fixed multiset, shuffled, with ingress
// nodes dealt round-robin from a seeded offset.
func (in *warmInstance) ops(n, b int) []warmOp {
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(n)*7919 + int64(b)*104729 + 29))
	var ops []warmOp
	for fp := range in.pool {
		for i := 0; i < in.scaled(warmTunePerFP); i++ {
			ops = append(ops, warmOp{kind: warmTune, fp: uint8(fp)})
		}
		for i := 0; i < in.scaled(warmSimPerFP); i++ {
			ops = append(ops, warmOp{kind: warmSimulate, fp: uint8(fp)})
		}
	}
	for i := 0; i < in.scaled(warmStatsPer); i++ {
		ops = append(ops, warmOp{kind: warmStats})
	}
	for i := 0; i < in.scaled(warmMetricsPer); i++ {
		ops = append(ops, warmOp{kind: warmMetrics})
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	off := rng.Intn(fleetNodes)
	for i := range ops {
		ops[i].node = uint8((i + off) % fleetNodes)
	}
	return ops
}

func (in *warmInstance) fingerprints(n int) []string {
	var out []string
	for b := 0; b < in.perPass; b++ {
		for _, o := range in.ops(n, b) {
			if o.kind == warmTune || o.kind == warmSimulate {
				out = append(out, in.pool[o.fp].key)
			}
		}
	}
	return out
}

func (in *warmInstance) pass(n int) []batch {
	var out []batch
	for b := 0; b < in.perPass; b++ {
		ops := in.ops(n, b)
		out = append(out, batch{ops: len(ops), run: func(log *opLog) {
			logs := make([]*opLog, warmClients)
			var wg sync.WaitGroup
			for c := 0; c < warmClients; c++ {
				logs[c] = newOpLog(len(ops)/warmClients + 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; i < len(ops); i += warmClients {
						in.issue(ops[i], logs[c])
					}
				}()
			}
			wg.Wait()
			for _, l := range logs {
				log.merge(l)
			}
		}})
	}
	return out
}

var warmPaths = [...]string{warmTune: "/tune", warmSimulate: "/simulate", warmStats: "/stats", warmMetrics: "/metrics"}

func (in *warmInstance) issue(o warmOp, log *opLog) {
	tr := in.tr
	op := tr.newOp()
	method, body := http.MethodGet, []byte(nil)
	if o.kind == warmTune || o.kind == warmSimulate {
		method, body = http.MethodPost, in.bodies[o.fp]
	}
	t0 := time.Now()
	root := tr.start(op, nil, "op")
	code, reply := in.f.request(tr, int(o.node), method, warmPaths[o.kind], body, op, root)
	root.end()
	log.done(t0, int(o.kind))
	if code != http.StatusOK {
		log.fail("%s via n%d: status %d: %.200s", warmPaths[o.kind], o.node+1, code, reply)
		return
	}
	switch o.kind {
	case warmStats:
		if len(reply) == 0 || reply[0] != '{' {
			log.fail("/stats: not a JSON object")
		}
	case warmMetrics:
		if !bytes.Contains(reply, []byte("mist_http_requests_total")) {
			log.fail("/metrics: request counter missing")
		}
	default:
		r := in.pool[o.fp]
		if first := in.ref[o.kind][o.fp].Load(); first != nil {
			if !bytes.Equal(*first, reply) {
				log.fail("%s %s: reply differs from the first reply for this fingerprint", warmPaths[o.kind], r.key)
			}
			return
		}
		var err error
		if o.kind == warmTune {
			var resp serveTuneResp
			if err = json.Unmarshal(reply, &resp); err == nil {
				err = checkTune(in.chk, r, &resp, false)
			}
		} else {
			err = checkSimulate(in.chk, r, reply)
		}
		if err != nil {
			log.fail("%v", err)
			return
		}
		cp := append([]byte(nil), reply...)
		in.ref[o.kind][o.fp].Store(&cp)
	}
}

// --------------------------------------------------------------- fleet-mixed

const (
	mixCold = iota
	mixRepeat
	mixSimulate
	mixJob
	mixJobsList
	mixStats
)

// One batch of fleet-mixed: 120 ops — 25 % cold /tune on fingerprints of
// its own, 35 % repeats and 15 % /simulate of those same fingerprints,
// 15 % async jobs on further fresh fingerprints, 5 % GET /jobs, 5 %
// /stats. Every batch has this mix, so batches are repeated
// measurements of one quantity; a round is five of them on a fresh
// fleet.
var mixPerBatch = [...]int{mixCold: 30, mixRepeat: 42, mixSimulate: 18, mixJob: 18, mixJobsList: 6, mixStats: 6}

const mixBatchesPerRound = 5

type mixOp struct {
	kind int
	fp   int // index into specs; -1 for ops that name no fingerprint
}

type mixInstance struct {
	seed      int64
	chk       *checker
	traceable bool
	tr        *tracer
	f         *fleet
	specs     []*resolved
	bodies    [][]byte
	batches   [][]mixOp // the fixed multiset, batch by batch
	dep       []int     // within a batch: index of the cold op an op repeats, or -1
	counts    fleetCounts
}

// mixSpecs are the distinct cheap fingerprints a round searches: three
// families × two batches × forty sequence lengths, 2 GPUs, DeepSpeed
// space.
func mixSpecs(n int) []serveSpec {
	var out []serveSpec
	for k := 0; len(out) < n; k++ {
		for _, m := range []string{"gpt3-1.3b", "llama-1.3b", "falcon-1.3b"} {
			for _, b := range []int{4, 8} {
				out = append(out, serveSpec{Model: m, Platform: "l4", GPUs: 2, Batch: b, Seq: 256 + 64*k, Space: "deepspeed"})
			}
		}
	}
	return out[:n]
}

func setupFleetMixed(seed int64, traceable, short bool) (instance, error) {
	in := &mixInstance{seed: seed, chk: newChecker(), traceable: traceable}
	nb, per := mixBatchesPerRound, mixPerBatch
	if short {
		nb = 1
		per = [...]int{mixCold: 4, mixRepeat: 5, mixSimulate: 2, mixJob: 2, mixJobsList: 1, mixStats: 1}
	}
	nCold, nJob := per[mixCold], per[mixJob]
	for _, s := range mixSpecs(nb * (nCold + nJob)) {
		r, err := resolve(s)
		if err != nil {
			return nil, err
		}
		in.specs = append(in.specs, r)
		in.bodies = append(in.bodies, specBody(s))
	}
	// Cold ops come first in a batch so every dependent op's dependency
	// has a lower index (orderWithDeps needs that).
	for b := 0; b < nb; b++ {
		var ops []mixOp
		var dep []int
		add := func(kind, fp, d int) {
			ops = append(ops, mixOp{kind, fp})
			dep = append(dep, d)
		}
		base := b * (nCold + nJob)
		for c := 0; c < nCold; c++ {
			add(mixCold, base+c, -1)
		}
		for j := 0; j < per[mixRepeat]; j++ {
			c := (j*7 + 3) % nCold
			add(mixRepeat, base+c, c)
		}
		for j := 0; j < per[mixSimulate]; j++ {
			c := (j*5 + 1) % nCold
			add(mixSimulate, base+c, c)
		}
		for j := 0; j < nJob; j++ {
			add(mixJob, base+nCold+j, -1)
		}
		for _, k := range []int{mixJobsList, mixStats} {
			for j := 0; j < per[k]; j++ {
				add(k, -1, -1)
			}
		}
		in.batches = append(in.batches, ops)
		in.dep = dep // the same template in every batch
	}
	f, err := newFleet(traceable)
	if err != nil {
		return nil, err
	}
	in.f = f
	return in, nil
}

func (in *mixInstance) traceWith(tr *tracer) { in.tr = tr }

func (in *mixInstance) close() {
	if in.f != nil {
		in.counts.absorb(in.f)
		in.f.close()
		in.f = nil
	}
}

func (in *mixInstance) planThroughputs() map[string]float64 { return in.chk.throughputs() }

func (in *mixInstance) counters() map[string]float64 {
	c := in.counts
	if in.f != nil {
		c.absorb(in.f)
	}
	return c.counters()
}

func (in *mixInstance) collectSpans(tr *tracer, lo, hi int64) {
	if in.f != nil {
		in.f.collectSpans(tr, lo, hi)
	}
}

// order is pass n's plan: the batches in a seeded order, each batch's
// ops in a seeded order that keeps a repeat after its cold op, and a
// seeded first ingress node.
func (in *mixInstance) order(n int) (batches []int, within [][]int, node int) {
	rng := passRand(in.seed, n)
	batches = rng.Perm(len(in.batches))
	for range batches {
		within = append(within, orderWithDeps(rng, in.dep))
	}
	return batches, within, rng.Intn(fleetNodes)
}

func (in *mixInstance) fingerprints(n int) []string {
	var out []string
	batches, within, _ := in.order(n)
	for i, b := range batches {
		for _, j := range within[i] {
			if fp := in.batches[b][j].fp; fp >= 0 {
				out = append(out, in.specs[fp].key)
			}
		}
	}
	return out
}

// pass is one round on a fresh fleet. The warm-up round runs on the
// fleet set-up booted; every later round boots its own, between rounds
// and outside any batch.
func (in *mixInstance) pass(n int) []batch {
	if n > 0 {
		in.close()
		in.chk.forgetPlans()
		f, err := newFleet(in.traceable)
		if err != nil {
			return []batch{{ops: 1, run: func(log *opLog) { log.fail("booting the fleet: %v", err) }}}
		}
		in.f = f
	}
	batches, within, node := in.order(n)
	var out []batch
	for i, b := range batches {
		ops, idx := in.batches[b], within[i]
		first := node + i*len(ops)
		out = append(out, batch{ops: len(ops), run: func(log *opLog) {
			for pos, j := range idx {
				in.issue(ops[j], (first+pos)%fleetNodes, log)
			}
		}})
	}
	return out
}

func (in *mixInstance) issue(o mixOp, node int, log *opLog) {
	f, tr := in.f, in.tr
	op := tr.newOp()
	t0 := time.Now()
	root := tr.start(op, nil, "op")
	done := func() {
		root.end()
		log.done(t0, o.kind)
	}
	switch o.kind {
	case mixCold, mixRepeat:
		r := in.specs[o.fp]
		code, reply := f.request(tr, node, http.MethodPost, "/tune", in.bodies[o.fp], op, root)
		done()
		if code != http.StatusOK {
			log.fail("/tune %s: status %d: %.200s", r.key, code, reply)
			return
		}
		var resp serveTuneResp
		err := json.Unmarshal(reply, &resp)
		if err == nil {
			err = checkTune(in.chk, r, &resp, o.kind == mixCold)
		}
		if err != nil {
			log.fail("%v", err)
		}
	case mixSimulate:
		r := in.specs[o.fp]
		code, reply := f.request(tr, node, http.MethodPost, "/simulate", in.bodies[o.fp], op, root)
		done()
		if code != http.StatusOK {
			log.fail("/simulate %s: status %d: %.200s", r.key, code, reply)
			return
		}
		if err := checkSimulate(in.chk, r, reply); err != nil {
			log.fail("%v", err)
		}
	case mixJob:
		in.issueJob(o, node, op, root, done, log)
	case mixJobsList:
		code, reply := f.request(tr, node, http.MethodGet, "/jobs", nil, op, root)
		done()
		var list serveJobsList
		if code != http.StatusOK {
			log.fail("GET /jobs: status %d", code)
		} else if err := json.Unmarshal(reply, &list); err != nil {
			log.fail("GET /jobs: %v", err)
		}
	case mixStats:
		code, reply := f.request(tr, node, http.MethodGet, "/stats", nil, op, root)
		done()
		var st serveStats
		if code != http.StatusOK {
			log.fail("/stats: status %d", code)
		} else if err := json.Unmarshal(reply, &st); err != nil {
			log.fail("/stats: %v", err)
		}
	}
}

// issueJob is the async path: submit, wait on the node that holds the
// job, read the result back over HTTP. No cancels, so the work is
// deterministic.
func (in *mixInstance) issueJob(o mixOp, node int, op int64, root *live, done func(), log *opLog) {
	f := in.f
	r := in.specs[o.fp]
	code, reply := f.request(in.tr, node, http.MethodPost, "/jobs", in.bodies[o.fp], op, root)
	var st serveJobStatus
	if code != http.StatusAccepted {
		done()
		log.fail("POST /jobs %s: status %d: %.200s", r.key, code, reply)
		return
	}
	if err := json.Unmarshal(reply, &st); err != nil {
		done()
		log.fail("POST /jobs %s: %v", r.key, err)
		return
	}
	holder := f.lc.Node(st.Node)
	if holder == nil {
		done()
		log.fail("POST /jobs %s: job held by unknown node %q", r.key, st.Node)
		return
	}
	sp := in.tr.start(op, root, "jobs.wait")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	fin, err := holder.WaitJob(ctx, st.ID)
	cancel()
	sp.end()
	if err != nil {
		done()
		log.fail("job %s: %v", st.ID, err)
		return
	}
	code, reply = f.request(in.tr, node, http.MethodGet, "/jobs/"+st.ID, nil, op, root)
	done()
	if fin.State != "done" {
		log.fail("job %s: state %s: %s", st.ID, fin.State, fin.Error)
		return
	}
	var got serveJobStatus
	if code != http.StatusOK {
		log.fail("GET /jobs/%s: status %d", st.ID, code)
		return
	}
	if err := json.Unmarshal(reply, &got); err != nil {
		log.fail("GET /jobs/%s: %v", st.ID, err)
		return
	}
	if err := checkTune(in.chk, r, got.Result, true); err != nil {
		log.fail("job %s: %v", st.ID, err)
	}
}
