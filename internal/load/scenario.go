// Package load is the deterministic load harness for the tuning
// service: seeded scenario generators that compose workload mixes from
// the model catalog into a replayable request stream, and a runner that
// replays the stream — against a live server or an in-process handler —
// recording per-endpoint latency histograms (p50/p95/p99), throughput,
// and status-code counts into a machine-readable report.
//
// Determinism contract: a Stream is a pure function of (scenario, seed).
// Two streams with the same pair emit byte-identical op sequences, so a
// load run is replayable and regressions are diffable. What is NOT
// deterministic is wall-clock interleaving under concurrency — the
// report aggregates are stable, the arrival order at the server is not.
package load

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
)

// OpKind names one request type in a scenario stream.
type OpKind string

// Op kinds map one-to-one onto service endpoints; OpJobCancel resolves
// its target job id at run time (see runner).
const (
	OpTune      OpKind = "tune"      // POST /tune
	OpSimulate  OpKind = "simulate"  // POST /simulate
	OpJobSubmit OpKind = "jobSubmit" // POST /jobs
	OpJobCancel OpKind = "jobCancel" // DELETE /jobs/{id}
	OpJobList   OpKind = "jobList"   // GET /jobs
	OpStats     OpKind = "stats"     // GET /stats
)

// Op is one replayable request: a kind plus the POST body (nil for
// GET/DELETE kinds).
type Op struct {
	Kind OpKind          `json:"kind"`
	Body json.RawMessage `json:"body,omitempty"`
}

// wireSpec mirrors the service's workload-spec wire format; fields
// marshal in declaration order, so op bodies are byte-stable.
type wireSpec struct {
	Model    string `json:"model"`
	GPUs     int    `json:"gpus"`
	Batch    int    `json:"batch"`
	Seq      int    `json:"seq,omitempty"`
	Space    string `json:"space,omitempty"`
	Priority int    `json:"priority,omitempty"`
}

func mustBody(v any) json.RawMessage {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("load: marshaling op body: %v", err))
	}
	return data
}

// warmPool is the small fixed spec set behind the warm/repeat paths:
// requests for these hit the plan cache (or coalesce) after first
// contact. Cheap specs keep an in-process run CPU-light.
var warmPool = []wireSpec{
	{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: 512, Space: "deepspeed"},
	{Model: "gpt3-1.3b", GPUs: 2, Batch: 4, Seq: 512, Space: "deepspeed"},
	{Model: "llama-1.3b", GPUs: 2, Batch: 8, Seq: 512, Space: "deepspeed"},
	{Model: "falcon-1.3b", GPUs: 2, Batch: 4, Seq: 512, Space: "deepspeed"},
}

// coldModels rotate through the cold-storm path; seq varies per op so
// every spec is a distinct plan-cache key (a fresh search).
var coldModels = []string{"gpt3-1.3b", "llama-1.3b", "falcon-1.3b"}

// shardPool is the fixed fingerprint set behind the cluster scenarios
// (failover, rebalance): big enough that a consistent-hash ring spreads
// ownership across a small cluster, small enough that every key is
// tuned early and the rest of the run exercises routed repeats.
var shardPool = func() []wireSpec {
	pool := append([]wireSpec(nil), warmPool...)
	for _, m := range coldModels {
		pool = append(pool,
			wireSpec{Model: m, GPUs: 2, Batch: 8, Seq: 640, Space: "deepspeed"},
			wireSpec{Model: m, GPUs: 2, Batch: 4, Seq: 768, Space: "deepspeed"},
		)
	}
	return pool
}()

// scenarioDef generates ops for one named profile. next receives the
// scenario's private rng and the 0-based op index.
type scenarioDef struct {
	name string
	desc string
	next func(rng *rand.Rand, i int) Op
}

// coldSeqSteps is how many distinct seq values the cold path cycles
// through (staying under the serving layer's 65536 cap); the full key
// space is len(coldModels) * 2 batches * coldSeqSteps distinct triples.
const coldSeqSteps = 4080

func coldTuneOp(_ *rand.Rand, i int) Op {
	// Every field derives from the op index, so the first
	// len(coldModels)*2*coldSeqSteps (~24k) cold ops are pairwise
	// distinct plan-cache keys — genuinely all search-path misses. (The
	// default 1024-entry plan cache evicts long before a key repeats,
	// so even wrapped runs stay miss-dominated.)
	spec := wireSpec{
		Model: coldModels[i%len(coldModels)],
		GPUs:  2,
		Batch: 4 * (1 + (i/len(coldModels))%2), // 4 or 8
		Seq:   256 + 16*((i/(2*len(coldModels)))%coldSeqSteps),
		Space: "deepspeed",
	}
	return Op{Kind: OpTune, Body: mustBody(spec)}
}

func warmTuneOp(rng *rand.Rand) Op {
	return Op{Kind: OpTune, Body: mustBody(warmPool[rng.Intn(len(warmPool))])}
}

func simulateOp(rng *rand.Rand) Op {
	// /simulate with no inline plan: tunes on demand through the plan
	// cache, then executes on the engine — repeats hit the cache.
	return Op{Kind: OpSimulate, Body: mustBody(warmPool[rng.Intn(len(warmPool))])}
}

func jobSubmitOp(rng *rand.Rand) Op {
	spec := warmPool[rng.Intn(len(warmPool))]
	// A few distinct seq values: some submissions dedup onto active
	// jobs, others enqueue fresh work.
	spec.Seq = 512 + 128*rng.Intn(4)
	spec.Priority = rng.Intn(4)
	return Op{Kind: OpJobSubmit, Body: mustBody(spec)}
}

var scenarios = []scenarioDef{
	{
		name: "cold-storm",
		desc: "distinct specs per request: every tune is a plan-cache miss (search hot path)",
		next: func(rng *rand.Rand, i int) Op { return coldTuneOp(rng, i) },
	},
	{
		name: "warm-repeat",
		desc: "small fixed spec pool: repeats hit the plan cache / coalesce onto in-flight searches",
		next: func(rng *rand.Rand, i int) Op { return warmTuneOp(rng) },
	},
	{
		name: "simulate-burst",
		desc: "execution-engine bursts via /simulate with on-demand tuning",
		next: func(rng *rand.Rand, i int) Op { return simulateOp(rng) },
	},
	{
		name: "job-churn",
		desc: "async submit/cancel/list churn against the bounded job pool",
		next: func(rng *rand.Rand, i int) Op {
			switch p := rng.Intn(100); {
			case p < 55:
				return jobSubmitOp(rng)
			case p < 80:
				return Op{Kind: OpJobCancel}
			case p < 90:
				return Op{Kind: OpJobList}
			default:
				return Op{Kind: OpStats}
			}
		},
	},
	{
		name: "failover",
		desc: "fixed fingerprint pool, tune-heavy: replay across a node kill — survivors must serve the dead node's keys from replicated stores without re-searching",
		next: func(rng *rand.Rand, i int) Op {
			// No job ops on purpose: job records are node-local, so a
			// mid-run kill would turn their lookups into expected 5xx
			// noise and mask real failover regressions.
			if rng.Intn(100) < 88 {
				return Op{Kind: OpTune, Body: mustBody(shardPool[rng.Intn(len(shardPool))])}
			}
			return Op{Kind: OpStats}
		},
	},
	{
		name: "rebalance",
		desc: "deterministic sweep over the shard pool: replayed before and after a membership change, only the moved keys' owners should differ",
		next: func(_ *rand.Rand, i int) Op {
			// Pure function of the op index (no rng): two replays cover
			// the same keys in the same order, so before/after runs are
			// directly comparable.
			if i%16 == 15 {
				return Op{Kind: OpStats}
			}
			return Op{Kind: OpTune, Body: mustBody(shardPool[i%len(shardPool)])}
		},
	},
	{
		name: "elastic",
		desc: "fixed fingerprint pool, tune-heavy: replay across join/drain membership changes — repair must keep every key at R live replicas with zero 5xx and no re-search",
		next: func(rng *rand.Rand, i int) Op {
			// Same shape as failover (and the same reason there are no
			// job ops: job records are node-local, so a drained or
			// killed holder would turn their lookups into expected
			// noise). The pool is tuned early; the rest of the run
			// exercises routing and repair across the membership
			// changes.
			if rng.Intn(100) < 88 {
				return Op{Kind: OpTune, Body: mustBody(shardPool[rng.Intn(len(shardPool))])}
			}
			return Op{Kind: OpStats}
		},
	},
	{
		name: "diurnal",
		desc: "day/night cycle keyed on op index: quiet stats-heavy troughs rise into warm+cold+simulate peaks and decay again: a slow demand swell",
		next: func(rng *rand.Rand, i int) Op {
			// Phase is a pure function of the op index: a 1000-op "day".
			// Demand composition shifts with the phase; the rng only
			// picks within the phase's mix, so two same-seed streams are
			// byte-identical.
			switch phase := i % 1000; {
			case phase < 250: // night: trickle of polling + warm repeats
				if rng.Intn(100) < 60 {
					return Op{Kind: OpStats}
				}
				return warmTuneOp(rng)
			case phase < 500: // morning ramp: warm-dominated, light cold
				switch p := rng.Intn(100); {
				case p < 60:
					return warmTuneOp(rng)
				case p < 75:
					return simulateOp(rng)
				case p < 85:
					return coldTuneOp(rng, i)
				default:
					return Op{Kind: OpStats}
				}
			case phase < 800: // midday peak: cold searches + simulation
				switch p := rng.Intn(100); {
				case p < 35:
					return coldTuneOp(rng, i)
				case p < 65:
					return warmTuneOp(rng)
				case p < 90:
					return simulateOp(rng)
				default:
					return Op{Kind: OpStats}
				}
			default: // evening decay
				if rng.Intn(100) < 70 {
					return warmTuneOp(rng)
				}
				return Op{Kind: OpStats}
			}
		},
	},
	{
		name: "flash-crowd",
		desc: "calm warm traffic, then a sudden cold-search storm, then recovery: a step-function overload and its tail",
		next: func(rng *rand.Rand, i int) Op {
			// A 900-op cycle: one third calm, one third storm, one third
			// recovery — all keyed on the op index so the storm hits at
			// the same instants on every same-seed replay.
			switch phase := i % 900; {
			case phase < 300: // calm: cache-friendly warm traffic
				if rng.Intn(100) < 85 {
					return warmTuneOp(rng)
				}
				return Op{Kind: OpStats}
			case phase < 600: // storm: every request a fresh search
				return coldTuneOp(rng, i)
			default: // recovery: back to warm, light polling
				if rng.Intn(100) < 80 {
					return warmTuneOp(rng)
				}
				return Op{Kind: OpStats}
			}
		},
	},
	{
		name: "mixed",
		desc: "production-shaped mix: warm+cold tunes, simulation, job churn, stats polling",
		next: func(rng *rand.Rand, i int) Op {
			switch p := rng.Intn(100); {
			case p < 30:
				return warmTuneOp(rng)
			case p < 40:
				return coldTuneOp(rng, i)
			case p < 65:
				return simulateOp(rng)
			case p < 85:
				return jobSubmitOp(rng)
			case p < 92:
				return Op{Kind: OpJobCancel}
			case p < 96:
				return Op{Kind: OpJobList}
			default:
				return Op{Kind: OpStats}
			}
		},
	},
}

func scenarioByName(name string) (scenarioDef, error) {
	for _, s := range scenarios {
		if s.name == name {
			return s, nil
		}
	}
	return scenarioDef{}, fmt.Errorf("load: unknown scenario %q (have %v)", name, ScenarioNames())
}

// ScenarioNames lists the available scenarios, sorted.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.name
	}
	sort.Strings(out)
	return out
}

// ScenarioDescription returns the one-line description of a scenario
// ("" for unknown names).
func ScenarioDescription(name string) string {
	for _, s := range scenarios {
		if s.name == name {
			return s.desc
		}
	}
	return ""
}

// Stream is a deterministic op source: the same (scenario, seed) pair
// always yields the same sequence. Next is not safe for concurrent use —
// the runner serializes generation on its feeder goroutine, which is
// exactly what keeps the emitted sequence deterministic.
type Stream struct {
	scen scenarioDef
	rng  *rand.Rand
	n    int
}

// NewStream builds the op stream for a named scenario.
func NewStream(scenario string, seed int64) (*Stream, error) {
	scen, err := scenarioByName(scenario)
	if err != nil {
		return nil, err
	}
	return &Stream{scen: scen, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next emits the next op in the sequence.
func (s *Stream) Next() Op {
	op := s.scen.next(s.rng, s.n)
	s.n++
	return op
}
