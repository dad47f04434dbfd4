// Command mistload replays a named load scenario against the tuning
// service and prints a machine-readable JSON report (per-endpoint
// p50/p95/p99 latency, throughput, status-code counts) suitable for
// BENCH*.json trajectory tracking.
//
// The op stream is deterministic in (-scenario, -seed): the same pair
// replays the same request sequence, so two runs are comparable. Pick a
// target explicitly: a live server (-addr) or an in-process one
// (-inproc) built with the same -max-queue / -request-timeout knobs as
// mistserve — the zero-network way to measure the serving hot path.
//
// Cluster targets: -addr takes a comma-separated list of node URLs
// (ops round-robin across them), and -inproc -nodes N spins up an
// in-process N-node cluster wired over an in-memory transport. Three
// mid-run drills mirror the failure modes of an elastic fleet:
//
//	-kill  id@delay — node dies; survivors must keep answering its
//	                  fingerprints from replicated stores with zero 5xx
//	-join  id@delay — a fresh node joins the ring mid-run; ownership
//	                  moves, records migrate, no request may 5xx and no
//	                  fingerprint may be re-searched
//	-drain id@delay — a member leaves gracefully: it keeps serving by
//	                  forwarding, hands its records off, and the fleet
//	                  restores the replication factor
//
// After a join or drain drill the run settles repair and audits the
// elastic invariants (every fingerprint at exactly R live replicas,
// every record Version==1, searches == distinct fingerprints), failing
// the run on any violation.
//
// Examples:
//
//	mistload -scenario mixed -inproc -duration 5s -seed 1
//	mistload -scenario mixed -inproc -nodes 3 -duration 5s -seed 1
//	mistload -scenario mixed -inproc -nodes 3 -duration 5s -trace-sample 1
//	mistload -scenario mixed -inproc -nodes 3 -duration 5s -slo-config testdata/slo.json
//	mistload -scenario failover -inproc -nodes 3 -duration 6s -kill n2@3s
//	mistload -scenario elastic -inproc -nodes 3 -duration 7s -join n4@2s -drain n1@4s
//	mistload -scenario cold-storm -addr http://localhost:8080 -duration 30s -rate 50
//	mistload -scenario mixed -addr http://10.0.0.1:8080,http://10.0.0.2:8080 -duration 30s
//	mistload -list
//
// With -slo-config the run is also scored against a declarative SLO
// spec (DESIGN.md "slo: objectives, burn rates and the fleet fold"):
// the report gains an "slo" section with the client-side verdict per
// objective, in-process servers evaluate the same spec continuously
// (their fleet fold lands in "fleetHealth"), and a run that exhausts
// any error budget exits non-zero.
//
// Exit status: 0 on a clean run; 1 when the run saw server 5xx or
// transport errors (pass -allow-5xx to report them without failing),
// when the post-drill replication audit found a violation, when a
// -trace-sample run's span audit failed (a sampled op that published
// no root span, or a span left unfinished after the job tail drained),
// or when a -slo-config run exhausted an objective's error budget.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/load"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mistload: ")
	var (
		scenario    = flag.String("scenario", "mixed", "load scenario (see -list)")
		seed        = flag.Int64("seed", 1, "op-stream seed (same seed: same request sequence)")
		duration    = flag.Duration("duration", 5*time.Second, "how long to feed new requests")
		maxOps      = flag.Int("max-ops", 0, "stop after this many requests (0: duration-bound only)")
		concurrency = flag.Int("concurrency", 8, "parallel load workers")
		rate        = flag.Float64("rate", 0, "target arrival rate in req/s (0: unpaced)")
		addr        = flag.String("addr", "", "live server URL(s), comma-separated for a cluster (e.g. http://localhost:8080)")
		inproc      = flag.Bool("inproc", false, "run against an in-process server (required unless -addr is set)")
		nodes       = flag.Int("nodes", 1, "in-process cluster size (with -inproc; 1 = plain single server)")
		replicas    = flag.Int("replicas", 2, "in-process cluster replication factor")
		kill        = flag.String("kill", "", "kill an in-process node mid-run, as id@delay (e.g. n2@3s; needs -nodes > 1)")
		join        = flag.String("join", "", "join a fresh node to the in-process ring mid-run, as id@delay (e.g. n4@2s; needs -nodes > 1)")
		drain       = flag.String("drain", "", "drain an in-process node mid-run, as id@delay (e.g. n1@4s; needs -nodes > 1)")
		maxQueue    = flag.Int("max-queue", 0, "in-process server admission/job-queue bound (0: default 256)")
		reqTimeout  = flag.Duration("request-timeout", 0, "in-process server per-request deadline (0: none)")
		workers     = flag.Int("workers", 2, "in-process server job workers")
		out         = flag.String("out", "", "also write the JSON report to this file")
		allow5xx    = flag.Bool("allow-5xx", false, "do not fail the run on server 5xx responses")
		traceSample = flag.Int("trace-sample", 0, "stamp X-Mist-Trace on every Nth op, then audit spans and report per-phase latency (0: off; 1: every op)")
		traceSettle = flag.Duration("trace-settle", 2*time.Minute, "how long the trace audit waits for open spans (queued job tails) to drain")
		sloPath     = flag.String("slo-config", "", "JSON SLO spec: score the run against it (report gains an slo section; budget exhaustion fails the run) and attach it to in-process servers")
		list        = flag.Bool("list", false, "list scenarios and exit")
		version     = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("mistload " + serve.ReadBuildInfo().String())
		return
	}
	if *list {
		for _, name := range load.ScenarioNames() {
			fmt.Printf("%-16s %s\n", name, load.ScenarioDescription(name))
		}
		return
	}
	if *addr != "" && *inproc {
		log.Fatal("-addr and -inproc are mutually exclusive")
	}
	if *addr == "" && !*inproc {
		log.Fatal("choose a target: -inproc or -addr <url>")
	}
	if *nodes > 1 && !*inproc {
		log.Fatal("-nodes needs -inproc (point -addr at the live nodes instead)")
	}
	for flagName, v := range map[string]string{"-kill": *kill, "-join": *join, "-drain": *drain} {
		if v != "" && *nodes <= 1 {
			log.Fatalf("%s needs an in-process cluster (-inproc -nodes N)", flagName)
		}
	}
	// -max-ops means a count-bound run: the 5s -duration default would
	// silently truncate it on slow machines, breaking replay
	// comparability. An explicit -duration still acts as a cutoff.
	if *maxOps > 0 {
		durationSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "duration" {
				durationSet = true
			}
		})
		if !durationSet {
			*duration = 0
		}
	}

	var sloCfg *slo.Config
	if *sloPath != "" {
		cfg, err := slo.LoadConfig(*sloPath)
		if err != nil {
			log.Fatal(err)
		}
		sloCfg = &cfg
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := load.Options{
		Scenario:    *scenario,
		Seed:        *seed,
		Concurrency: *concurrency,
		Rate:        *rate,
		Duration:    *duration,
		MaxOps:      *maxOps,
		TraceSample: *traceSample,
		SLOConfig:   sloCfg,
	}
	// Extra options shared by both in-process paths. Servers only record
	// traces when built with a recorder — a ring well past the default
	// keeps the phase breakdown complete for short sampled runs — and
	// only evaluate SLOs when built with the spec.
	var serverTraceOpts []serve.Option
	if *traceSample > 0 {
		serverTraceOpts = append(serverTraceOpts, serve.WithTrace(trace.Options{Capacity: 4096}))
	}
	if sloCfg != nil && *inproc {
		serverTraceOpts = append(serverTraceOpts, serve.WithSLO(*sloCfg))
	}
	var (
		target load.Target
		// traceTargets are the per-node /debug/traces endpoints the trace
		// audit folds; nil skips the audit (a killed node's recorder dies
		// with it, taking its counters along).
		traceTargets []load.Target
		// healthTargets answer the post-run GET /cluster/health probe;
		// the first node that replies supplies the fleet verdict.
		healthTargets []load.Target
		traceLC       *serve.LocalCluster // in-proc cluster: re-list nodes post-run (a -join adds one)
		auditLC       *serve.LocalCluster // set for elastic (join/drain) drills
		// The exactly-R audit is only sound when every dead node's loss
		// has been declared: a killed member still in the ring keeps its
		// replica slots, so its keys legitimately sit at R-1 live copies
		// until a drain removes it (DESIGN.md "Failure modes"). A -kill without a
		// matching -drain of the same node therefore skips the audit.
		auditSound = true
	)
	switch {
	case *addr == "" && *nodes <= 1:
		s := serve.New(append([]serve.Option{
			serve.WithJobWorkers(*workers),
			serve.WithLimits(serve.Limits{MaxQueue: *maxQueue, RequestTimeout: *reqTimeout}),
		}, serverTraceOpts...)...)
		defer s.Close()
		target = load.NewHandlerTarget(s.Handler())
		traceTargets = []load.Target{target}
		healthTargets = traceTargets
		log.Printf("replaying %q in-process (seed %d, %v, %d workers)",
			*scenario, *seed, *duration, *concurrency)
	case *addr == "":
		serverOpts := append([]serve.Option{
			serve.WithJobWorkers(*workers),
			serve.WithLimits(serve.Limits{MaxQueue: *maxQueue, RequestTimeout: *reqTimeout}),
		}, serverTraceOpts...)
		lc, err := serve.NewLocalCluster(serve.LocalClusterOptions{
			Nodes:         *nodes,
			Replicas:      *replicas,
			ProbeInterval: 250 * time.Millisecond,
			// Background repair keeps migration overlapping the drill
			// itself; the post-run Settle only finishes the tail.
			RebalanceInterval: 500 * time.Millisecond,
			ServerOptions:     serverOpts,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer lc.Close()
		ids := lc.IDs()
		perNode := make([]load.Target, len(ids))
		for i, id := range ids {
			perNode[i] = load.NewHandlerTarget(lc.Handler(id))
		}
		healthTargets = perNode
		traceLC = lc
		mt, err := load.NewMultiTarget(perNode...)
		if err != nil {
			log.Fatal(err)
		}
		if *kill != "" {
			id, delay := parseDrill("-kill", *kill)
			if drainID, _ := drillTarget(*drain); drainID != id {
				auditSound = false
			}
			idx := -1
			for i, nid := range ids {
				if nid == id {
					idx = i
				}
			}
			if idx < 0 {
				log.Fatalf("-kill: unknown node %q (have %v)", id, ids)
			}
			time.AfterFunc(delay, func() {
				mt.Fail(idx)
				if err := lc.Kill(id); err != nil {
					log.Printf("kill %s: %v", id, err)
					return
				}
				log.Printf("killed node %s after %v; survivors must serve its fingerprints from replicas", id, delay)
			})
		}
		if *join != "" {
			id, delay := parseDrill("-join", *join)
			for _, nid := range ids {
				if nid == id {
					log.Fatalf("-join: node %q already in the cluster (have %v)", id, ids)
				}
			}
			auditLC = lc
			time.AfterFunc(delay, func() {
				if _, err := lc.Join(ctx, id); err != nil {
					log.Printf("join %s: %v", id, err)
					return
				}
				mt.Add(load.NewHandlerTarget(lc.Handler(id)))
				log.Printf("joined node %s after %v; ownership moves, repair migrates its records", id, delay)
			})
		}
		if *drain != "" {
			id, delay := parseDrill("-drain", *drain)
			auditLC = lc
			time.AfterFunc(delay, func() {
				if err := lc.Drain(ctx, id); err != nil {
					log.Printf("drain %s: %v", id, err)
					return
				}
				// The drained node stays in the rotation on purpose: it
				// must keep answering (by forwarding) with zero 5xx.
				log.Printf("drained node %s after %v; it keeps serving by forwarding while handing records off", id, delay)
			})
		}
		target = mt
		log.Printf("replaying %q against an in-process %d-node cluster (R=%d, seed %d, %v, %d workers)",
			*scenario, *nodes, *replicas, *seed, *duration, *concurrency)
	default:
		addrs := strings.Split(*addr, ",")
		client := &http.Client{Timeout: 2 * time.Minute}
		for _, a := range addrs {
			t, err := load.WithBase(client, strings.TrimSpace(a))
			if err != nil {
				log.Fatal(err)
			}
			traceTargets = append(traceTargets, t)
		}
		healthTargets = traceTargets
		// Ops carry a placeholder URL that each node target rebases.
		if len(addrs) == 1 {
			target = traceTargets[0]
		} else {
			mt, err := load.NewMultiTarget(traceTargets...)
			if err != nil {
				log.Fatal(err)
			}
			target = mt
		}
		log.Printf("replaying %q against %s (seed %d, %v, %d workers)",
			*scenario, *addr, *seed, *duration, *concurrency)
	}

	rep, err := load.Run(ctx, target, opts)
	if err != nil {
		log.Fatal(err)
	}
	var traceAuditErr error
	if *traceSample > 0 {
		if traceLC != nil {
			// Re-list the cluster: a -join drill added a node (and a
			// recorder) after the targets were first built.
			traceTargets = traceTargets[:0]
			for _, id := range traceLC.IDs() {
				traceTargets = append(traceTargets, load.NewHandlerTarget(traceLC.Handler(id)))
			}
		}
		switch {
		case *kill != "":
			log.Printf("skipping the trace audit: a killed node's recorder (and its span counters) died with it")
		case len(traceTargets) == 0:
			log.Printf("skipping the trace audit: no per-node debug targets")
		default:
			settleCtx, cancel := context.WithTimeout(context.Background(), *traceSettle)
			audit, phases, aerr := load.AuditTraces(settleCtx, traceTargets, rep.TracedOps)
			cancel()
			rep.TraceAudit = audit
			rep.Phases = phases
			traceAuditErr = aerr
		}
	}
	if sloCfg != nil && len(healthTargets) > 0 {
		hctx, hcancel := context.WithTimeout(context.Background(), 10*time.Second)
		fh, ferr := load.FetchFleetHealth(hctx, healthTargets)
		hcancel()
		if ferr != nil {
			// A live -addr fleet built without -slo-config answers 404;
			// the client-side score still stands on its own.
			log.Printf("skipping fleet health: %v", ferr)
		} else {
			rep.FleetHealth = fh
		}
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if traceAuditErr != nil {
		log.Fatalf("FAIL: %v", traceAuditErr)
	}
	if rep.TransportErrors > 0 {
		log.Fatalf("FAIL: %d transport errors", rep.TransportErrors)
	}
	if rep.Server5xx > 0 && !*allow5xx {
		log.Fatalf("FAIL: %d server 5xx responses", rep.Server5xx)
	}
	if auditLC != nil && !auditSound {
		log.Printf("skipping the elastic audit: -kill without draining the same node leaves its keys legitimately under-replicated until the loss is declared")
	}
	if auditLC != nil && auditSound {
		settleCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := auditLC.Settle(settleCtx, 3); err != nil {
			log.Fatalf("FAIL: settling repair: %v", err)
		}
		audit, err := auditLC.AuditReplication()
		if err != nil {
			log.Fatalf("FAIL: replication audit: %v", err)
		}
		if len(audit.Violations) > 0 {
			for _, v := range audit.Violations {
				log.Printf("audit violation: %s", v)
			}
			log.Fatalf("FAIL: %d elastic-invariant violations after the drill", len(audit.Violations))
		}
		log.Printf("elastic audit clean: epoch %d, %d fingerprints each on exactly %d of live members %v, %d searches total",
			audit.Epoch, audit.Fingerprints, min(audit.Replicas, len(audit.Live)), audit.Live, audit.SearchesRun)
	}
	if rep.SLO != nil && !rep.SLO.Met {
		var exhausted []string
		for _, st := range rep.SLO.Objectives {
			if st.State != slo.StateOK {
				exhausted = append(exhausted, fmt.Sprintf("%s (budget remaining %.3f)", st.Name, st.BudgetRemaining))
			}
		}
		log.Fatalf("FAIL: SLO error budget exhausted: %s", strings.Join(exhausted, ", "))
	}
}

// parseDrill parses the shared drill wire format id@delay (e.g.
// "n2@3s") used by -kill, -join, and -drain.
func parseDrill(flagName, s string) (string, time.Duration) {
	id, rest, ok := strings.Cut(s, "@")
	if !ok || id == "" {
		log.Fatalf("%s: want id@delay, got %q", flagName, s)
	}
	d, err := time.ParseDuration(rest)
	if err != nil || d < 0 {
		log.Fatalf("%s: bad delay in %q: %v", flagName, s, err)
	}
	return id, d
}

// drillTarget extracts the id of a drill spec without validating it
// ("" when the flag is unset or malformed — parseDrill reports those).
func drillTarget(s string) (string, bool) {
	id, _, ok := strings.Cut(s, "@")
	return id, ok
}
