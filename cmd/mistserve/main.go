// Command mistserve runs the Mist tuning service: a concurrent HTTP/JSON
// API over the auto-tuner and the execution engine, with a plan cache
// keyed by (workload, cluster, space) so repeated requests are answered
// instantly, an async job queue for batch tuning, and (with -store-dir)
// a durable plan store that survives restarts. It shuts down gracefully
// on SIGINT/SIGTERM, draining in-flight tuning requests.
//
// Cluster mode comes in two flavors:
//
//   - static boot: -node-id + -peers name the full membership up front;
//   - elastic join: -node-id + -advertise + -join <peer-url> boots a
//     fresh node straight into a live cluster — it announces itself to
//     one seed peer, adopts the cluster's membership view, and the
//     background rebalancer pulls the records it now replicates.
//
// Members leave gracefully via `POST /cluster/drain {"id":"nX"}` on any
// live node: the ring shrinks, the drained node keeps serving (by
// forwarding) while it hands its records off, and repair restores the
// replication factor among the survivors. A dead member's loss is
// declared the same way: drain it.
//
// Example session:
//
//	mistserve -addr :8080 -store-dir /var/lib/mist/plans &
//	curl -s localhost:8080/tune -d '{"model":"gpt3-2.7b","gpus":4,"batch":32}'
//	curl -s localhost:8080/jobs -d '{"jobs":[{"model":"gpt3-2.7b","gpus":4,"batch":64},{"model":"gpt3-2.7b","gpus":8,"batch":64,"priority":1}]}'
//	curl -s localhost:8080/jobs/job-000001
//	curl -s localhost:8080/stats
//
// Elastic cluster session:
//
//	mistserve -addr :8081 -node-id n1 -peers 'n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082' &
//	mistserve -addr :8082 -node-id n2 -peers 'n1=http://127.0.0.1:8081,n2=http://127.0.0.1:8082' &
//	mistserve -addr :8083 -node-id n3 -advertise http://127.0.0.1:8083 -join http://127.0.0.1:8081 &
//	curl -s localhost:8081/cluster                      # epoch 1, three members
//	curl -s localhost:8082/cluster/drain -d '{"id":"n1"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served at -debug-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/slo"
	"repro/internal/store"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mistserve: ")
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		grace       = flag.Duration("grace", 30*time.Second, "graceful-shutdown drain timeout")
		storeDir    = flag.String("store-dir", "", "durable plan-store directory (empty: in-memory only)")
		workers     = flag.Int("workers", 0, "async job worker pool size (0: default 2)")
		maxInflight = flag.Int("max-inflight", 0, "concurrently executing requests per endpoint class (0: GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "admission wait-queue and async job-queue bound; overflow answers 429 (0: default 256)")
		reqTimeout  = flag.Duration("request-timeout", 0, "per-request deadline, propagated into running searches (0: none)")

		traceRing   = flag.Int("trace-ring", 256, "completed-trace ring capacity (GET /debug/traces)")
		traceSample = flag.Int("trace-sample", 0, "trace every Nth operation (1: all, 0: only requests arriving with X-Mist-Trace)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty: disabled)")

		nodeID    = flag.String("node-id", "", "cluster mode: this node's id (must appear in -peers, or pair with -join)")
		peers     = flag.String("peers", "", "cluster mode: full static membership as id=addr,id=addr (self included)")
		joinPeer  = flag.String("join", "", "cluster mode: boot by joining a live cluster through this peer URL (needs -node-id and -advertise)")
		advertise = flag.String("advertise", "", "cluster mode: the URL peers reach this node at (required with -join)")
		replicas  = flag.Int("replicas", 2, "cluster mode: replication factor R (owner + R-1 replicas per fingerprint)")
		probeIvl  = flag.Duration("probe-interval", 2*time.Second, "cluster mode: active health-probe interval (0: passive detection only)")
		rebalIvl  = flag.Duration("rebalance-interval", 15*time.Second, "cluster mode: anti-entropy repair cadence (0: kick-driven only)")

		sloPath = flag.String("slo-config", "", "JSON SLO spec: evaluate it continuously and serve verdicts at GET /slo and GET /cluster/health")

		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("mistserve " + serve.ReadBuildInfo().String())
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	opts := []serve.Option{
		serve.WithJobWorkers(*workers),
		// Request, forwarding, repair and SLO lines: structured
		// text on stderr, each carrying request=<id> (and trace=<id> when
		// sampled) as attributes. The lifecycle lines below stay on log.
		serve.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))),
		serve.WithLimits(serve.Limits{
			MaxInflight:    *maxInflight,
			MaxQueue:       *maxQueue,
			RequestTimeout: *reqTimeout,
		}),
		// The recorder is always attached: with -trace-sample 0 it only
		// records requests that arrive carrying X-Mist-Trace (a client or
		// upstream hop decided to trace), which is the near-free path.
		serve.WithTrace(trace.Options{
			Node:        *nodeID,
			Capacity:    *traceRing,
			SampleEvery: *traceSample,
		}),
	}
	if *sloPath != "" {
		cfg, err := slo.LoadConfig(*sloPath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("slo: %d objectives from %s (interval %dms), verdicts at GET /slo and GET /cluster/health",
			len(cfg.Objectives), *sloPath, cfg.IntervalMs)
		opts = append(opts, serve.WithSLO(cfg))
	}
	if *peers != "" && *joinPeer != "" {
		log.Fatal("-peers and -join are mutually exclusive (static boot vs elastic join)")
	}
	clusterMode := *peers != "" || *joinPeer != ""
	if clusterMode && *nodeID == "" {
		log.Fatal("cluster mode needs -node-id together with -peers or -join")
	}
	if *nodeID != "" && !clusterMode {
		log.Fatal("-node-id needs -peers or -join")
	}
	if *storeDir != "" || clusterMode {
		// Cluster mode always attaches a store (in-memory when no
		// directory is given): replication, failover, and anti-entropy
		// repair all move store records between nodes.
		st, err := store.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		if *storeDir != "" {
			if skipped := st.LoadSkipped(); skipped > 0 {
				log.Printf("plan store: skipped %d unreadable documents in %s", skipped, *storeDir)
			}
			log.Printf("plan store: %d plans loaded from %s", st.Len(), *storeDir)
		}
		opts = append(opts, serve.WithStore(st))
	}

	var (
		cl   *cluster.Cluster
		self cluster.Member // the joining node, with -join
	)
	switch {
	case *peers != "":
		members, err := cluster.ParsePeers(*peers)
		if err != nil {
			log.Fatal(err)
		}
		cl, err = cluster.New(cluster.Config{Self: *nodeID, Members: members, Replicas: *replicas})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("cluster mode: node %s in a %d-member ring (R=%d, probe every %v)",
			*nodeID, len(members), cl.ReplicationFactor(), *probeIvl)
	case *joinPeer != "":
		if *advertise == "" {
			log.Fatal("-join needs -advertise (the URL peers reach this node at)")
		}
		self = cluster.Member{ID: *nodeID, Addr: *advertise}
		var err error
		cl, err = cluster.New(cluster.Config{Self: *nodeID, Members: []cluster.Member{self}, Replicas: *replicas})
		if err != nil {
			log.Fatal(err)
		}
	}
	if cl != nil {
		opts = append(opts, serve.WithCluster(cl))
	}

	s := serve.New(opts...)
	if *debugAddr != "" {
		go func() {
			log.Printf("debug server on %s (GET /debug/pprof)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
	}
	// Listen before joining: a join's seed pushes the new view to the
	// joiner before adopting it, so the joiner must already answer.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, *grace) }()
	log.Printf("serving on %s (POST /tune /simulate /jobs, GET /jobs /cluster /cluster/events /cluster/health /slo /healthz /stats /metrics /debug/traces)", *addr)
	if *joinPeer != "" {
		join(ctx, s, cl, self, *joinPeer, *probeIvl)
	}
	if cl != nil {
		// The prober and the anti-entropy repairer: periodic passes plus
		// an immediate repair pass on every adopted membership change.
		// For a node booted with -join that is the join view's adoption,
		// and the pass pulls every record it now replicates from its
		// peers. Serve's Close ends both loops.
		s.StartPeerLoops(*probeIvl, *rebalIvl)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	log.Println("shut down cleanly")
}

// join admits a node booted with a single-member view into a live
// cluster through seed and adopts the view the seed answers with.
func join(ctx context.Context, s *serve.Server, cl *cluster.Cluster, self cluster.Member, seed string, probeIvl time.Duration) {
	jctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	view, err := cluster.JoinVia(jctx, &http.Client{Timeout: 10 * time.Second}, seed, self)
	cancel()
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cl.AdoptView(view); err != nil {
		log.Fatal(err)
	}
	log.Printf("cluster mode: node %s joined via %s -> epoch %d (%d members, R=%d)",
		self.ID, seed, view.Epoch, len(view.Members), cl.ReplicationFactor())
	// A join racing a concurrent membership change can lose the
	// equal-epoch tie-break: probe-driven view reconciliation then
	// converges this node onto a fleet view WITHOUT it (at the join epoch,
	// or later if more changes landed meanwhile), and it would otherwise
	// sit outside the ring forever. The disambiguation from an operator
	// drain is membership history: a drain of this node can only exist in
	// a view lineage that once INCLUDED it. So the watcher re-announces
	// exclusions for as long as the node has never been observed in-ring
	// (ProposeJoin is idempotent, so re-announcing an already-won join is
	// a no-op), treats any exclusion AFTER having been in-ring as a drain
	// that must stand, and retires once the node has been stably in-ring
	// for a few probe rounds (long enough for reconciliation to have
	// surfaced any divergence). A drain landing inside that short
	// stabilization window can be contested at most once — re-issue it.
	// The watcher is a tick loop on the server's clock, a no-op once
	// retired: Close ends it, and cancels a re-announce in flight.
	ivl := probeIvl
	if ivl <= 0 {
		// -probe-interval 0 runs no probe rounds (passive detection
		// only); the watcher still checks, at the flag's default pace.
		ivl = 2 * time.Second
	}
	retired, everInRing, inRingStreak := false, false, 0
	s.Every(2*ivl, func(ctx context.Context) {
		if retired {
			return
		}
		if cl.InRing() {
			everInRing = true
			inRingStreak++
			retired = inRingStreak >= 3
			return
		}
		inRingStreak = 0
		if everInRing {
			log.Printf("cluster mode: node %s excluded after having been in the ring (operator drain); standing down", self.ID)
			retired = true
			return
		}
		log.Printf("cluster mode: node %s lost its join race (view epoch %d excludes it); re-announcing via %s",
			self.ID, cl.Epoch(), seed)
		rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
		v, err := cluster.JoinVia(rctx, &http.Client{Timeout: 10 * time.Second}, seed, self)
		rcancel()
		if err != nil {
			log.Printf("cluster mode: re-join failed: %v", err)
			return
		}
		_, _ = cl.AdoptView(v)
	})
}
