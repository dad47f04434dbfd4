package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// statSeries is the one table behind "/stats is a view of /metrics":
// every scalar Stats field that has a series, the series, its type, and
// the label values a sample must carry to count toward the field. The
// README's Metrics section documents exactly these rows
// (TestStatsAndMetricsCannotDisagree cross-checks both).
var statSeries = []struct {
	field  string // Stats JSON key
	series string // /metrics family
	typ    string
	match  map[string][]string // label -> accepted values (nil: every sample)
}{
	{"tuneRequests", "mist_tune_requests_total", "counter", nil},
	{"simulateRequests", "mist_simulate_requests_total", "counter", nil},
	{"planCacheHits", "mist_plan_cache_hits_total", "counter", nil},
	{"tunesRun", "mist_tunes_run_total", "counter", nil},
	{"planCacheSize", "mist_plan_cache_size", "gauge", nil},
	{"planCacheEvictions", "mist_plan_cache_evictions_total", "counter", nil},
	{"evalCacheEntries", "mist_eval_cache_entries", "gauge", nil},
	{"evalCachePoints", "mist_eval_cache_points", "gauge", nil},
	{"evalCacheEvictions", "mist_eval_cache_evictions_total", "counter", nil},
	{"evalCachePointsRetired", "mist_eval_cache_points_retired_total", "counter", nil},
	{"storeSize", "mist_plan_store_size", "gauge", nil},
	{"storeHits", "mist_store_hits_total", "counter", nil},
	{"queueDepth", "mist_jobs_queue_depth", "gauge", nil},
	{"busyWorkers", "mist_jobs_busy_workers", "gauge", nil},
	{"rejected429", "mist_http_rejected_total", "counter", nil},
	{"rejected429", "mist_http_requests_total", "counter", map[string][]string{"code": {"429"}}},
	{"clusterForwards", "mist_cluster_forwards_total", "counter", nil},
	{"clusterForwardErrors", "mist_cluster_forward_errors_total", "counter", nil},
	{"clusterReplications", "mist_cluster_replications_total", "counter", map[string][]string{"outcome": {"ok"}}},
	{"clusterReplicationErrors", "mist_cluster_replications_total", "counter", map[string][]string{"outcome": {"error", "rejected"}}},
	{"clusterLocalFallbacks", "mist_cluster_local_fallbacks_total", "counter", nil},
	{"clusterRebalancePushed", "mist_cluster_rebalance_pushed_total", "counter", nil},
	{"clusterRebalancePulled", "mist_cluster_rebalance_pulled_total", "counter", nil},
	{"clusterRebalanceDropped", "mist_cluster_rebalance_dropped_total", "counter", nil},
	{"clusterRebalanceErrors", "mist_cluster_rebalance_errors_total", "counter", nil},
	{"clusterRecordFetches", "mist_cluster_record_fetches_total", "counter", nil},
	{"clusterRecordFetchHits", "mist_cluster_record_fetch_hits_total", "counter", nil},
}

// exposition is a parsed /metrics body.
type exposition struct {
	types   map[string]string // family -> TYPE
	samples []sample
}

type sample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)
	labelPair  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

func parseExposition(t *testing.T, body string) exposition {
	t.Helper()
	ex := exposition{types: map[string]string{}}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			if prev, dup := ex.types[f[2]]; dup {
				t.Errorf("family %s declared twice (%s, then %s)", f[2], prev, f[3])
			}
			ex.types[f[2]] = f[3]
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		s := sample{name: m[1], labels: map[string]string{}, value: v}
		for _, lp := range labelPair.FindAllStringSubmatch(m[2], -1) {
			s.labels[lp[1]] = lp[2]
		}
		ex.samples = append(ex.samples, s)
	}
	return ex
}

func (ex exposition) sum(series string, match map[string][]string) (total float64, found bool) {
next:
	for _, s := range ex.samples {
		if s.name != series {
			continue
		}
		for k, accepted := range match {
			ok := false
			for _, v := range accepted {
				ok = ok || s.labels[k] == v
			}
			if !ok {
				continue next
			}
		}
		total += s.value
		found = true
	}
	return total, found
}

// TestStatsAndMetricsCannotDisagree drives a 3-node fleet through every
// event the scalar /stats fields count — a forward, a replication, a
// second search, a 429, then behind a killed owner a failed replication, a
// failed forward and a store hit, a local fallback once both replicas
// are gone, and repair passes after the dead are drained and a node
// joins — then checks, node by node, that each field equals its series.
// The table is also the README's: a row it does not document fails
// here.
func TestStatsAndMetricsCannotDisagree(t *testing.T) {
	lc, err := NewLocalCluster(LocalClusterOptions{
		Nodes:         3,
		Replicas:      2,
		ServerOptions: []Option{WithLimits(Limits{MaxInflight: 1, MaxQueue: -1})},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	ctx := context.Background()
	spec := func(seq int) WorkloadSpec {
		return WorkloadSpec{Model: "gpt3-1.3b", GPUs: 2, Batch: 8, Seq: seq, Space: "deepspeed"}
	}
	replicaIDs := func(ws WorkloadSpec) []string {
		key, err := ws.CanonicalKey()
		if err != nil {
			t.Fatal(err)
		}
		return memberIDs(lc.Cluster("n1").Replicas(key))
	}
	tune := func(node string, ws WorkloadSpec, want int) TuneResponse {
		t.Helper()
		var resp TuneResponse
		if rec := do2(t, lc.Handler(node), http.MethodPost, "/tune", TuneRequest{WorkloadSpec: ws}, &resp); rec.Code != want {
			t.Fatalf("/tune seq %d via %s: %d %s, want %d", ws.Seq, node, rec.Code, rec.Body.String(), want)
		}
		return resp
	}

	// K1 enters at the one node outside its replica set: a forward there,
	// a search and a replication at the owner.
	k1 := spec(512)
	reps := replicaIDs(k1)
	owner, replica, outsider := reps[0], reps[1], ""
	for _, id := range lc.IDs() {
		if id != owner && id != replica {
			outsider = id
		}
	}
	tune(outsider, k1, http.StatusOK)

	// A neighbour owned by a holder of K1's record is a fresh search all
	// the same.
	seq := 640
	for replicaIDs(spec(seq))[0] == outsider {
		seq += 64
	}
	k2 := spec(seq)
	if resp := tune(replicaIDs(k2)[0], k2, http.StatusOK); resp.Cached || resp.FromStore {
		t.Fatalf("neighbour request was not answered by a fresh search: %+v", resp)
	}

	// A full admission gate refuses a direct request.
	gate := lc.Node(owner).tuneGate
	gate.slots <- struct{}{}
	tune(owner, spec(4096), http.StatusTooManyRequests)
	<-gate.slots

	// Owner killed, nobody has noticed yet: a key the surviving replica
	// owns with the dead node as its second replica fails to replicate;
	// the outsider's forward of K1 fails and the surviving replica
	// answers from its replicated store.
	if err := lc.Kill(owner); err != nil {
		t.Fatal(err)
	}
	seq = 1024
	for r := replicaIDs(spec(seq)); r[0] != replica || r[1] != owner; r = replicaIDs(spec(seq)) {
		seq += 64
	}
	tune(replica, spec(seq), http.StatusOK)
	if resp := tune(outsider, k1, http.StatusOK); !resp.FromStore {
		t.Fatalf("failover answer did not come from the replica's store: %+v", resp)
	}

	// Both replicas gone: the outsider serves K1 itself, and its
	// write-through replication finds nobody.
	if err := lc.Kill(replica); err != nil {
		t.Fatal(err)
	}
	tune(outsider, k1, http.StatusOK)

	// The dead are declared lost and a node joins: in a ring of two
	// everything is replicated on both, so the joiner's first pass pulls
	// the survivor's records and the survivor's pass offers them back.
	for _, dead := range []string{owner, replica} {
		if err := lc.Drain(ctx, dead); err != nil {
			t.Fatal(err)
		}
	}
	n4, err := lc.Join(ctx, "n4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n4.RebalanceOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if err := lc.Settle(ctx, 1); err != nil {
		t.Fatal(err)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	readmeLines := strings.Split(string(readme), "\n")
	documented := func(field, series string) bool {
		for _, line := range readmeLines {
			if strings.Contains(line, "`"+field+"`") && strings.Contains(line, "`"+series) {
				return true
			}
		}
		return false
	}

	fleet := map[string]float64{}
	for _, id := range lc.IDs() {
		raw, err := json.Marshal(lc.Node(id).Stats())
		if err != nil {
			t.Fatal(err)
		}
		var stats map[string]any
		if err := json.Unmarshal(raw, &stats); err != nil {
			t.Fatal(err)
		}
		rec := do2(t, lc.Handler(id), http.MethodGet, "/metrics", nil, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s /metrics: %d", id, rec.Code)
		}
		ex := parseExposition(t, rec.Body.String())
		for _, row := range statSeries {
			want, _ := stats[row.field].(float64)       // omitempty: absent is zero
			got, found := ex.sum(row.series, row.match) // a labelled family has no sample before its first event
			if got != want {
				t.Errorf("%s: /stats %s = %v but /metrics %s%v sums to %v", id, row.field, want, row.series, row.match, got)
			}
			if typ := ex.types[row.series]; found && typ != row.typ {
				t.Errorf("%s: %s has TYPE %q, want %q", id, row.series, typ, row.typ)
			}
			fleet[row.field] += want
		}
	}
	for _, row := range statSeries {
		if !documented(row.field, row.series) {
			t.Errorf("README's Metrics section has no row pairing `%s` with `%s`", row.field, row.series)
		}
	}
	// The burst must have moved every counter it claims to exercise, or
	// the equalities above are 0 == 0.
	for _, field := range []string{
		"tuneRequests", "tunesRun", "planCacheSize", "storeSize", "storeHits", "rejected429",
		"clusterForwards", "clusterForwardErrors", "clusterReplications", "clusterReplicationErrors",
		"clusterLocalFallbacks", "clusterRebalancePushed", "clusterRebalancePulled", "clusterRecordFetches",
	} {
		if fleet[field] == 0 {
			t.Errorf("the burst never moved %s", field)
		}
	}
}
