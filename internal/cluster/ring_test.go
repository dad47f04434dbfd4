package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		// Shaped like real fingerprint keys, not random noise.
		keys[i] = fmt.Sprintf("gpt3-%d|l4|%d|%d|%d|true|mist", i%7, 2<<(i%5), 4+i%64, 256+16*i)
	}
	return keys
}

func ringOrFatal(t *testing.T, ids []string, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(ids, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func nodeIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	return ids
}

// Property: with enough virtual nodes, every member's share of a large
// key population stays within a constant factor of the fair share 1/N.
func TestRingLoadBalanceWithinBound(t *testing.T) {
	const keyCount = 20000
	keys := testKeys(keyCount)
	for _, n := range []int{2, 3, 5, 8} {
		r := ringOrFatal(t, nodeIDs(n), 200)
		counts := map[string]int{}
		for _, k := range keys {
			counts[r.Owner(k)]++
		}
		fair := float64(keyCount) / float64(n)
		for id, c := range counts {
			ratio := float64(c) / fair
			if ratio < 0.5 || ratio > 1.75 {
				t.Errorf("n=%d: member %s owns %d keys (%.2fx fair share), outside [0.5, 1.75]",
					n, id, c, ratio)
			}
		}
		if len(counts) != n {
			t.Errorf("n=%d: only %d members own keys", n, len(counts))
		}
	}
}

// Property: ring ownership shares (arc lengths) approximate 1/N and
// sum to 1 — the /cluster topology view of the same balance bound.
func TestRingOwnershipSharesSumToOne(t *testing.T) {
	r := ringOrFatal(t, nodeIDs(5), 200)
	shares := r.OwnershipShare()
	sum := 0.0
	for id, s := range shares {
		sum += s
		if s < 0.5/5 || s > 1.75/5 {
			t.Errorf("member %s ring share %.4f outside [%.4f, %.4f]", id, s, 0.5/5.0, 1.75/5.0)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
}

// Property: a member join moves only ~K/(N+1) keys, every moved key
// moves TO the joiner, and no key moves between surviving members —
// the defining consistency property of the ring.
func TestRingJoinMovesOnlyExpectedKeys(t *testing.T) {
	const keyCount = 20000
	keys := testKeys(keyCount)
	for _, n := range []int{2, 3, 7} {
		before := ringOrFatal(t, nodeIDs(n), 200)
		after := ringOrFatal(t, nodeIDs(n+1), 200) // joiner: n<n+1>
		joiner := fmt.Sprintf("n%d", n+1)
		moved := 0
		for _, k := range keys {
			a, b := before.Owner(k), after.Owner(k)
			if a == b {
				continue
			}
			moved++
			if b != joiner {
				t.Fatalf("n=%d: key moved %s -> %s, not to the joiner %s", n, a, b, joiner)
			}
		}
		expected := float64(keyCount) / float64(n+1)
		if float64(moved) > 2*expected {
			t.Errorf("n=%d: join moved %d keys, want <= 2x expected %.0f", n, moved, expected)
		}
		if moved == 0 {
			t.Errorf("n=%d: join moved no keys", n)
		}
	}
}

// Property: a member leave moves only the keys it owned, all other
// ownership is untouched.
func TestRingLeaveMovesOnlyDepartedKeys(t *testing.T) {
	const keyCount = 20000
	keys := testKeys(keyCount)
	ids := nodeIDs(5)
	before := ringOrFatal(t, ids, 200)
	departed := ids[2] // n3
	var survivors []string
	for _, id := range ids {
		if id != departed {
			survivors = append(survivors, id)
		}
	}
	after := ringOrFatal(t, survivors, 200)
	moved := 0
	for _, k := range keys {
		a, b := before.Owner(k), after.Owner(k)
		if a == departed {
			moved++
			if b == departed {
				t.Fatalf("departed member still owns %q", k)
			}
			continue
		}
		if a != b {
			t.Fatalf("key %q moved %s -> %s though neither is the departed %s", k, a, b, departed)
		}
	}
	expected := float64(keyCount) / 5
	if float64(moved) > 2*expected || moved == 0 {
		t.Errorf("leave moved %d keys, want ~%.0f (<= 2x)", moved, expected)
	}
}

// Replica sets are distinct, owner-first, deterministic, and capped at
// the member count.
func TestRingReplicas(t *testing.T) {
	r := ringOrFatal(t, nodeIDs(3), 64)
	for _, k := range testKeys(500) {
		reps := r.Replicas(k, 2)
		if len(reps) != 2 {
			t.Fatalf("want 2 replicas, got %v", reps)
		}
		if reps[0] != r.Owner(k) {
			t.Fatalf("replica set %v does not lead with owner %s", reps, r.Owner(k))
		}
		if reps[0] == reps[1] {
			t.Fatalf("duplicate members in replica set %v", reps)
		}
		if got := r.Replicas(k, 10); len(got) != 3 {
			t.Fatalf("replicas beyond membership: %v", got)
		}
		// Appending after a prefix dedups only the appended part.
		prefix := []string{"n1"}
		if got, want := r.appendReplicas(prefix, k, 10), append(prefix, r.Replicas(k, 10)...); !slices.Equal(got, want) {
			t.Fatalf("appendReplicas after %v = %v, want %v", prefix, got, want)
		}
	}
	if got := r.Replicas("anything", 0); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
}

// The ring is a pure function of (members, vnodes): two nodes given the
// same membership in different orders agree on every ownership
// decision — the property that lets the cluster route without any
// coordination.
func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	a := ringOrFatal(t, []string{"n1", "n2", "n3"}, 64)
	b := ringOrFatal(t, []string{"n3", "n1", "n2"}, 64)
	for _, k := range testKeys(1000) {
		ra, rb := a.Replicas(k, 2), b.Replicas(k, 2)
		if len(ra) != len(rb) || ra[0] != rb[0] || ra[1] != rb[1] {
			t.Fatalf("ring order disagreement for %q: %v vs %v", k, ra, rb)
		}
	}
}

func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 64); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", ""}, 64); err == nil {
		t.Error("empty member id accepted")
	}
	r, err := NewRing([]string{"a", "a", "b"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Members(); len(got) != 2 {
		t.Errorf("dedup failed: %v", got)
	}
	if r.VNodes() != DefaultVNodes {
		t.Errorf("vnodes %d, want default %d", r.VNodes(), DefaultVNodes)
	}
}
