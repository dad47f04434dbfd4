// Package cluster is the sharded serving tier: N mistserve nodes form
// a static-membership ring, a consistent-hash ring (virtual nodes) over
// the canonical plan fingerprints assigns each fingerprint an owner
// plus R−1 replicas, non-owners transparently forward requests to the
// owner, and active health checking (ok/suspect/down) routes around
// dead peers. Together with the serving layer's plan-cache coalescing
// and the plan store's write-through replication, the ring gives the
// fleet cache locality: each unique workload fingerprint is tuned
// exactly once cluster-wide, and any replica can serve an owner's
// fingerprints from its own store after a failover.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// DefaultVNodes is the per-member virtual-node count of every ring a
// Cluster builds. It is a constant, not a setting: two nodes with
// different counts would name different owners for one key. It is
// enough points that member shares of the hash space concentrate near
// 1/N (stddev ~1/sqrt(vnodes) of the mean) without making ring
// construction or the replica walk expensive.
const DefaultVNodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a member.
type ringPoint struct {
	hash uint64
	id   string
}

// Ring is an immutable consistent-hash ring over a member set. Build
// with NewRing; lookups are safe for concurrent use.
type Ring struct {
	vnodes int
	ids    []string // sorted, deduplicated member ids
	points []ringPoint
}

// hash64 is the ring's point and key hash: FNV-64a (cheap, stateless,
// and stable across processes — every node computes the same ring)
// finished with a splitmix64 avalanche. The finalizer matters: raw FNV
// of near-identical short strings ("n1#0", "n1#1", ...) leaves the
// high bits correlated, which skews ring arcs far beyond the
// ~1/sqrt(vnodes) balance the vnode count is supposed to buy.
func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NewRing builds a ring with vnodes virtual nodes per member (values
// < 1 use DefaultVNodes). Member ids are deduplicated; at least one is
// required.
func NewRing(ids []string, vnodes int) (*Ring, error) {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	seen := map[string]bool{}
	uniq := make([]string, 0, len(ids))
	for _, id := range ids {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty member id")
		}
		if !seen[id] {
			seen[id] = true
			uniq = append(uniq, id)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{
		vnodes: vnodes,
		ids:    uniq,
		points: make([]ringPoint, 0, len(uniq)*vnodes),
	}
	for _, id := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(id + "#" + strconv.Itoa(v)),
				id:   id,
			})
		}
	}
	// Ties broken by id so the ring order is deterministic regardless of
	// member insertion order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].id < r.points[j].id
	})
	return r, nil
}

// Members returns the ring's member ids, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.ids...) }

// VNodes reports the per-member virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Owner returns the member owning a key: the first virtual node at or
// clockwise after the key's hash.
func (r *Ring) Owner(key string) string {
	reps := r.Replicas(key, 1)
	if len(reps) == 0 {
		return ""
	}
	return reps[0]
}

// Replicas returns up to n distinct members for a key, owner first,
// then successors walking the ring clockwise — the standard
// consistent-hashing replica set, so a member join/leave relocates only
// the keys whose arc it gained or lost.
func (r *Ring) Replicas(key string, n int) []string {
	if n <= 0 || len(r.points) == 0 {
		return nil
	}
	return r.appendReplicas(make([]string, 0, min(n, len(r.ids))), key, n)
}

// appendReplicas appends Replicas(key, n) to dst and returns the extended
// slice, so a caller with a buffer of its own allocates nothing.
func (r *Ring) appendReplicas(dst []string, key string, n int) []string {
	n = min(n, len(r.ids))
	if n <= 0 || len(r.points) == 0 {
		return dst
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	base := len(dst)
	for scanned := 0; scanned < len(r.points) && len(dst)-base < n; scanned++ {
		p := r.points[(start+scanned)%len(r.points)]
		if !slices.Contains(dst[base:], p.id) {
			dst = append(dst, p.id)
		}
	}
	return dst
}

// OwnershipShare reports the fraction of the hash space owned by each
// member (arc lengths of its virtual nodes); shares sum to 1. The
// /cluster topology endpoint exposes it so an operator can see balance
// without sampling keys.
func (r *Ring) OwnershipShare() map[string]float64 {
	out := make(map[string]float64, len(r.ids))
	if len(r.points) == 0 {
		return out
	}
	const space = float64(1<<63) * 2 // 2^64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		// Arc from the previous point (exclusive) to p (inclusive),
		// wrapping at the top of the hash space.
		arc := p.hash - prev // uint64 arithmetic wraps correctly
		out[p.id] += float64(arc) / space
		prev = p.hash
	}
	return out
}
