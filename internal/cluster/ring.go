// Package cluster is the horizontal-scaling tier over internal/serve: a
// consistent-hash ring partitions the cluster keys across N dcta-server
// replicas, and a thin router resolves each request's cluster key
// (EnvironmentStore.NearestIndex of its signature) to its owning shard and
// proxies the request over persistent raw-HTTP connections. Membership comes
// from a SWIM gossip plane that every shard and the router run.
//
// The package splits into:
//
//   - ring.go       — the consistent-hash ring (virtual nodes, stable
//     FNV-1a placement) and the shard-map wire format served at /v1/cluster
//   - router.go     — the proxying front-end: membership with healthz
//     probing and liveness misses, failure-triggered ejection with
//     retry-on-survivor (requests degrade to the new owner's path, never
//     5xx), per-shard counters and the aggregate stats endpoint
//   - gossip.go     — the SWIM membership agent
//   - local.go      — an in-process N-shard + router topology used by the
//     tests and the benchmark's router_mixed workload
package cluster

import (
	"fmt"
	"math"
	"sort"
	"strconv"
)

// DefaultVNodes is the per-shard virtual-node count. 64 points per shard
// keeps the worst/best owned-fraction ratio under ~2 for small fleets while
// the ring stays tiny (3 shards = 192 points, one binary search per route).
const DefaultVNodes = 64

// fnv1a64 is the ring's placement hash: stable across processes, Go
// versions and architectures, so every node that knows the member list
// derives bit-identical ownership. Raw FNV-1a diffuses poorly into the
// high bits on short, similar strings ("s0#0".."s2#63" cluster badly
// enough to skew ownership 2:1), and ring placement orders by the full
// 64-bit value — so a finalizer mixes the bits before use.
func fnv1a64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// fmix64 finalizer: full avalanche so adjacent inputs land far apart.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// keyHash places a cluster key on the ring. Cluster keys are small dense
// store indices; hashing their decimal form spreads them uniformly.
func keyHash(key int) uint64 { return fnv1a64("k:" + strconv.Itoa(key)) }

type ringPoint struct {
	hash uint64
	node string
}

// Ring is an immutable consistent-hash ring: every mutation returns a new
// ring, so readers (the router's hot path) can hold a snapshot without
// locking. Two rings built over the same member set — in any insertion
// order, on any machine — resolve every key identically.
type Ring struct {
	nodes  []string // sorted member ids
	points []ringPoint
}

// NewRing builds a ring of vnodes virtual nodes per member. Node ids must
// be unique and non-empty.
func NewRing(vnodes int, nodes []string) (*Ring, error) {
	if vnodes < 1 {
		vnodes = DefaultVNodes
	}
	r := &Ring{}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	sort.Strings(r.nodes)
	r.points = make([]ringPoint, 0, len(r.nodes)*vnodes)
	for _, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{fnv1a64(n + "#" + strconv.Itoa(v)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A 64-bit collision between two nodes' points is astronomically
		// unlikely; break it by node id so resolution stays order-free.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Len is the member count.
func (r *Ring) Len() int { return len(r.nodes) }

// Owner resolves a cluster key to its owning node: the first ring point at
// or clockwise of the key's hash. An empty ring owns nothing ("").
func (r *Ring) Owner(key int) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].node
}

// OwnedFraction is the share of the hash space a node owns — the expected
// fraction of a large uniform key population routed to it.
func (r *Ring) OwnedFraction(node string) float64 {
	if len(r.nodes) == 1 {
		// A lone member's arcs sum to 2^64, which wraps to 0.
		if r.nodes[0] == node {
			return 1
		}
		return 0
	}
	if len(r.points) == 0 {
		return 0
	}
	var owned uint64
	prev := r.points[len(r.points)-1].hash
	for _, p := range r.points {
		if p.node == node {
			owned += p.hash - prev // wrapping subtraction: arcs are mod 2^64
		}
		prev = p.hash
	}
	return float64(owned) / math.MaxUint64
}

// ShardMap is the cluster tier's wire-level self-description: the ring
// parameters plus per-shard identity and liveness. The router serves it at
// GET /v1/cluster for operators to read; the live shards and VNodes are the
// inputs of the ring the router routes on (NewRing). Version guards the
// format.
type ShardMap struct {
	Version int         `json:"version"`
	VNodes  int         `json:"vnodes"`
	Shards  []ShardInfo `json:"shards"`
}

// ShardInfo is one shard's entry in the map.
type ShardInfo struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	Alive bool   `json:"alive"`
	// OwnedFraction is the share of the hash space the shard owns on the
	// live ring (0 while ejected).
	OwnedFraction float64 `json:"owned_fraction"`
	// RingPositions is the shard's virtual-node count on the live ring.
	RingPositions int `json:"ring_positions"`
}

// ShardMapVersion is the current wire version.
const ShardMapVersion = 1
