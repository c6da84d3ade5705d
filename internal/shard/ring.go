// Package shard is the horizontal-scale serving tier: a router that
// speaks the wire protocol (internal/wire) on both sides — the shared
// session front end (internal/frontend) for clients and pooled client
// connections to N backend shard engines (plain recdb-server processes).
//
// Recommendation traffic partitions naturally by user id: the paper's
// workload is dominated by per-user statements (RECOMMEND ... WHERE uid
// = k, rating DML, point lookups on the user key), and the engine's own
// RecScoreIndex is already per-user. A consistent-hash ring over user
// ids sends each per-user statement to exactly one shard, preserving
// single-node latency, while aggregate throughput scales with shard
// count. Statements without a user key either replicate to every shard
// (DDL, model builds, writes to non-user tables) or scatter-gather with
// an ordered row merge at the router (cross-shard reads).
package shard

import (
	"fmt"
	"sort"
)

// vnodesPerShard is how many points each shard contributes to the ring.
// Enough replicas smooth the partition sizes to within a few percent;
// the count is fixed so a ring over N shards is the same function of
// user ids in every process that builds one.
const vnodesPerShard = 256

// Ring maps user ids onto shard indices by consistent hashing: each
// shard owns vnodesPerShard points on a 64-bit circle, and a user
// belongs to the shard owning the first point at or after the user's
// hash. Adding a shard moves only the keys that fall into its new
// arcs, which keeps resharding traffic proportional to 1/N.
//
// A Ring is immutable after New and safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring over n shards (n >= 1). The layout is a pure
// function of n, so every router over the same shard list routes every
// user identically.
func NewRing(n int) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: ring needs at least one shard, got %d", n)
	}
	r := &Ring{points: make([]ringPoint, 0, n*vnodesPerShard), shards: n}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(s, v), shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between shards would make the layout depend on
		// sort stability; break it deterministically by shard index.
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the number of shards on the ring.
func (r *Ring) Shards() int { return r.shards }

// Owner returns the shard index owning a user id.
func (r *Ring) Owner(user int64) int {
	h := userHash(user)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return r.points[i].shard
}

// Owners returns the distinct shard indices owning the given users, in
// ascending order — the fan-out set for a user IN (...) statement.
func (r *Ring) Owners(users []int64) []int {
	seen := make(map[int]bool, len(users))
	var out []int
	for _, u := range users {
		s := r.Owner(u)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// mix64 is the splitmix64 finalizer: a multiply-xorshift chain that
// avalanches every input bit. Ring inputs — user ids, shard and vnode
// indices — are small consecutive integers, and a byte-stream hash over
// their mostly-zero encodings strides them into clusters; full
// avalanche makes neighboring inputs land independently on the circle.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// userHash hashes a user id onto the ring circle.
func userHash(user int64) uint64 {
	return mix64(uint64(user) + 0x9e3779b97f4a7c15)
}

// pointHash places virtual node v of shard s on the circle, in a
// keyspace distinct from user hashes.
func pointHash(s, v int) uint64 {
	return mix64(uint64(s)<<32 ^ uint64(v) ^ 0x5bd1e9955bd1e995)
}
