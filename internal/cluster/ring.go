// Package cluster turns the single-process LAKE and STREAM tiers into a
// replicated N-node service: a consistent-hash ring places topic
// partitions and tsdb stripes on nodes with replication factor RF,
// partition leaders replicate publishes to followers before committing
// (quorum-acked high watermark), the lake fans InsertBatch out to every
// stripe replica, and a scatter-gather router folds per-stripe query
// partials back together in the engine's fixed stripe order so clustered
// results are byte-identical to a single node. Nodes are in-process
// (each wraps its own broker + tsdb store), the inter-node transport is
// faultable (internal/faults: drop, delay, partition per directed link),
// and failover promotes the most-caught-up live follower — the shape the
// paper's multi-project collector/storage fleets need to lose a node
// without losing the hot tier.
//
// Placement hashes ring points and keys with FNV-1a mixed through
// murmur3's fmix64 finalizer (ringHash), so three nodes share the
// circle instead of one owning most of it.
//
// Write paths run one lane per node. PublishBatch locks the touched
// partitions in ascending order and resolves each one's leader and what
// it must stage; one lane per leader node stages its partitions (gate,
// broker append, WAL append) and ends in one WAL group sync
// (wal.SyncLogs); one lane per follower node ships its partitions'
// suffixes and ends in one group sync — one follower fsync per
// partition log per commit, and the ack counts only after it — and the
// router then commits partition by partition. InsertBatch runs one lane
// per replica node over the touched stripes the same way. With WALs
// the lanes run concurrently (a lone lane inline), without them in
// turn; each takes its work in ascending order, so every node's WAL
// hook sequence is the same in every run.
package cluster

import (
	"fmt"
	"sort"
)

// ringPoint is one virtual node on the hash circle.
type ringPoint struct {
	h    uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement walks
// clockwise from a key's hash collecting distinct nodes, so adding or
// removing one node only moves the keys adjacent to its points —
// join/leave rebalances touch a 1/N-ish slice of partitions, not all of
// them.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by h
	nodes  map[string]bool
}

// NewRing returns an empty ring with the given virtual-node count per
// member (default 64).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

// ringHash places ring points and keys: FNV-1a (the hash family the
// broker and lake stripe on) mixed through murmur3's 64-bit finalizer.
// Plain FNV-1a barely moves its high bits for names that differ only in
// their last bytes ("n1#0" … "n3#63"), so the points clustered on a
// fifth of the circle and one node owned most of it; the finalizer
// spreads every input bit over the whole word.
func ringHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node's virtual points. Re-adding is a no-op.
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{h: ringHash(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].h < r.points[j].h })
}

// Remove deletes a node's virtual points.
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Nodes returns the sorted member list.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owners returns up to rf distinct nodes for a key, walking clockwise
// from the key's hash. The first owner is the key's primary.
func (r *Ring) Owners(key string, rf int) []string {
	if len(r.points) == 0 || rf <= 0 {
		return nil
	}
	if rf > len(r.nodes) {
		rf = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	out := make([]string, 0, rf)
	seen := make(map[string]bool, rf)
	for i := 0; i < len(r.points) && len(out) < rf; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
