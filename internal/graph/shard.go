package graph

import (
	"sync"
	"sync/atomic"
)

// This file holds the shard layout of the store. The graph is
// partitioned by node ID into a fixed number of shards: node n lives in
// shard n mod ShardCount at local index n div ShardCount, so dense IDs
// stripe round-robin across shards and every shard's local table stays
// dense. Each shard owns, under one RWMutex:
//
//   - the node records of its nodes (kind, type, label, tombstone),
//   - their out- and in-adjacency,
//   - the triple set keyed by subject (a triple (s, p, o) lives in the
//     shard of s),
//   - the inverted value-index postings keyed by value node (the
//     posting list of (p, v) lives in the shard of v).
//
// Locking discipline: mutation runs through the planned write path of
// plan.go — admission and node reservation are serialized by the plan
// mutex, and a plan's execution is admitted only while no other
// execution overlaps its shard footprint, so at most one writer ever
// touches a given shard at a time. Writers with disjoint footprints
// execute concurrently; each takes a shard's write lock around its
// writes to that shard's data. Readers take only the read lock of the
// shard they touch, so readers of one shard run concurrently with a
// mutation of another — the old "no readers during mutation" contract
// is shard-local. The loader (AddTriple) reads its admitted endpoint
// shards without shard locks (admission excludes writers there;
// read/read is not a conflict). A reader observes each shard
// atomically, but an operation spanning shards (AddTriple touches the
// subject's and the object's shard) is visible shard by shard;
// cross-shard consistency is only guaranteed at the granularity the
// caller serializes (e.g. graphkeys.Matcher holds its own lock across
// ApplyDelta and fixpoint repair).
//
// The directory — the name maps shared by all shards (interned
// predicates and types, entity-ID and value-literal lookup, the
// per-type entity lists) — is guarded by its own RWMutex the same way.

const (
	shardBits = 5
	// ShardCount is the fixed number of shards the store is partitioned
	// into. It is a power of two so the shard of a node is a mask away.
	ShardCount = 1 << shardBits
)

// shard is one partition of the store. See the file comment for what
// lives where and for the locking discipline.
type shard struct {
	mu    sync.RWMutex
	nodes []node
	out   [][]Edge
	in    [][]Edge
	// triples holds the triples whose subject is in this shard.
	triples map[tripleKey]struct{}
	// post holds the value-index posting lists whose value node is in
	// this shard, each sorted by subject NodeID.
	post map[postKey][]NodeID
	// epoch counts data mutations of the shard's existing slots:
	// triple/adjacency/posting changes and tombstones, bumped under the
	// shard write lock in the same critical section as the mutation.
	// Appending a fresh slot (allocNode, reserveNode) does NOT bump it —
	// a slot nothing references yet cannot invalidate a read. The
	// optimistic planner (plan.go) records the epoch of every shard a
	// read-decision depended on and revalidates the set under the plan
	// mutex; loads outside the shard lock are fine because any mutation
	// since the recorded read must have bumped the counter.
	epoch atomic.Uint64
}

// shardIndex returns the shard holding node n.
func shardIndex(n NodeID) int { return int(uint32(n) & (ShardCount - 1)) }

// localIndex returns n's index within its shard's tables. The mapping
// (shard, local) -> local*ShardCount + shard is a bijection onto the
// dense ID space, so an out-of-range ID maps to an out-of-range local
// slot and panics like the flat slices did, never aliasing another
// node.
func localIndex(n NodeID) int { return int(uint32(n)) >> shardBits }

func (g *Graph) shardOf(n NodeID) *shard { return &g.shards[shardIndex(n)] }

// nodeView returns a copy of n's record, taking the shard read lock.
func (g *Graph) nodeView(n NodeID) node {
	sh := g.shardOf(n)
	sh.mu.RLock()
	nd := sh.nodes[localIndex(n)]
	sh.mu.RUnlock()
	return nd
}

// edges returns n's adjacency under one read lock. The slices are
// owned by the graph: never mutated in place, so they stay valid after
// the lock is released.
func (g *Graph) edges(n NodeID) (out, in []Edge) {
	sh := g.shardOf(n)
	l := localIndex(n)
	sh.mu.RLock()
	out, in = sh.out[l], sh.in[l]
	sh.mu.RUnlock()
	return out, in
}

// allocNode appends a node record, returning its dense ID. Caller
// holds the plan mutex (allocation is serialized, so dense IDs follow
// plan order). The ID is published (NumNodes moves past it) only
// after the shard tables contain it, so a reader that sees the new
// count always finds the slot.
func (g *Graph) allocNode(nd node) NodeID {
	id := NodeID(g.nNodes.Load())
	sh := g.shardOf(id)
	sh.mu.Lock()
	sh.nodes = append(sh.nodes, nd)
	sh.out = append(sh.out, nil)
	sh.in = append(sh.in, nil)
	sh.mu.Unlock()
	g.nNodes.Store(int32(id + 1))
	return id
}

// reserveNode appends nd as a dead (invisible) slot and returns its
// dense ID. Caller holds the plan mutex, so reservation order is plan
// order — which is what keeps node IDs deterministic in WAL log order
// even though the lowerings that make the slots live may finish out
// of order. The slot carries its final record (kind, type, label)
// from the start; lowering only flips dead off. A reservation
// whose delta later aborts (failed group fsync) stays dead forever: a
// hole in the dense ID space that no name resolves to, which the
// name-level text format renders invisibly.
func (g *Graph) reserveNode(nd node) NodeID {
	nd.dead = true
	return g.allocNode(nd)
}

// flipNode makes a reserved slot live. Runs at lowering, off the plan
// mutex; the slot's shard is covered by the delta's flight mask, and
// nothing resolves to the ID until the directory publishes it right
// after this.
func (g *Graph) flipNode(n NodeID) {
	sh := g.shardOf(n)
	sh.mu.Lock()
	sh.nodes[localIndex(n)].dead = false
	sh.mu.Unlock()
}
