package graph

import "sync"

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
// Locking discipline: every mutation runs under the graph's writer
// mutex (plan.go), so at most one writer touches the store at a time; it
// takes a shard's write lock around its writes to that shard's data.
// Readers take only the read lock of the shard they touch, so readers of
// one shard run concurrently with a mutation of another. The loader
// (AddTriple) reads its endpoint shards without shard locks (the writer
// mutex excludes every other writer; read/read is not a conflict). A
// reader observes each shard atomically, but an operation spanning
// shards (AddTriple touches the subject's and the object's shard) is
// visible shard by shard; cross-shard consistency is only guaranteed at
// the granularity the caller serializes (e.g. graphkeys.Matcher holds
// its own lock across ApplyDelta and fixpoint repair).
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
// holds the writer mutex (allocation is serialized, so dense IDs follow
// application order). The ID is published (NumNodes moves past it) only
// after the shard tables contain it, so a reader that sees the new
// count always finds the slot.
func (g *Graph) allocNode(nd node) NodeID {
	id := NodeID(g.nNodes.Load())
	sh := g.shardOf(id)
	sh.mu.Lock()
	sh.appendNode(nd)
	sh.mu.Unlock()
	g.nNodes.Store(int32(id + 1))
	return id
}

// appendNode appends a node record with no edges. Caller holds sh.mu.
func (sh *shard) appendNode(nd node) {
	sh.nodes = append(sh.nodes, nd)
	sh.out = append(sh.out, nil)
	sh.in = append(sh.in, nil)
}
