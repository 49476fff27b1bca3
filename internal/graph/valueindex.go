package graph

import "sort"

// This file implements the persistent inverted value index: for every
// (predicate, value node) pair, the posting list of subject entities s
// with a triple (s, p, v) in G. Because equal literals are interned to
// one value node (§2.1 value equality), two entities carry the same
// (p, "lit") attribute iff they appear in the same posting list — the
// join that lets candidate generation (match.CandidateStream, and
// match.PartnerStream for the incremental engine) find same-value
// entity pairs
// without enumerating the quadratic per-type product.
//
// The index is maintained incrementally by the loaders (AddTriple,
// ParseText) and by the write path's posting micro-ops
// (applyShardOps); it is never rebuilt. Posting lists are sharded with
// their value node (the list for (p, v) lives in v's shard, guarded by
// that shard's lock) and kept sorted by subject NodeID, so candidate
// generation intersects and unions them with merge-joins instead of
// hash probes. A list is never mutated in place — insertion in the
// middle and removal both copy — so a list handed out by ValueSubjects
// stays valid across later mutations.

// postKey identifies one posting list: a predicate plus the value node
// it points at.
type postKey struct {
	p PredID
	v NodeID
}

// postInsert records subject s in the posting list of (p, v), keeping
// the list sorted by NodeID. The caller (addTriple) has already
// deduplicated the triple and holds the shard lock of v.
func postInsert(sh *shard, p PredID, v, s NodeID) {
	k := postKey{p, v}
	ps := sh.post[k]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= s })
	if i == len(ps) {
		// Append fast path: in-place growth is safe, handed-out slices
		// never see past their length.
		sh.post[k] = append(ps, s)
		return
	}
	grown := make([]NodeID, 0, len(ps)+1)
	grown = append(grown, ps[:i]...)
	grown = append(grown, s)
	sh.post[k] = append(grown, ps[i:]...)
}

// postRemove erases s from the posting list of (p, v). The caller
// holds the shard lock of v.
func postRemove(sh *shard, p PredID, v, s NodeID) {
	k := postKey{p, v}
	ps := removeOne(sh.post[k], s)
	if len(ps) == 0 {
		delete(sh.post, k)
	} else {
		sh.post[k] = ps
	}
}

// ValueSubjects returns the posting list for (p, v): every subject
// entity s with the triple (s, p, v), where v is a value node, sorted
// by NodeID. The slice is owned by the graph and must not be modified;
// it is never mutated in place, so a list obtained before a
// removal keeps its pre-removal contents.
func (g *Graph) ValueSubjects(p PredID, v NodeID) []NodeID {
	sh := g.shardOf(v)
	sh.mu.RLock()
	ps := sh.post[postKey{p, v}]
	sh.mu.RUnlock()
	return ps
}

// EachValuePosting calls fn once per non-empty posting list, in
// ascending (predicate, value) order within each shard. The subjects
// slice is owned by the graph. Each shard's lists are collected under
// that shard's read lock and emitted after it is released, so fn may
// call back into the graph.
func (g *Graph) EachValuePosting(fn func(p PredID, v NodeID, subjects []NodeID)) {
	type posting struct {
		k  postKey
		ps []NodeID
	}
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		batch := make([]posting, 0, len(sh.post))
		for k, ps := range sh.post {
			batch = append(batch, posting{k, ps})
		}
		sh.mu.RUnlock()
		sort.Slice(batch, func(i, j int) bool {
			if batch[i].k.p != batch[j].k.p {
				return batch[i].k.p < batch[j].k.p
			}
			return batch[i].k.v < batch[j].k.v
		})
		for _, b := range batch {
			fn(b.k.p, b.k.v, b.ps)
		}
	}
}
