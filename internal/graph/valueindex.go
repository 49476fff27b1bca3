package graph

import (
	"cmp"
	"slices"
	"sort"
)

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
// The index is maintained incrementally with the triple set, by the
// loaders and the write path alike (addTriple, removeTriple); it is
// never rebuilt. Posting lists are kept sorted by subject NodeID, so
// candidate generation intersects and unions them with merge-joins
// instead of hash probes. A list is never mutated in place — insertion
// in the middle and removal both copy — so a list handed out by
// ValueSubjects stays valid across later mutations.

// postKey identifies one posting list: a predicate plus the value node
// it points at.
type postKey struct {
	p PredID
	v NodeID
}

// postInsert records subject s in the posting list of (p, v), keeping
// the list sorted by NodeID. The caller (addTriple) has already
// deduplicated the triple.
func (g *Graph) postInsert(p PredID, v, s NodeID) {
	k := postKey{p, v}
	ps := g.post[k]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= s })
	if i == len(ps) {
		// Append fast path: in-place growth is safe, handed-out slices
		// never see past their length.
		ps = append(ps, s)
	} else {
		grown := make([]NodeID, 0, len(ps)+1)
		grown = append(grown, ps[:i]...)
		grown = append(grown, s)
		ps = append(grown, ps[i:]...)
	}
	g.post[k] = ps
	g.ob.PostingLen.Observe(int64(len(ps)))
}

// layOutPostings builds the index of a graph whose in-lists are laid
// out and whose index is empty (see layOut): the list of (p, v) is the
// subjects of v's in-edges labelled p, ascending, as postInsert keeps
// it. Each value's in-edges are copied and sorted by (predicate,
// subject) once; the lists are cut, capacity equal to length, out of
// one array, into a map made at its final size.
func (g *Graph) layOutPostings() {
	n := 0
	for v, nd := range g.nodes {
		if nd.kind == ValueKind {
			n += len(g.in[v])
		}
	}
	sorted, keys := make([]Edge, 0, n), 0
	for v, nd := range g.nodes {
		if nd.kind != ValueKind {
			continue
		}
		lo := len(sorted)
		sorted = append(sorted, g.in[v]...)
		seg := sorted[lo:]
		slices.SortFunc(seg, func(a, b Edge) int {
			if c := cmp.Compare(a.Pred, b.Pred); c != 0 {
				return c
			}
			return cmp.Compare(a.To, b.To)
		})
		for i := range seg {
			if i == 0 || seg[i].Pred != seg[i-1].Pred {
				keys++
			}
		}
	}
	g.post = make(map[postKey][]NodeID, keys)
	subjects := make([]NodeID, len(sorted))
	lo := 0
	for v, nd := range g.nodes {
		if nd.kind != ValueKind {
			continue
		}
		for hi := lo + len(g.in[v]); lo < hi; {
			start, p := lo, sorted[lo].Pred
			for ; lo < hi && sorted[lo].Pred == p; lo++ {
				subjects[lo] = sorted[lo].To
			}
			g.post[postKey{p, NodeID(v)}] = subjects[start:lo:lo]
		}
	}
}

// postRemove erases s from the posting list of (p, v).
func (g *Graph) postRemove(p PredID, v, s NodeID) {
	k := postKey{p, v}
	if ps := removeOne(g.post[k], s); len(ps) == 0 {
		delete(g.post, k)
	} else {
		g.post[k] = ps
	}
}

// ValueSubjects returns the posting list for (p, v): every subject
// entity s with the triple (s, p, v), where v is a value node, sorted
// by NodeID. The slice is owned by the graph and must not be modified;
// it is never mutated in place, so a list obtained before a
// removal keeps its pre-removal contents.
func (g *Graph) ValueSubjects(p PredID, v NodeID) []NodeID { return g.post[postKey{p, v}] }

// EachValuePosting calls fn once per non-empty posting list, in
// ascending (predicate, value) order. The subjects slice is owned by
// the graph.
func (g *Graph) EachValuePosting(fn func(p PredID, v NodeID, subjects []NodeID)) {
	keys := make([]postKey, 0, len(g.post))
	for k := range g.post {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b postKey) int {
		if c := cmp.Compare(a.p, b.p); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	for _, k := range keys {
		fn(k.p, k.v, g.post[k])
	}
}
