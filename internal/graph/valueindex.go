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
// Each value node holds its own lists, one per predicate of its
// in-edges, sorted by predicate: a lookup indexes the value and searches
// its few predicates, with no hash. The index is maintained with the
// adjacency, by the loaders and the write path alike (addTriple,
// removeTriple); it is never rebuilt. Posting lists are kept sorted by
// subject NodeID, so candidate generation intersects and unions them
// with merge-joins. A list is never mutated in place — insertion in the
// middle and removal both copy — so a list handed out by ValueSubjects
// stays valid across later mutations.

// posting is one posting list of a value node: the subjects of its
// in-edges labelled pred, ascending. It is never empty.
type posting struct {
	pred     PredID
	subjects []NodeID
}

// postingOf returns the position of p's list in v's table, or where it
// would go, and whether it is there.
func (g *Graph) postingOf(p PredID, v NodeID) (int, bool) {
	return slices.BinarySearchFunc(g.post[v], p, func(ps posting, p PredID) int { return cmp.Compare(ps.pred, p) })
}

// postInsert records subject s in the posting list of (p, v), keeping
// the list sorted by NodeID. The caller (addTriple) has already
// deduplicated the triple.
func (g *Graph) postInsert(p PredID, v, s NodeID) {
	i, ok := g.postingOf(p, v)
	if !ok {
		g.post[v] = slices.Insert(g.post[v], i, posting{pred: p})
	}
	ps := g.post[v][i].subjects
	j := sort.Search(len(ps), func(k int) bool { return ps[k] >= s })
	if j == len(ps) {
		// Append fast path: in-place growth is safe, handed-out slices
		// never see past their length.
		ps = append(ps, s)
	} else {
		grown := make([]NodeID, 0, len(ps)+1)
		grown = append(grown, ps[:j]...)
		grown = append(grown, s)
		ps = append(grown, ps[j:]...)
	}
	g.post[v][i].subjects = ps
	g.ob.PostingLen.Observe(int64(len(ps)))
}

// layOutPostings builds the index of a graph whose in-lists are laid
// out and whose index is empty (see layOut): the list of (p, v) is the
// subjects of v's in-edges labelled p, ascending, as postInsert keeps
// it. Each value's in-edges are copied and sorted by (predicate,
// subject) once; the subject lists, and each value's table of them,
// are cut, capacity equal to length, out of one array each, and the
// tables take the node table's spare capacity, as the adjacency does.
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
	g.post = make([][]posting, len(g.nodes), cap(g.nodes))
	lists, subjects := make([]posting, 0, keys), make([]NodeID, len(sorted))
	lo := 0
	for v, nd := range g.nodes {
		if nd.kind != ValueKind || len(g.in[v]) == 0 {
			continue
		}
		first := len(lists)
		for hi := lo + len(g.in[v]); lo < hi; {
			start, p := lo, sorted[lo].Pred
			for ; lo < hi && sorted[lo].Pred == p; lo++ {
				subjects[lo] = sorted[lo].To
			}
			lists = append(lists, posting{pred: p, subjects: subjects[start:lo:lo]})
		}
		g.post[v] = lists[first:len(lists):len(lists)]
	}
}

// postRemove erases s from the posting list of (p, v), and the list
// from v's table once it is empty.
func (g *Graph) postRemove(p PredID, v, s NodeID) {
	i, _ := g.postingOf(p, v)
	if ps := removeOne(g.post[v][i].subjects, s); len(ps) > 0 {
		g.post[v][i].subjects = ps
	} else {
		g.post[v] = slices.Delete(g.post[v], i, i+1)
	}
}

// ValueSubjects returns the posting list for (p, v): every subject
// entity s with the triple (s, p, v), where v is a value node, sorted
// by NodeID. It binary-searches v's table, one list per distinct
// predicate of v's in-edges, so it costs O(log k) for k such
// predicates, with k at most v's in-degree. The slice is owned by the
// graph and must not be modified; it is never mutated in place, so a
// list obtained before a removal keeps its pre-removal contents.
func (g *Graph) ValueSubjects(p PredID, v NodeID) []NodeID {
	if i, ok := g.postingOf(p, v); ok {
		return g.post[v][i].subjects
	}
	return nil
}

// EachValuePosting calls fn once per non-empty posting list, in
// ascending (value, predicate) order. The subjects slice is owned by
// the graph.
func (g *Graph) EachValuePosting(fn func(p PredID, v NodeID, subjects []NodeID)) {
	for v, ps := range g.post {
		for _, l := range ps {
			fn(l.pred, NodeID(v), l.subjects)
		}
	}
}
