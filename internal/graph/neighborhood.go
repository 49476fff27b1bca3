package graph

import "slices"

// NodeSet is a set of nodes of one graph, used to represent induced
// subgraphs such as d-neighbors without copying adjacency data: the
// matcher restricts its search to nodes in the set. It is a sorted
// slice of distinct IDs, so a set costs storage and build time in
// proportion to its size, never to the graph's — d-neighbors hold a few
// dozen nodes of graphs with tens of thousands — and the membership
// test on the matcher's hottest path is a short binary search.
type NodeSet struct {
	ids []NodeID
}

// NewNodeSet returns an empty set.
func NewNodeSet() *NodeSet { return &NodeSet{} }

// Add inserts n into the set. Ascending insertion appends; any other
// order shifts the tail, so bulk construction goes through UnionSorted.
func (s *NodeSet) Add(n NodeID) {
	if i, found := slices.BinarySearch(s.ids, n); !found {
		s.ids = slices.Insert(s.ids, i, n)
	}
}

// Contains reports whether n is in the set. A nil set contains every
// node, so a nil *NodeSet means "the whole graph".
func (s *NodeSet) Contains(n NodeID) bool {
	if s == nil {
		return true
	}
	_, found := slices.BinarySearch(s.ids, n)
	return found
}

// Len reports the number of nodes in the set; a nil set has length -1 to
// signal "unbounded".
func (s *NodeSet) Len() int {
	if s == nil {
		return -1
	}
	return len(s.ids)
}

// Each calls fn for every node in the set, in ascending ID order. A nil
// set (meaning "every node") cannot be enumerated; Each on nil is a
// no-op, and callers that may hold a nil set must branch on it
// explicitly.
func (s *NodeSet) Each(fn func(NodeID)) {
	if s == nil {
		return
	}
	for _, n := range s.ids {
		fn(n)
	}
}

// UnionSorted merges two ascending duplicate-free lists into a new one.
func UnionSorted(a, b []NodeID) []NodeID {
	out := make([]NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Neighborhood computes the d-neighbor G^d of e (§4.1): the set of nodes
// within d hops of e, treating edges as undirected. The subgraph of G
// induced by this set is what EvalMR inspects instead of the whole of G
// (data locality: (G,Σ) ⊨ (e1,e2) iff (G1^d ∪ G2^d, Σ) ⊨ (e1,e2)).
// Each hop gathers the unseen neighbors of the previous one, sorts and
// compacts them once and merges them in.
func (g *Graph) Neighborhood(e NodeID, d int) *NodeSet {
	set := &NodeSet{ids: []NodeID{e}}
	frontier := set.ids
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, n := range frontier {
			out, in := g.edges(n)
			next = slices.Grow(next, len(out)+len(in))
			for _, edges := range [2][]Edge{out, in} {
				for _, edge := range edges {
					if !set.Contains(edge.To) {
						next = append(next, edge.To)
					}
				}
			}
		}
		slices.Sort(next)
		frontier = slices.Compact(next)
		set.ids = UnionSorted(set.ids, frontier)
	}
	return set
}
