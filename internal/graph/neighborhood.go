package graph

import "math/bits"

// NodeSet is a set of nodes of one graph, used to represent induced
// subgraphs such as d-neighbors without copying adjacency data: the
// matcher restricts its search to nodes in the set. It is a bitset —
// membership tests sit on the matcher's hottest path, and node IDs are
// dense by construction.
type NodeSet struct {
	bits []uint64
	n    int
}

// NewNodeSet returns an empty set.
func NewNodeSet() *NodeSet { return &NodeSet{} }

// Add inserts n into the set.
func (s *NodeSet) Add(n NodeID) {
	w := int(n) >> 6
	for w >= len(s.bits) {
		s.bits = append(s.bits, 0)
	}
	mask := uint64(1) << (uint(n) & 63)
	if s.bits[w]&mask == 0 {
		s.bits[w] |= mask
		s.n++
	}
}

// Contains reports whether n is in the set. A nil set contains every
// node, so a nil *NodeSet means "the whole graph".
func (s *NodeSet) Contains(n NodeID) bool {
	if s == nil {
		return true
	}
	w := int(n) >> 6
	if w >= len(s.bits) || n < 0 {
		return false
	}
	return s.bits[w]&(uint64(1)<<(uint(n)&63)) != 0
}

// Len reports the number of nodes in the set; a nil set has length -1 to
// signal "unbounded".
func (s *NodeSet) Len() int {
	if s == nil {
		return -1
	}
	return s.n
}

// Each calls fn for every node in the set, in ascending ID order. A nil
// set (meaning "every node") cannot be enumerated; Each on nil is a
// no-op, and callers that may hold a nil set must branch on it
// explicitly.
func (s *NodeSet) Each(fn func(NodeID)) {
	if s == nil {
		return
	}
	for w, word := range s.bits {
		for word != 0 {
			bit := word & (-word)
			idx := NodeID(w<<6 + bits.TrailingZeros64(bit))
			fn(idx)
			word ^= bit
		}
	}
}

// Union adds all nodes of other into s.
func (s *NodeSet) Union(other *NodeSet) {
	if other == nil {
		return
	}
	for len(s.bits) < len(other.bits) {
		s.bits = append(s.bits, 0)
	}
	s.n = 0
	for w := range s.bits {
		if w < len(other.bits) {
			s.bits[w] |= other.bits[w]
		}
		s.n += bits.OnesCount64(s.bits[w])
	}
}

// Clone returns a copy of the set. Cloning a nil set returns nil.
func (s *NodeSet) Clone() *NodeSet {
	if s == nil {
		return nil
	}
	c := &NodeSet{bits: make([]uint64, len(s.bits)), n: s.n}
	copy(c.bits, s.bits)
	return c
}

// Neighborhood computes the d-neighbor G^d of e (§4.1): the set of nodes
// within d hops of e, treating edges as undirected. The subgraph of G
// induced by this set is what EvalMR inspects instead of the whole of G
// (data locality: (G,Σ) ⊨ (e1,e2) iff (G1^d ∪ G2^d, Σ) ⊨ (e1,e2)).
func (g *Graph) Neighborhood(e NodeID, d int) *NodeSet {
	return g.NeighborhoodInto(NewNodeSet(), e, d)
}

// NeighborhoodInto is Neighborhood computed into set, which it empties
// first and returns. A bitset costs storage by the highest node ID it
// holds, not by its size, so a caller that computes neighborhoods at a
// steady rate reuses sets it owns instead of allocating in proportion
// to the graph for every one of them.
func (g *Graph) NeighborhoodInto(set *NodeSet, e NodeID, d int) *NodeSet {
	set.bits, set.n = set.bits[:0], 0
	set.Add(e)
	frontier := []NodeID{e}
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, n := range frontier {
			out, in := g.edges(n)
			for _, edge := range out {
				if !set.Contains(edge.To) {
					set.Add(edge.To)
					next = append(next, edge.To)
				}
			}
			for _, edge := range in {
				if !set.Contains(edge.To) {
					set.Add(edge.To)
					next = append(next, edge.To)
				}
			}
		}
		frontier = next
	}
	return set
}

// TriplesWithin counts the triples of G whose endpoints are both in set.
// It is used for reporting d-neighbor sizes in the optimization
// experiments.
func (g *Graph) TriplesWithin(set *NodeSet) int {
	if set == nil {
		return g.NumTriples()
	}
	n := 0
	set.Each(func(s NodeID) {
		for _, e := range g.Out(s) {
			if set.Contains(e.To) {
				n++
			}
		}
	})
	return n
}
