// Package oracle decides chase(G, Σ) of "Keys for Graphs" (Fan et al.,
// PVLDB 2015, §2–§3) straight from the definitions, as a reference for
// the engines that shares none of their code: keys come parsed from
// package keys, and everything after parsing is here.
//
// A match of a key Q(x) at an entity e is an injective map h of Q's
// nodes into G with h(x) = e that sends every pattern triple onto a
// triple of G and every node to a node it admits: an entity of the
// node's type for x, an entity variable or a wildcard; a value for a
// value variable; the constant's own value for a constant. Q identifies
// (e1, e2) under a relation Eq when some match h1 at e1 and h2 at e2
// agree on Q's variables: equal values on every value variable, a pair
// in Eq on every entity variable, nothing on a wildcard. Two values are
// equal when a given value equality says so (exact string equality by
// default), and a constant admits every value equal to it.
// chase(G, Σ) is the least relation closed under these
// identifications, and the oracle computes it the naive way: every pair
// of distinct same-type entities of a keyed type is checked by every
// key of its type against every match on either side, and a pass that
// identifies nothing ends it.
//
// Matches are found by plain backtracking over the whole graph, trying
// every node for every pattern node. The cost is exponential in the
// pattern and quadratic in the entities, which is fine at the sizes the
// tests feed it (tens of entities, a few thousand nodes).
package oracle

import (
	"cmp"
	"slices"

	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/pattern"
)

// Pair is an identified pair of distinct entities, with A < B.
type Pair struct{ A, B graph.NodeID }

// Chase returns chase(G, Σ): every pair of distinct live entities that
// the keys identify, sorted by (A, B). valueEq decides value equality;
// nil means exact string equality.
func Chase(g *graph.Graph, set *keys.Set, valueEq func(a, b string) bool) []Pair {
	if valueEq == nil {
		valueEq = func(a, b string) bool { return a == b }
	}
	o := &oracle{g: g, valueEq: valueEq, typ: make([]string, g.NumNodes())}
	byType := make(map[string][]graph.NodeID)
	for n := range o.typ {
		if t, ok := g.EntityType(graph.NodeID(n)); ok {
			o.typ[n] = g.TypeName(t)
			byType[o.typ[n]] = append(byType[o.typ[n]], graph.NodeID(n))
		}
	}
	// class[n] names n's class in Eq; a merge relabels one side.
	class := make([]graph.NodeID, g.NumNodes())
	for n := range class {
		class[n] = graph.NodeID(n)
	}
	same := func(a, b graph.NodeID) bool { return class[a] == class[b] }
	for changed := true; changed; {
		changed = false
		for _, t := range set.Types() {
			ents := byType[t]
			for i, e1 := range ents {
				for _, e2 := range ents[i+1:] {
					if same(e1, e2) || !o.identified(set.ForType(t), e1, e2, same) {
						continue
					}
					from := class[e2]
					for n := range class {
						if class[n] == from {
							class[n] = class[e1]
						}
					}
					changed = true
				}
			}
		}
	}
	var out []Pair
	for _, t := range set.Types() {
		ents := byType[t]
		for i, a := range ents {
			for _, b := range ents[i+1:] {
				if same(a, b) {
					out = append(out, Pair{a, b})
				}
			}
		}
	}
	slices.SortFunc(out, func(p, q Pair) int { return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B)) })
	return out
}

// oracle holds one graph, its value equality and its type names by
// node (empty for a value or a removed entity).
type oracle struct {
	g       *graph.Graph
	valueEq func(a, b string) bool
	typ     []string
}

// identified reports whether one of the keys identifies (e1, e2) under
// the relation same.
func (o *oracle) identified(ks []*keys.Key, e1, e2 graph.NodeID, same func(a, b graph.NodeID) bool) bool {
	for _, k := range ks {
		ms2 := o.matches(k, e2)
		for _, h1 := range o.matches(k, e1) {
			for _, h2 := range ms2 {
				if o.agree(k.Pattern, h1, h2, same) {
					return true
				}
			}
		}
	}
	return false
}

// agree reports whether matches h1 and h2 of p bind every value
// variable to equal values and every entity variable to a pair in Eq.
func (o *oracle) agree(p *pattern.Pattern, h1, h2 []graph.NodeID, same func(a, b graph.NodeID) bool) bool {
	for i, n := range p.Nodes {
		switch n.Kind {
		case pattern.ValueVar:
			if !o.valueEq(o.g.Label(h1[i]), o.g.Label(h2[i])) {
				return false
			}
		case pattern.EntityVar:
			if !same(h1[i], h2[i]) {
				return false
			}
		}
	}
	return true
}

// matches returns every match of k at e, each indexed by pattern node.
func (o *oracle) matches(k *keys.Key, e graph.NodeID) [][]graph.NodeID {
	p := k.Pattern
	// Bind x first, then each node after one it shares a triple with, so
	// that a triple is checked as soon as both its ends are bound.
	order := []int{p.X}
	for i := 0; i < len(order); i++ {
		for _, t := range p.Triples {
			for _, end := range [][2]int{{t.Subj, t.Obj}, {t.Obj, t.Subj}} {
				if end[0] == order[i] && !slices.Contains(order, end[1]) {
					order = append(order, end[1])
				}
			}
		}
	}
	h := make([]graph.NodeID, len(p.Nodes))
	for i := range h {
		h[i] = graph.NoNode
	}
	var ms [][]graph.NodeID
	var bind func(i int)
	bind = func(i int) {
		if i == len(order) {
			ms = append(ms, slices.Clone(h))
			return
		}
		q := order[i]
		for v := graph.NodeID(0); int(v) < o.g.NumNodes(); v++ {
			if !o.admits(p.Nodes[q], v) || slices.Contains(h, v) {
				continue
			}
			h[q] = v
			if o.triplesHold(p, q, h) {
				bind(i + 1)
			}
			h[q] = graph.NoNode
		}
	}
	if h[p.X] = e; o.admits(p.Nodes[p.X], e) && o.triplesHold(p, p.X, h) {
		bind(1)
	}
	return ms
}

// admits reports whether pattern node n may be bound to graph node v.
func (o *oracle) admits(n pattern.Node, v graph.NodeID) bool {
	switch n.Kind {
	case pattern.ValueVar:
		return o.g.IsValue(v)
	case pattern.Const:
		return o.g.IsValue(v) && o.valueEq(o.g.Label(v), n.Value)
	default:
		return o.typ[v] == n.Type
	}
}

// triplesHold reports whether every pattern triple between the newly
// bound node q and a bound node (q itself included) is a triple of G.
func (o *oracle) triplesHold(p *pattern.Pattern, q int, h []graph.NodeID) bool {
	for _, t := range p.Triples {
		if t.Subj != q && t.Obj != q || h[t.Subj] == graph.NoNode || h[t.Obj] == graph.NoNode {
			continue
		}
		pred, ok := o.g.PredByName(t.Pred)
		if !ok || !o.g.HasTriple(h[t.Subj], pred, h[t.Obj]) {
			return false
		}
	}
	return true
}
