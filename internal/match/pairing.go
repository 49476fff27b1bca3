package match

import "graphkeys/internal/graph"

// This file implements the optimization machinery of §4.2: the pairing
// relation P^Q (Proposition 9), a necessary condition for a pair to be
// identified by a key, used both to filter the candidate set L and to
// shrink the d-neighbors (G1^d, G2^d) to the nodes that participate in
// the maximum pairing relation.

// nodePair is a pair (s1, s2) with s1 drawn from G1^d and s2 from G2^d.
type nodePair struct{ a, b graph.NodeID }

// Pairing is the maximum pairing relation of one key at one entity
// pair: for each pattern node q, the set of node pairs (s1, s2) such
// that (s1, s2, q) ∈ P^Q.
type Pairing struct {
	ck  *CompiledKey
	rel []map[nodePair]bool
}

// Paired reports whether (e1, e2, x) survived the fixpoint: the
// necessary condition of Proposition 9(a).
func (p *Pairing) Paired(e1, e2 graph.NodeID) bool {
	return p != nil && p.rel[p.ck.x][nodePair{e1, e2}]
}

// Nodes1 collects the G1-side nodes appearing anywhere in the relation;
// Nodes2 the G2-side nodes. These induce the reduced d-neighbors.
func (p *Pairing) Nodes1() *graph.NodeSet {
	out := graph.NewNodeSet()
	for _, m := range p.rel {
		for np := range m {
			out.Add(np.a)
		}
	}
	return out
}

// Nodes2 is the G2-side counterpart of Nodes1.
func (p *Pairing) Nodes2() *graph.NodeSet {
	out := graph.NewNodeSet()
	for _, m := range p.rel {
		for np := range m {
			out.Add(np.b)
		}
	}
	return out
}

// EachPair calls fn once per (s1, s2) occurrence in the relation (a
// pair bound at several pattern nodes is reported for each).
func (p *Pairing) EachPair(fn func(a, b graph.NodeID)) {
	if p == nil {
		return
	}
	for _, m := range p.rel {
		for np := range m {
			fn(np.a, np.b)
		}
	}
}

// Size returns the number of tuples in the relation.
func (p *Pairing) Size() int {
	n := 0
	for _, m := range p.rel {
		n += len(m)
	}
	return n
}

// ComputePairing builds the maximum pairing relation of ck at (e1, e2)
// over the d-neighbors (g1d, g2d) by greatest-fixpoint pruning: start
// from every locally compatible tuple and repeatedly delete tuples that
// lose edge support, as in Proposition 9(b). The result is nil if the
// key is unmatchable in this graph.
func (m *Matcher) ComputePairing(ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet) *Pairing {
	if !ck.matchable {
		return nil
	}
	g := m.G
	p := &Pairing{ck: ck, rel: make([]map[nodePair]bool, len(ck.nodes))}

	// Initialize with locally compatible tuples. For entity-like pattern
	// nodes we enumerate entities of the right type within each side;
	// for value variables, pairs of values with equal labels (equal
	// literals share a node, so (v, v) under exact equality); for
	// constants, the single constant node.
	for q, n := range ck.nodes {
		p.rel[q] = make(map[nodePair]bool)
		switch n.kind {
		case kDesignated, kEntityVar, kWildcard:
			side1 := typedEntitiesIn(g, g1d, n.typ)
			side2 := typedEntitiesIn(g, g2d, n.typ)
			for _, a := range side1 {
				for _, b := range side2 {
					p.rel[q][nodePair{a, b}] = true
				}
			}
		case kValueVar:
			// Candidate values are those adjacent (with the right
			// predicate) to something; enumerating all value pairs would
			// be wasteful and, under exact equality, only (v, v) pairs
			// qualify. With a custom ValueEq we fall back to scanning
			// value nodes in the two neighborhoods.
			if m.Opts.ValueEq == nil {
				addValuePairsExact(g, g1d, g2d, p.rel[q])
			} else {
				addValuePairsCustom(m, g1d, g2d, p.rel[q])
			}
		case kConst:
			c := n.constID
			if g1d.Contains(c) && g2d.Contains(c) {
				p.rel[q][nodePair{c, c}] = true
			}
		}
	}

	// Greatest fixpoint: delete tuples lacking support for some incident
	// pattern triple; iterate to stability.
	for changed := true; changed; {
		changed = false
		for q := range ck.nodes {
			for np := range p.rel[q] {
				if !m.pairingSupported(p, q, np, g1d, g2d) {
					delete(p.rel[q], np)
					changed = true
				}
			}
		}
	}
	return p
}

// typedEntitiesIn lists the entities of the given type inside the node
// set, iterating whichever side is cheaper (the set's members for a
// d-neighbor, the type index for a nil set meaning the whole graph).
func typedEntitiesIn(g *graph.Graph, set *graph.NodeSet, typ graph.TypeID) []graph.NodeID {
	if set == nil {
		return g.EntitiesOfType(typ)
	}
	var out []graph.NodeID
	set.Each(func(n graph.NodeID) {
		if g.IsEntityOfType(n, typ) {
			out = append(out, n)
		}
	})
	return out
}

func addValuePairsExact(g *graph.Graph, g1d, g2d *graph.NodeSet, rel map[nodePair]bool) {
	// Under exact equality, equal literals are one node; (v, v) with v
	// in both neighborhoods are the only candidates. Enumerate the
	// cheaper side (a nil set means the whole graph).
	small, other := g1d, g2d
	if small == nil {
		small, other = g2d, g1d
	}
	if small == nil {
		for i := 0; i < g.NumNodes(); i++ {
			if v := graph.NodeID(i); g.IsValue(v) {
				rel[nodePair{v, v}] = true
			}
		}
		return
	}
	small.Each(func(v graph.NodeID) {
		if g.IsValue(v) && other.Contains(v) {
			rel[nodePair{v, v}] = true
		}
	})
}

func addValuePairsCustom(m *Matcher, g1d, g2d *graph.NodeSet, rel map[nodePair]bool) {
	side1 := valueNodesIn(m.G, g1d)
	side2 := valueNodesIn(m.G, g2d)
	for _, a := range side1 {
		for _, b := range side2 {
			if m.Opts.valueEq(m.G.Label(a), m.G.Label(b)) {
				rel[nodePair{a, b}] = true
			}
		}
	}
}

func valueNodesIn(g *graph.Graph, set *graph.NodeSet) []graph.NodeID {
	var out []graph.NodeID
	if set == nil {
		for i := 0; i < g.NumNodes(); i++ {
			if v := graph.NodeID(i); g.IsValue(v) {
				out = append(out, v)
			}
		}
		return out
	}
	set.Each(func(v graph.NodeID) {
		if g.IsValue(v) {
			out = append(out, v)
		}
	})
	return out
}

// pairingSupported checks the edge-support condition of the pairing
// relation for tuple (np.a, np.b, q): every pattern triple incident to q
// must have at least one supporting edge pair whose other endpoint is
// still in the relation.
func (m *Matcher) pairingSupported(p *Pairing, q int, np nodePair, g1d, g2d *graph.NodeSet) bool {
	g := m.G
	for _, ti := range p.ck.incident[q] {
		t := p.ck.triples[ti]
		if t.subj == q {
			if !hasSupport(g, np.a, np.b, t.pred, true, g1d, g2d, p.rel[t.obj]) {
				return false
			}
		}
		if t.obj == q {
			if !hasSupport(g, np.a, np.b, t.pred, false, g1d, g2d, p.rel[t.subj]) {
				return false
			}
		}
	}
	return true
}

// hasSupport looks for edges (a, pred, o1) in G1^d and (b, pred, o2) in
// G2^d (outgoing == true; otherwise incoming) with (o1, o2) in rel.
func hasSupport(g *graph.Graph, a, b graph.NodeID, pred graph.PredID, outgoing bool, g1d, g2d *graph.NodeSet, rel map[nodePair]bool) bool {
	edges := func(n graph.NodeID) []graph.Edge {
		if outgoing {
			return g.Out(n)
		}
		return g.In(n)
	}
	for _, ea := range edges(a) {
		if ea.Pred != pred || !g1d.Contains(ea.To) {
			continue
		}
		for _, eb := range edges(b) {
			if eb.Pred != pred || !g2d.Contains(eb.To) {
				continue
			}
			if rel[nodePair{ea.To, eb.To}] {
				return true
			}
		}
	}
	return false
}

// QuickPaired is the x-local slice of the pairing condition, checked in
// O(deg(e1)+deg(e2)) before the full fixpoint: every pattern triple
// incident to x must have locally compatible support at both entities —
// a shared value for value variables, the constant edge for constants,
// a typed entity neighbor for entity-like nodes. It is a necessary
// condition for Paired and therefore for identification; on workloads
// dominated by hopeless same-type pairs it rejects almost all of L
// without ever building a pairing relation.
func (m *Matcher) QuickPaired(ck *CompiledKey, e1, e2 graph.NodeID) bool {
	if !ck.matchable {
		return false
	}
	g := m.G
	for _, ti := range ck.incident[ck.x] {
		t := ck.triples[ti]
		if t.subj == ck.x && t.obj == ck.x {
			if !g.HasTriple(e1, t.pred, e1) || !g.HasTriple(e2, t.pred, e2) {
				return false
			}
			continue
		}
		if t.subj == ck.x {
			if !m.quickEdge(e1, e2, t.pred, true, ck.nodes[t.obj]) {
				return false
			}
		}
		if t.obj == ck.x {
			if !m.quickEdge(e1, e2, t.pred, false, ck.nodes[t.subj]) {
				return false
			}
		}
	}
	return true
}

// quickEdge checks that both entities have a pred-edge (outgoing or
// incoming) compatible with the pattern node at the other end.
func (m *Matcher) quickEdge(e1, e2 graph.NodeID, pred graph.PredID, outgoing bool, n compiledNode) bool {
	g := m.G
	edges := func(e graph.NodeID) []graph.Edge {
		if outgoing {
			return g.Out(e)
		}
		return g.In(e)
	}
	switch n.kind {
	case kConst:
		// Constants are objects only (validated), so outgoing holds.
		return outgoing && g.HasTriple(e1, pred, n.constID) && g.HasTriple(e2, pred, n.constID)
	case kValueVar:
		if !outgoing {
			return false // values cannot be subjects
		}
		for _, ea := range g.Out(e1) {
			if ea.Pred != pred || !g.IsValue(ea.To) {
				continue
			}
			if m.Opts.ValueEq == nil {
				if g.HasTriple(e2, pred, ea.To) {
					return true
				}
				continue
			}
			for _, eb := range g.Out(e2) {
				if eb.Pred == pred && g.IsValue(eb.To) && m.Opts.valueEq(g.Label(ea.To), g.Label(eb.To)) {
					return true
				}
			}
		}
		return false
	default: // designated, entity variable, wildcard: typed existence
		has := func(e graph.NodeID) bool {
			for _, ed := range edges(e) {
				if ed.Pred == pred && g.IsEntityOfType(ed.To, n.typ) {
					return true
				}
			}
			return false
		}
		return has(e1) && has(e2)
	}
}

// CanBePaired reports whether (e1, e2) can be paired by at least one key
// defined on its type (Proposition 9(a)): if not, (G,Σ) ⊭ (e1, e2) and
// the pair can be dropped from L. The quick x-local filter runs first;
// the full fixpoint only for keys that survive it.
func (m *Matcher) CanBePaired(e1, e2 graph.NodeID) bool {
	t := m.G.TypeOf(e1)
	if m.G.TypeOf(e2) != t {
		return false
	}
	g1d, g2d := m.Neighborhood(e1), m.Neighborhood(e2)
	for _, ck := range m.byType[t] {
		if !m.QuickPaired(ck, e1, e2) {
			continue
		}
		if m.ComputePairing(ck, e1, e2, g1d, g2d).Paired(e1, e2) {
			return true
		}
	}
	return false
}

// ReducedNeighborhoods returns the d-neighbors of (e1, e2) shrunk to the
// nodes participating in the maximum pairing relation of some key at the
// pair (§4.2 "Reducing (G1d, G2d)"). paired is false when no key pairs
// the pair at all, in which case the pair cannot be identified.
func (m *Matcher) ReducedNeighborhoods(e1, e2 graph.NodeID) (r1, r2 *graph.NodeSet, paired bool) {
	t := m.G.TypeOf(e1)
	if m.G.TypeOf(e2) != t {
		return nil, nil, false
	}
	g1d, g2d := m.Neighborhood(e1), m.Neighborhood(e2)
	r1, r2 = graph.NewNodeSet(), graph.NewNodeSet()
	for _, ck := range m.byType[t] {
		if !m.QuickPaired(ck, e1, e2) {
			continue
		}
		p := m.ComputePairing(ck, e1, e2, g1d, g2d)
		if p.Paired(e1, e2) {
			paired = true
			r1.Union(p.Nodes1())
			r2.Union(p.Nodes2())
		}
	}
	if !paired {
		return nil, nil, false
	}
	return r1, r2, true
}
