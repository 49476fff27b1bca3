package match

import (
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// This file implements procedure EvalMR of §4.1: the guided backtracking
// search that decides (G1^d ∪ G2^d, Eq, {Q(x)}) ⊨ (e1, e2) without
// enumerating all isomorphic mappings, with early termination at the
// first full instantiation (Lemma 8).

// pairSlot is one entry of the instantiation vector m: the pair of graph
// nodes a pattern node is bound to, or unset.
type pairSlot struct {
	a, b graph.NodeID
	set  bool
}

// evalState carries one in-progress guided search. The Injective
// feasibility condition is enforced by scanning the slot vector, which
// beats per-side hash sets for the small patterns keys are in practice
// (the paper observes real keys have radius 1–2 and a handful of
// triples) and keeps a check allocation-light — the engines run tens of
// thousands of checks per round.
type evalState struct {
	m     *Matcher
	ck    *CompiledKey
	g1d   *graph.NodeSet
	g2d   *graph.NodeSet
	eq    EqView
	slots []pairSlot
	// steps counts search-tree nodes visited, for the experiment
	// reports on redundant isomorphism checking.
	steps int
}

// IdentifiedByKey checks whether key ck identifies (e1, e2) given Eq,
// restricting the search for the match at e1 to g1d and at e2 to g2d
// (pass nil sets to search the whole graph). It reports the number of
// search steps taken.
func (m *Matcher) IdentifiedByKey(ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet, eq EqView) (ok bool, steps int) {
	if !ck.matchable {
		return false, 0
	}
	if m.G.TypeOf(e1) != m.G.TypeOf(e2) {
		return false, 0
	}
	xn := ck.nodes[ck.x]
	if m.G.TypeOf(e1) != xn.typ {
		return false, 0
	}
	if !g1d.Contains(e1) || !g2d.Contains(e2) {
		return false, 0
	}
	st := &evalState{
		m:     m,
		ck:    ck,
		g1d:   g1d,
		g2d:   g2d,
		eq:    eq,
		slots: make([]pairSlot, len(ck.nodes)),
	}
	st.bind(ck.x, e1, e2)
	// Self-loop triples on x have no later endpoint to trigger their
	// guided-expansion check, so verify them here.
	for _, ti := range ck.incident[ck.x] {
		t := ck.triples[ti]
		if t.subj == ck.x && t.obj == ck.x {
			if !m.G.HasTriple(e1, t.pred, e1) || !m.G.HasTriple(e2, t.pred, e2) {
				return false, 0
			}
		}
	}
	ok = st.search(1)
	return ok, st.steps
}

// witnessSearch runs the guided search for ck on (e1, e2) and returns
// the search state with slots still bound on success. It is the shared
// core of the witness- and provenance-harvesting checkers.
func (m *Matcher) witnessSearch(ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet, eq EqView) (st *evalState, ok bool) {
	if !ck.matchable || m.G.TypeOf(e1) != m.G.TypeOf(e2) || m.G.TypeOf(e1) != ck.nodes[ck.x].typ {
		return nil, false
	}
	if !g1d.Contains(e1) || !g2d.Contains(e2) {
		return nil, false
	}
	st = &evalState{
		m: m, ck: ck, g1d: g1d, g2d: g2d, eq: eq,
		slots: make([]pairSlot, len(ck.nodes)),
	}
	st.bind(ck.x, e1, e2)
	for _, ti := range ck.incident[ck.x] {
		t := ck.triples[ti]
		if t.subj == ck.x && t.obj == ck.x {
			if !m.G.HasTriple(e1, t.pred, e1) || !m.G.HasTriple(e2, t.pred, e2) {
				return st, false
			}
		}
	}
	return st, st.search(1)
}

// harvestRequires reads the pairs bound to the recursive entity
// variables off a successful search — the prerequisites that had to be
// in Eq for this identification. Reflexive pairs (same entity on both
// sides) are omitted; the rest are canonical (eqrel.MakePair), the form
// chase.Step.Requires keeps them in.
func (st *evalState) harvestRequires() (requires []eqrel.Pair) {
	for q, n := range st.ck.nodes {
		if q == st.ck.x || n.kind != kEntityVar {
			continue
		}
		s := st.slots[q]
		if s.a != s.b {
			requires = append(requires, eqrel.MakePair(int32(s.a), int32(s.b)))
		}
	}
	return requires
}

// harvestUses reads the graph triples the witness match used, on both
// sides, off a successful search: for every pattern triple (u, p, v)
// the instantiated triples (m(u).a, p, m(v).a) and (m(u).b, p, m(v).b).
// Duplicates (the two sides may share triples) are removed.
func (st *evalState) harvestUses() []graph.Triple {
	seen := make(map[graph.Triple]bool, 2*len(st.ck.triples))
	uses := make([]graph.Triple, 0, 2*len(st.ck.triples))
	for _, t := range st.ck.triples {
		s, o := st.slots[t.subj], st.slots[t.obj]
		for _, tr := range [2]graph.Triple{
			{S: s.a, P: t.pred, O: o.a},
			{S: s.b, P: t.pred, O: o.b},
		} {
			if !seen[tr] {
				seen[tr] = true
				uses = append(uses, tr)
			}
		}
	}
	return uses
}

// IdentifiedByKeyProvenance is IdentifiedByKey but also returns, on
// success, the witness match's provenance: the pairs bound to the
// recursive entity variables of the key — the prerequisites that had to
// be in Eq for this identification, reflexive pairs (same entity on
// both sides) omitted — and the graph triples the match used on either
// side. The incremental engine indexes chase steps by these triples so
// that removing a triple invalidates exactly the identifications whose
// proofs depend on it.
func (m *Matcher) IdentifiedByKeyProvenance(ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet, eq EqView) (ok bool, requires []eqrel.Pair, uses []graph.Triple, steps int) {
	st, ok := m.witnessSearch(ck, e1, e2, g1d, g2d, eq)
	if st == nil {
		return false, nil, nil, 0
	}
	if !ok {
		return false, nil, nil, st.steps
	}
	return true, st.harvestRequires(), st.harvestUses(), st.steps
}

// Identified checks whether any key defined on the type of (e1, e2)
// identifies the pair given Eq, within the two d-neighbors. It stops
// at the first identifying key (the keys for a type are ordered cheap
// first). It returns the identifying key, if any, and total steps.
func (m *Matcher) Identified(e1, e2 graph.NodeID, eq EqView) (ok bool, by *CompiledKey, steps int) {
	t := m.G.TypeOf(e1)
	if m.G.TypeOf(e2) != t {
		return false, nil, 0
	}
	g1d := m.Neighborhood(e1)
	g2d := m.Neighborhood(e2)
	for _, ck := range m.byType[t] {
		got, s := m.IdentifiedByKey(ck, e1, e2, g1d, g2d, eq)
		steps += s
		if got {
			return true, ck, steps
		}
	}
	return false, nil, steps
}

func (st *evalState) bind(q int, a, b graph.NodeID) {
	st.slots[q] = pairSlot{a: a, b: b, set: true}
}

func (st *evalState) unbind(q int) {
	st.slots[q] = pairSlot{}
}

// search instantiates the pattern node at order position pos and
// recurses; it returns true as soon as m is fully instantiated
// (early termination).
func (st *evalState) search(pos int) bool {
	if pos == len(st.ck.order) {
		return true
	}
	st.steps++
	q := st.ck.order[pos]
	ti := st.ck.anchor[pos]
	t := st.ck.triples[ti]

	// The anchor triple connects q to an instantiated node; enumerate
	// candidate pairs along it in both graphs.
	if t.subj == q {
		// (q, pred, other): candidates are in-neighbors of the other
		// endpoint's bindings.
		other := st.slots[t.obj]
		for _, ea := range st.m.G.In(other.a) {
			if ea.Pred != t.pred {
				continue
			}
			for _, eb := range st.m.G.In(other.b) {
				if eb.Pred != t.pred {
					continue
				}
				if st.feasible(q, ea.To, eb.To) {
					st.bind(q, ea.To, eb.To)
					if st.search(pos + 1) {
						return true
					}
					st.unbind(q)
				}
			}
		}
		return false
	}
	// (other, pred, q): candidates are out-neighbors.
	other := st.slots[t.subj]
	for _, ea := range st.m.G.Out(other.a) {
		if ea.Pred != t.pred {
			continue
		}
		for _, eb := range st.m.G.Out(other.b) {
			if eb.Pred != t.pred {
				continue
			}
			if st.feasible(q, ea.To, eb.To) {
				st.bind(q, ea.To, eb.To)
				if st.search(pos + 1) {
					return true
				}
				st.unbind(q)
			}
		}
	}
	return false
}

// feasible checks the three feasibility conditions of EvalMR for
// extending m with m[q] = (a, b).
func (st *evalState) feasible(q int, a, b graph.NodeID) bool {
	g := st.m.G
	// Containment in the d-neighbors (the search space is G1d ∪ G2d).
	if !st.g1d.Contains(a) || !st.g2d.Contains(b) {
		return false
	}
	// (1) Injective: a and b do not appear in m already, per side.
	for _, s := range st.slots {
		if s.set && (s.a == a || s.b == b) {
			return false
		}
	}
	// (2) Equality, by node kind.
	n := st.ck.nodes[q]
	switch n.kind {
	case kDesignated:
		return false // x is bound at initialization and never re-bound
	case kEntityVar:
		if !g.IsEntityOfType(a, n.typ) || !g.IsEntityOfType(b, n.typ) {
			return false
		}
		if !st.eq.Same(int32(a), int32(b)) {
			return false
		}
	case kValueVar:
		if !g.IsValue(a) || !g.IsValue(b) {
			return false
		}
		if !st.m.Opts.valueEq(g.Label(a), g.Label(b)) {
			return false
		}
	case kWildcard:
		if !g.IsEntityOfType(a, n.typ) || !g.IsEntityOfType(b, n.typ) {
			return false
		}
		// No identity requirement: that is the point of wildcards.
	case kConst:
		if !g.IsValue(a) || !g.IsValue(b) {
			return false
		}
		cv := g.Label(st.ck.nodes[q].constID)
		if !st.m.Opts.valueEq(g.Label(a), cv) || !st.m.Opts.valueEq(g.Label(b), cv) {
			return false
		}
	}
	// (3) Guided expansion: every pattern triple between q and an
	// already-instantiated node must exist in both graphs, within the
	// d-neighbors.
	for _, ti := range st.ck.incident[q] {
		t := st.ck.triples[ti]
		if t.subj == q && t.obj == q {
			// Self-loop pattern triple: verify immediately on binding.
			if !g.HasTriple(a, t.pred, a) || !g.HasTriple(b, t.pred, b) {
				return false
			}
			continue
		}
		if t.subj == q {
			if o := st.slots[t.obj]; o.set {
				if !g.HasTriple(a, t.pred, o.a) || !g.HasTriple(b, t.pred, o.b) {
					return false
				}
			}
		}
		if t.obj == q {
			if s := st.slots[t.subj]; s.set {
				if !g.HasTriple(s.a, t.pred, a) || !g.HasTriple(s.b, t.pred, b) {
					return false
				}
			}
		}
	}
	return true
}
