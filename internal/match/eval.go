package match

import (
	"slices"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/pattern"
)

// This file implements procedure EvalMR of §4.1: the guided backtracking
// search that decides (G1^d ∪ G2^d, Eq, {Q(x)}) ⊨ (e1, e2) without
// enumerating all isomorphic mappings, with early termination at the
// first full instantiation (Lemma 8).
//
// The engines' checks search G itself, not G1^d ∪ G2^d: a match is a
// homomorphism of a connected pattern of radius d(Q, x) <= d, so every
// node it binds lies within d hops of its side's entity already (the
// package comment). Confining the search changes no verdict; it only
// costs the two sets. IdentifiedByKey still takes sets, for the reduced
// neighborhoods of §4.2 (emmr Opt) and the locality tests.
//
// EvalVC (§5.1) binds a pattern node under the same conditions, so its
// messages call Feasible, EvalMR's feasibility, on their own slot
// vectors (package emvc).

// Slot is one entry of the instantiation vector m: the pair of graph
// nodes a pattern node is bound to, or Unset.
type Slot struct{ A, B graph.NodeID }

// Unset is the slot of a pattern node not yet bound.
var Unset = Slot{graph.NoNode, graph.NoNode}

// evalState carries one in-progress guided search. The Injective
// feasibility condition is enforced by scanning the slot vector, which
// beats per-side hash sets for the small patterns keys are in practice
// (the paper observes real keys have radius 1–2 and a handful of
// triples). A check keeps the state and its slots in its own frame
// (slotBuf), so a check that fails allocates nothing; Eq travels as an
// argument, since an interface held in the state would move the slots
// to the heap.
type evalState struct {
	m     *Matcher
	ck    *CompiledKey
	g1d   *graph.NodeSet
	g2d   *graph.NodeSet
	slots []Slot
	// steps counts search-tree nodes visited, for the experiment
	// reports on redundant isomorphism checking.
	steps int
}

// slotBuf backs the slot vector of a pattern of up to len(slotBuf)
// nodes; real keys have a handful.
type slotBuf [16]Slot

// slots returns an unset slot vector for ck, in b when it fits.
func (b *slotBuf) slots(ck *CompiledKey) []Slot {
	var s []Slot
	if n := len(ck.nodes); n <= len(b) {
		s = b[:n]
	} else {
		s = make([]Slot, n)
	}
	for i := range s {
		s[i] = Unset
	}
	return s
}

// run decides whether ck identifies (e1, e2), with the match at e1
// confined to g1d and at e2 to g2d (nil = the whole graph); on success
// the slots hold the witness.
func (st *evalState) run(e1, e2 graph.NodeID, eq EqView) bool {
	m, ck := st.m, st.ck
	if !ck.matchable || m.G.TypeOf(e1) != m.G.TypeOf(e2) || m.G.TypeOf(e1) != ck.nodes[ck.x].typ {
		return false
	}
	if !st.g1d.Contains(e1) || !st.g2d.Contains(e2) {
		return false
	}
	st.slots[ck.x] = Slot{e1, e2}
	// Self-loop triples on x have no later endpoint to trigger their
	// guided-expansion check, so verify them here.
	for _, ti := range ck.incident[ck.x] {
		t := ck.triples[ti]
		if t.subj == ck.x && t.obj == ck.x {
			if !m.G.HasTriple(e1, t.pred, e1) || !m.G.HasTriple(e2, t.pred, e2) {
				return false
			}
		}
	}
	return st.search(1, eq)
}

// IdentifiedByKey checks whether key ck identifies (e1, e2) given Eq,
// restricting the search for the match at e1 to g1d and at e2 to g2d
// (pass nil sets to search the whole graph). It reports the number of
// search steps taken.
func (m *Matcher) IdentifiedByKey(ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet, eq EqView) (ok bool, steps int) {
	var buf slotBuf
	st := evalState{m: m, ck: ck, g1d: g1d, g2d: g2d, slots: buf.slots(ck)}
	ok = st.run(e1, e2, eq)
	return ok, st.steps
}

// harvestRequires reads the pairs bound to the recursive entity
// variables off a successful search — the prerequisites that had to be
// in Eq for this identification. Reflexive pairs (same entity on both
// sides) are omitted; the rest are canonical (eqrel.MakePair), the form
// chase.Step.Requires keeps them in.
func (st *evalState) harvestRequires() (requires []eqrel.Pair) {
	for q, n := range st.ck.nodes {
		if q == st.ck.x || n.kind != pattern.EntityVar {
			continue
		}
		s := st.slots[q]
		if s.A != s.B {
			requires = append(requires, eqrel.MakePair(int32(s.A), int32(s.B)))
		}
	}
	return requires
}

// harvestUses reads the graph triples the witness match used, on both
// sides, off a successful search: for every pattern triple (u, p, v)
// the instantiated triples (m(u).a, p, m(v).a) and (m(u).b, p, m(v).b).
// Duplicates (the two sides may share triples) are removed.
func (st *evalState) harvestUses() []graph.Triple {
	uses := make([]graph.Triple, 0, 2*len(st.ck.triples))
	for _, t := range st.ck.triples {
		s, o := st.slots[t.subj], st.slots[t.obj]
		for _, tr := range [2]graph.Triple{
			{S: s.A, P: t.pred, O: o.A},
			{S: s.B, P: t.pred, O: o.B},
		} {
			if !slices.Contains(uses, tr) {
				uses = append(uses, tr)
			}
		}
	}
	return uses
}

// IdentifiedByKeyProvenance is IdentifiedByKey over the whole graph but
// also returns, on success, the witness match's provenance: the pairs
// bound to the recursive entity variables of the key — the
// prerequisites that had to be in Eq for this identification, reflexive
// pairs (same entity on both sides) omitted — and the graph triples the
// match used on either side. The incremental engine indexes chase steps
// by these triples so that removing a triple invalidates exactly the
// identifications whose proofs depend on it. Provenance is built only
// for a check that succeeds.
func (m *Matcher) IdentifiedByKeyProvenance(ck *CompiledKey, e1, e2 graph.NodeID, eq EqView) (ok bool, requires []eqrel.Pair, uses []graph.Triple, steps int) {
	var buf slotBuf
	st := evalState{m: m, ck: ck, slots: buf.slots(ck)}
	if !st.run(e1, e2, eq) {
		return false, nil, nil, st.steps
	}
	return true, st.harvestRequires(), st.harvestUses(), st.steps
}

// Identified checks whether any key defined on the type of (e1, e2)
// identifies the pair given Eq. It stops at the first identifying key
// (the keys for a type are ordered cheap first). It returns the
// identifying key, if any, and total steps.
func (m *Matcher) Identified(e1, e2 graph.NodeID, eq EqView) (ok bool, by *CompiledKey, steps int) {
	t := m.G.TypeOf(e1)
	if m.G.TypeOf(e2) != t {
		return false, nil, 0
	}
	for _, ck := range m.KeysFor(t) {
		got, s := m.IdentifiedByKey(ck, e1, e2, nil, nil, eq)
		steps += s
		if got {
			return true, ck, steps
		}
	}
	return false, nil, steps
}

// search instantiates the pattern node at order position pos and
// recurses; it returns true as soon as m is fully instantiated
// (early termination).
func (st *evalState) search(pos int, eq EqView) bool {
	if pos == len(st.ck.order) {
		return true
	}
	st.steps++
	q := st.ck.order[pos]
	t := st.ck.triples[st.ck.anchor[pos]]

	// The anchor triple connects q to an instantiated node; enumerate
	// candidate pairs along it in both graphs: in-neighbors of the
	// other endpoint's binding when q is the subject, else out-neighbors.
	out, other := t.subj != q, st.slots[t.subj]
	if !out {
		other = st.slots[t.obj]
	}
	for _, ea := range st.m.edges(other.A, out) {
		if ea.Pred != t.pred || !st.g1d.Contains(ea.To) {
			continue
		}
		for _, eb := range st.m.edges(other.B, out) {
			if eb.Pred != t.pred || !st.g2d.Contains(eb.To) || !st.m.Feasible(st.ck, st.slots, q, ea.To, eb.To, eq) {
				continue
			}
			st.slots[q] = Slot{ea.To, eb.To}
			if st.search(pos+1, eq) {
				return true
			}
			st.slots[q] = Unset
		}
	}
	return false
}

// Feasible checks the three feasibility conditions of EvalMR (§4.1) for
// extending the instantiation vector slots of ck with slots[q] = (a, b):
// (1) injective, neither a nor b is bound already on its side; (2) the
// pair meets q's local constraint, Eq included; (3) guided expansion,
// every pattern triple between q and a bound node exists on both
// sides. EvalVC's messages check the same conditions (package emvc).
func (m *Matcher) Feasible(ck *CompiledKey, slots []Slot, q int, a, b graph.NodeID, eq EqView) bool {
	g := m.G
	// Unset slots hold NoNode, which no graph node equals.
	for _, s := range slots {
		if s.A == a || s.B == b {
			return false
		}
	}
	if !m.admitsPair(ck.nodes[q], a, b, eq) {
		return false
	}
	for _, ti := range ck.incident[q] {
		t := ck.triples[ti]
		if t.subj == q && t.obj == q {
			// Self-loop pattern triple: verify immediately on binding.
			if !g.HasTriple(a, t.pred, a) || !g.HasTriple(b, t.pred, b) {
				return false
			}
			continue
		}
		if t.subj == q {
			if o := slots[t.obj]; o != Unset {
				if !g.HasTriple(a, t.pred, o.A) || !g.HasTriple(b, t.pred, o.B) {
					return false
				}
			}
		}
		if t.obj == q {
			if s := slots[t.subj]; s != Unset {
				if !g.HasTriple(s.A, t.pred, a) || !g.HasTriple(s.B, t.pred, b) {
					return false
				}
			}
		}
	}
	return true
}
