package match

import (
	"graphkeys/internal/graph"
)

// This file implements the baseline checker used by EM^VF2_MR in §6: a
// VF2-flavored subgraph-isomorphism enumeration that first lists every
// match S1 of Q(x) at e1 and every match S2 at e2 independently, and
// only then tests whether some S1(e1) coincides with some S2(e2) under
// Eq. Unlike EvalMR there is no cross-side pruning and no early
// termination of the enumeration phase — that is exactly the cost the
// paper's EMMR-vs-EMVF2MR comparison measures.

// assignment maps pattern node index -> graph node. Only one side.
type assignment []graph.NodeID

// EnumerateMatches lists every valuation of ck at entity e within the
// node set gd (nil = whole graph). The designated variable is pinned to
// e. The number of search steps is returned alongside.
func (m *Matcher) EnumerateMatches(ck *CompiledKey, e graph.NodeID, gd *graph.NodeSet) (out []assignment, steps int) {
	if !ck.matchable {
		return nil, 0
	}
	if !m.G.IsEntity(e) || m.G.TypeOf(e) != ck.nodes[ck.x].typ || !gd.Contains(e) {
		return nil, 0
	}
	st := &enumState{
		m:    m,
		ck:   ck,
		gd:   gd,
		cur:  make(assignment, len(ck.nodes)),
		used: make(map[graph.NodeID]bool, len(ck.nodes)),
	}
	for i := range st.cur {
		st.cur[i] = graph.NoNode
	}
	st.cur[ck.x] = e
	st.used[e] = true
	// Verify self-loops on x (see eval.go).
	for _, ti := range ck.incident[ck.x] {
		t := ck.triples[ti]
		if t.subj == ck.x && t.obj == ck.x && !m.G.HasTriple(e, t.pred, e) {
			return nil, 0
		}
	}
	st.enumerate(1)
	return st.out, st.steps
}

type enumState struct {
	m     *Matcher
	ck    *CompiledKey
	gd    *graph.NodeSet
	cur   assignment
	used  map[graph.NodeID]bool
	out   []assignment
	steps int
}

func (st *enumState) enumerate(pos int) {
	if pos == len(st.ck.order) {
		cp := make(assignment, len(st.cur))
		copy(cp, st.cur)
		st.out = append(st.out, cp)
		return
	}
	st.steps++
	q := st.ck.order[pos]
	ti := st.ck.anchor[pos]
	t := st.ck.triples[ti]
	var cands []graph.Edge
	if t.subj == q {
		cands = st.m.G.In(st.cur[t.obj])
	} else {
		cands = st.m.G.Out(st.cur[t.subj])
	}
	for _, e := range cands {
		if e.Pred != t.pred {
			continue
		}
		if !st.feasibleOneSide(q, e.To) {
			continue
		}
		st.cur[q] = e.To
		st.used[e.To] = true
		st.enumerate(pos + 1)
		st.used[e.To] = false
		st.cur[q] = graph.NoNode
	}
}

// feasibleOneSide checks the single-side valuation conditions of §2.1:
// injectivity, q's local constraint, and the existence of every pattern
// triple whose endpoints are both assigned.
func (st *enumState) feasibleOneSide(q int, a graph.NodeID) bool {
	g := st.m.G
	if !st.gd.Contains(a) || st.used[a] || !st.m.admits(st.ck.nodes[q], a) {
		return false
	}
	for _, ti := range st.ck.incident[q] {
		t := st.ck.triples[ti]
		if t.subj == q && t.obj == q {
			if !g.HasTriple(a, t.pred, a) {
				return false
			}
			continue
		}
		if t.subj == q && st.cur[t.obj] != graph.NoNode {
			if !g.HasTriple(a, t.pred, st.cur[t.obj]) {
				return false
			}
		}
		if t.obj == q && st.cur[t.subj] != graph.NoNode {
			if !g.HasTriple(st.cur[t.subj], t.pred, a) {
				return false
			}
		}
	}
	return true
}

// Coincide reports whether matches s1 (at e1) and s2 (at e2) coincide
// under Eq (§2.2 / §3.1): every pattern node's pair meets its local
// constraint across both sides.
func (m *Matcher) Coincide(ck *CompiledKey, s1, s2 assignment, eq EqView) bool {
	for q, n := range ck.nodes {
		if !m.admitsPair(n, s1[q], s2[q], eq) {
			return false
		}
	}
	return true
}

// IdentifiedVF2 is the baseline equivalent of Identified: for each key
// on the pair's type it enumerates all matches at e1 within g1d and all
// matches at e2 within g2d (nil = the whole graph), then tests
// coincidence pairwise. The caller builds the two sets, as emmr's
// driver ships the d-neighbors (Neighborhood) it built once per
// candidate.
func (m *Matcher) IdentifiedVF2(e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet, eq EqView) (ok bool, by *CompiledKey, steps int) {
	t := m.G.TypeOf(e1)
	if m.G.TypeOf(e2) != t {
		return false, nil, 0
	}
	for _, ck := range m.KeysFor(t) {
		m1, s1 := m.EnumerateMatches(ck, e1, g1d)
		m2, s2 := m.EnumerateMatches(ck, e2, g2d)
		steps += s1 + s2
		for _, a1 := range m1 {
			for _, a2 := range m2 {
				if m.Coincide(ck, a1, a2, eq) {
					return true, ck, steps
				}
			}
		}
	}
	return false, nil, steps
}
