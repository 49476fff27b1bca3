package match

import (
	"iter"

	"graphkeys/internal/graph"
)

// This file implements the optimization machinery of §4.2: the pairing
// relation P^Q (Proposition 9), a necessary condition for a pair to be
// identified by a key, used both to filter the candidate set L and to
// shrink the d-neighbors (G1^d, G2^d) to the nodes that participate in
// the maximum pairing relation.
//
// The relation is computed top-down, with x pinned: the only tuple at
// the designated node is (e1, e2, x), and a tuple (o1, o2, q') enters
// only when an edge pair (s1 -p-> o1) ∈ G1^d, (s2 -p-> o2) ∈ G2^d along
// a pattern triple leads to it from a tuple already there and (o1, o2)
// is locally compatible with q'. Greatest-fixpoint pruning then deletes
// what loses support. Two matches at (e1, e2) induce a self-supporting
// tuple set containing (e1, e2, x) in which every tuple is reachable
// from it (patterns are connected), so identified ⇒ paired holds as for
// the relation seeded from every compatible tuple of G1^d × G2^d — of
// which this is the part reachable from (e1, e2, x), at a cost of what
// the pair can reach instead of the product of the two neighbourhoods.

// tuple is an element (s1, s2, q) of a pairing relation: s1 drawn from
// G1^d, s2 from G2^d, q a pattern node.
type tuple struct {
	a, b graph.NodeID
	q    int32
}

// hop is one pattern triple seen from one of its endpoints.
type hop struct {
	pred graph.PredID
	to   int  // the pattern node at the far end
	out  bool // the near end is the subject: follow out-edges
	back int  // index in hops[to] of the same triple walked the other way
}

// buildHops lists, per pattern node, the hops leaving it.
func buildHops(nodes int, triples []compiledTriple) [][]hop {
	hops := make([][]hop, nodes)
	for _, t := range triples {
		hops[t.subj] = append(hops[t.subj], hop{pred: t.pred, to: t.obj, out: true})
		hops[t.obj] = append(hops[t.obj], hop{pred: t.pred, to: t.subj})
		i, j := len(hops[t.subj])-1, len(hops[t.obj])-1
		if t.subj == t.obj {
			i--
		}
		hops[t.subj][i].back, hops[t.obj][j].back = j, i
	}
	return hops
}

// Pairing is the maximum pairing relation of one key at one entity pair
// that the key pairs. A nil *Pairing is the relation of an unpaired
// pair: (e1, e2, x) did not survive, which makes the rest useless.
type Pairing struct {
	tuples []tuple // (e1, e2, x) first
}

// Paired reports whether (e1, e2, x) survived the fixpoint: the
// necessary condition of Proposition 9(a).
func (p *Pairing) Paired() bool { return p != nil }

// EachPair calls fn once per (s1, s2) occurrence in the relation (a
// pair bound at several pattern nodes is reported for each).
func (p *Pairing) EachPair(fn func(a, b graph.NodeID)) {
	for _, t := range p.tuples {
		fn(t.a, t.b)
	}
}

// ptuple is one tuple of the relation under construction.
type ptuple struct {
	tuple
	seg  int32 // segs[seg+h] is the tuple's support along hops[q][h]
	dead bool
}

// pseg is the support of one tuple along one hop: adj[lo:hi] lists the
// tuples its edge pairs lead to, live counts those still alive. The
// lists are symmetric — u supports t along a hop exactly when t supports
// u along the hop walked back — so a death is propagated by walking the
// dead tuple's own lists.
type pseg struct{ lo, hi, live int32 }

// pairScratch is the working memory of one ComputePairing call, pooled
// on the Matcher so a worker reuses it from call to call.
type pairScratch struct {
	tuples []ptuple
	segs   []pseg
	adj    []int32
	work   []int32         // dead tuples whose supporters have not been told
	dead   int             // number of dead tuples
	bs     []graph.NodeID  // scratch of seedPairing: one hop's G2-side targets
	index  map[tuple]int32 // tuple number by (a, b, q)
}

func (sc *pairScratch) reset() {
	sc.tuples, sc.segs, sc.adj, sc.work, sc.dead = sc.tuples[:0], sc.segs[:0], sc.adj[:0], sc.work[:0], 0
	// Clearing a map costs its capacity, which never shrinks: a call
	// that grew it large pays for a new one, not every call after it.
	if len(sc.index) > 64 || sc.index == nil {
		sc.index = make(map[tuple]int32)
	} else {
		clear(sc.index)
	}
}

// intern returns the number of tuple t, adding it if new.
func (sc *pairScratch) intern(t tuple) int32 {
	at, ok := sc.index[t]
	if !ok {
		at = int32(len(sc.tuples))
		sc.tuples = append(sc.tuples, ptuple{tuple: t})
		sc.index[t] = at
	}
	return at
}

// kill marks tuple at dead and queues it for propagation.
func (sc *pairScratch) kill(at int32) {
	if t := &sc.tuples[at]; !t.dead {
		t.dead = true
		sc.dead++
		sc.work = append(sc.work, at)
	}
}

// ComputePairing builds the maximum pairing relation of ck at (e1, e2)
// over the d-neighbors (g1d, g2d); a nil set means the whole graph. It
// returns nil — as soon as it knows — when (e1, e2, x) is not in it.
func (m *Matcher) ComputePairing(ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet) *Pairing {
	if !ck.matchable || !g1d.Contains(e1) || !g2d.Contains(e2) ||
		!m.G.IsEntityOfType(e1, ck.nodes[ck.x].typ) || !m.G.IsEntityOfType(e2, ck.nodes[ck.x].typ) {
		return nil
	}
	sc, _ := m.pairScratch.Get().(*pairScratch)
	if sc == nil {
		sc = &pairScratch{}
	}
	defer m.pairScratch.Put(sc)
	sc.reset()
	checks, paired := 0, m.seedPairing(sc, ck, e1, e2, g1d, g2d)

	// Greatest fixpoint by worklist: a dead tuple takes one supporter
	// away from each tuple it supported, which dies in turn when a hop
	// of its own is left with none.
	for paired && len(sc.work) > 0 {
		at := sc.work[len(sc.work)-1]
		sc.work = sc.work[:len(sc.work)-1]
		t := sc.tuples[at]
		for h, hp := range ck.hops[t.q] {
			s := sc.segs[int(t.seg)+h]
			for _, u := range sc.adj[s.lo:s.hi] {
				if sc.tuples[u].dead {
					continue
				}
				checks++
				us := &sc.segs[int(sc.tuples[u].seg)+hp.back]
				if us.live--; us.live == 0 {
					sc.kill(u)
					paired = paired && u != 0
				}
			}
		}
	}

	var p *Pairing
	if paired {
		p = &Pairing{tuples: make([]tuple, 0, len(sc.tuples)-sc.dead)}
		for _, t := range sc.tuples {
			if !t.dead {
				p.tuples = append(p.tuples, t.tuple)
			}
		}
	}
	if ob := m.Opts.Obs; ob != nil {
		ob.PairingCalls.Inc()
		ob.PairingSeeded.Add(int64(len(sc.tuples)))
		ob.PairingChecks.Add(int64(len(sc.tuples) + checks))
		if p != nil {
			ob.PairingSurviving.Add(int64(len(p.tuples)))
		}
	}
	return p
}

// seedPairing fills sc with every tuple reachable from (e1, e2, x) —
// tuple 0 — and the support lists between them, queueing the tuples
// that have no support along some hop. It reports false, early, when
// (e1, e2, x) is one of those.
func (m *Matcher) seedPairing(sc *pairScratch, ck *CompiledKey, e1, e2 graph.NodeID, g1d, g2d *graph.NodeSet) bool {
	sc.intern(tuple{e1, e2, int32(ck.x)})
	for at := 0; at < len(sc.tuples); at++ {
		t := sc.tuples[at]
		sc.tuples[at].seg = int32(len(sc.segs))
		for _, hp := range ck.hops[t.q] {
			lo := int32(len(sc.adj))
			sc.bs = sc.bs[:0]
			for _, eb := range m.edges(t.b, hp.out) {
				if eb.Pred == hp.pred && g2d.Contains(eb.To) {
					sc.bs = append(sc.bs, eb.To)
				}
			}
			if len(sc.bs) > 0 {
				for _, ea := range m.edges(t.a, hp.out) {
					if ea.Pred != hp.pred || !g1d.Contains(ea.To) {
						continue
					}
					for _, b := range sc.bs {
						if m.compatible(ck, hp.to, ea.To, b, e1, e2) {
							sc.adj = append(sc.adj, sc.intern(tuple{ea.To, b, int32(hp.to)}))
						}
					}
				}
			}
			hi := int32(len(sc.adj))
			sc.segs = append(sc.segs, pseg{lo, hi, hi - lo})
			if hi == lo {
				if at == 0 {
					return false
				}
				sc.kill(int32(at))
			}
		}
	}
	return true
}

// edges returns the out-edges of n, or its in-edges.
func (m *Matcher) edges(n graph.NodeID, out bool) []graph.Edge {
	if out {
		return m.G.Out(n)
	}
	return m.G.In(n)
}

// compatible is the local condition for (a, b, q) to be a tuple at all:
// the pair of the call at the designated node, entities of q's type,
// values equal under ValueEq, or the constant itself.
func (m *Matcher) compatible(ck *CompiledKey, q int, a, b, e1, e2 graph.NodeID) bool {
	switch n := ck.nodes[q]; n.kind {
	case kDesignated:
		return a == e1 && b == e2
	case kValueVar:
		if m.Opts.ValueEq == nil {
			return a == b && m.G.IsValue(a)
		}
		return m.G.IsValue(a) && m.G.IsValue(b) && m.Opts.ValueEq(m.G.Label(a), m.G.Label(b))
	case kConst:
		return a == n.constID && b == n.constID
	default: // entity variable, wildcard
		return m.G.IsEntityOfType(a, n.typ) && m.G.IsEntityOfType(b, n.typ)
	}
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
	for _, hp := range ck.hops[ck.x] {
		if hp.to == ck.x {
			if !m.G.HasTriple(e1, hp.pred, e1) || !m.G.HasTriple(e2, hp.pred, e2) {
				return false
			}
		} else if !m.quickEdge(e1, e2, hp.pred, hp.out, ck.nodes[hp.to]) {
			return false
		}
	}
	return true
}

// quickEdge checks that both entities have a pred-edge (outgoing or
// incoming) compatible with the pattern node at the other end.
func (m *Matcher) quickEdge(e1, e2 graph.NodeID, pred graph.PredID, outgoing bool, n compiledNode) bool {
	g := m.G
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
			for _, ed := range m.edges(e, outgoing) {
				if ed.Pred == pred && g.IsEntityOfType(ed.To, n.typ) {
					return true
				}
			}
			return false
		}
		return has(e1) && has(e2)
	}
}

// Pairings yields the relation of every key on the pair's type that
// pairs (e1, e2), over the pair's d-neighbors: the quick x-local filter
// runs first, the fixpoint only for keys that survive it.
func (m *Matcher) Pairings(e1, e2 graph.NodeID) iter.Seq[*Pairing] {
	return func(yield func(*Pairing) bool) {
		t := m.G.TypeOf(e1)
		if m.G.TypeOf(e2) != t {
			return
		}
		g1d, g2d := m.Neighborhood(e1), m.Neighborhood(e2)
		for _, ck := range m.byType[t] {
			if !m.QuickPaired(ck, e1, e2) {
				continue
			}
			if p := m.ComputePairing(ck, e1, e2, g1d, g2d); p.Paired() && !yield(p) {
				return
			}
		}
	}
}

// CanBePaired reports whether (e1, e2) can be paired by at least one key
// defined on its type (Proposition 9(a)): if not, (G,Σ) ⊭ (e1, e2) and
// the pair can be dropped from L.
func (m *Matcher) CanBePaired(e1, e2 graph.NodeID) bool {
	for range m.Pairings(e1, e2) {
		return true
	}
	return false
}

// ReducedNeighborhoods returns the d-neighbors of (e1, e2) shrunk to the
// nodes participating in the maximum pairing relation of some key at the
// pair (§4.2 "Reducing (G1d, G2d)"). paired is false when no key pairs
// the pair at all, in which case the pair cannot be identified.
func (m *Matcher) ReducedNeighborhoods(e1, e2 graph.NodeID) (r1, r2 *graph.NodeSet, paired bool) {
	r1, r2 = graph.NewNodeSet(), graph.NewNodeSet()
	for p := range m.Pairings(e1, e2) {
		paired = true
		p.EachPair(func(a, b graph.NodeID) {
			r1.Add(a)
			r2.Add(b)
		})
	}
	if !paired {
		return nil, nil, false
	}
	return r1, r2, true
}
