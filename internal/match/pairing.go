package match

import (
	"slices"

	"graphkeys/internal/graph"
	"graphkeys/internal/pattern"
)

// This file implements the optimization machinery of §4.2: the pairing
// relation P^Q (Proposition 9), a necessary condition for a pair to be
// identified by a key, used both to filter the candidate set L and to
// reduce the d-neighbors (G1^d, G2^d) to the nodes of the relation.
//
// The relation is computed top-down in the BFS layers of the pattern,
// with x pinned: the only tuple at x is (e1, e2, x), and a tuple
// (o1, o2, q') enters only when a hop one layer away from x leads to it
// — an edge pair (s1 -p-> o1), (s2 -p-> o2) from a tuple already there —
// and (o1, o2) is locally compatible with q'. Any other hop links only
// tuples already there: its layer is complete, as tuples are processed
// in the order they enter. Greatest-fixpoint pruning then deletes what
// loses support. A surviving tuple has a surviving supporter at its BFS
// parent, down to (e1, e2, x), so this is the definition's relation —
// over G1^d × G2^d, since no layer reaches past r(Q) <= d hops, and over
// the whole graph — at the cost of what the layers reach, not of the
// product of the two neighbourhoods.

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
	grow bool // to is one BFS layer further from x than the near end (buildLeaves)
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
	at     [][]int32       // tuple numbers by pattern node
}

func (sc *pairScratch) reset(nodes int) {
	sc.tuples, sc.segs, sc.adj, sc.work, sc.dead = sc.tuples[:0], sc.segs[:0], sc.adj[:0], sc.work[:0], 0
	sc.at = slices.Grow(sc.at[:0], nodes)[:nodes]
	for q := range sc.at {
		sc.at[q] = sc.at[q][:0]
	}
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
		sc.at[t.q] = append(sc.at[t.q], at)
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

// ComputePairing builds the maximum pairing relation of ck at (e1, e2),
// the same over the pair's d-neighbors as over G (see above). It returns
// nil — as soon as it knows — when (e1, e2, x) is not in it.
func (m *Matcher) ComputePairing(ck *CompiledKey, e1, e2 graph.NodeID) *Pairing {
	sc := m.getPairScratch()
	defer m.pairScratch.Put(sc)
	if !m.pairing(sc, ck, e1, e2) {
		return nil
	}
	p := &Pairing{tuples: make([]tuple, 0, len(sc.tuples)-sc.dead)}
	for _, t := range sc.tuples {
		if !t.dead {
			p.tuples = append(p.tuples, t.tuple)
		}
	}
	return p
}

func (m *Matcher) getPairScratch() *pairScratch {
	if sc, _ := m.pairScratch.Get().(*pairScratch); sc != nil {
		return sc
	}
	return &pairScratch{}
}

// pairing computes the relation of ck at (e1, e2) into sc, its live
// tuples the ones not dead, and reports whether (e1, e2, x) is in it.
func (m *Matcher) pairing(sc *pairScratch, ck *CompiledKey, e1, e2 graph.NodeID) bool {
	if !ck.matchable || !m.G.IsEntityOfType(e1, ck.nodes[ck.x].typ) || !m.G.IsEntityOfType(e2, ck.nodes[ck.x].typ) {
		return false
	}
	sc.reset(len(ck.nodes))
	checks, paired := 0, m.seedPairing(sc, ck, e1, e2)

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

	ob := m.Opts.Obs
	ob.PairingCalls.Inc()
	ob.PairingSeeded.Add(int64(len(sc.tuples)))
	ob.PairingChecks.Add(int64(len(sc.tuples) + checks))
	if paired {
		ob.PairingSurviving.Add(int64(len(sc.tuples) - sc.dead))
	}
	return paired
}

// seedPairing fills sc, layer by layer, with every tuple the growing
// hops reach from (e1, e2, x) — tuple 0, and the only one at x, as no
// growing hop leads there — and the support lists between them,
// queueing the tuples that have no support along some hop. It reports
// false, early, when (e1, e2, x) is one of those.
func (m *Matcher) seedPairing(sc *pairScratch, ck *CompiledKey, e1, e2 graph.NodeID) bool {
	sc.intern(tuple{e1, e2, int32(ck.x)})
	for at := 0; at < len(sc.tuples); at++ {
		t := sc.tuples[at]
		sc.tuples[at].seg = int32(len(sc.segs))
		for _, hp := range ck.hops[t.q] {
			lo := int32(len(sc.adj))
			if !hp.grow {
				// A complete layer: probe its few tuples, not the cross of
				// the two edge lists, which costs a hub value deg².
				for _, u := range sc.at[hp.to] {
					s, o := t.tuple, sc.tuples[u].tuple
					if !hp.out {
						s, o = o, s
					}
					if m.G.HasTriple(s.a, hp.pred, o.a) && m.G.HasTriple(s.b, hp.pred, o.b) {
						sc.adj = append(sc.adj, u)
					}
				}
			} else {
				sc.bs = sc.bs[:0]
				for _, eb := range m.edges(t.b, hp.out) {
					if eb.Pred == hp.pred {
						sc.bs = append(sc.bs, eb.To)
					}
				}
				for _, ea := range m.edges(t.a, hp.out) {
					if ea.Pred != hp.pred {
						continue
					}
					for _, b := range sc.bs {
						if m.admitsPair(ck.nodes[hp.to], ea.To, b, nil) {
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
// incoming) to a pair of nodes that pattern node n admits, without Eq.
// Only a value variable ties the two ends together; any other node
// admits each end on its own.
func (m *Matcher) quickEdge(e1, e2 graph.NodeID, pred graph.PredID, outgoing bool, n compiledNode) bool {
	if n.kind != pattern.ValueVar {
		has := func(e graph.NodeID) bool {
			for _, ed := range m.edges(e, outgoing) {
				if ed.Pred == pred && m.admits(n, ed.To) {
					return true
				}
			}
			return false
		}
		return has(e1) && has(e2)
	}
	for _, ea := range m.edges(e1, outgoing) {
		if ea.Pred != pred || !m.admits(n, ea.To) {
			continue
		}
		if m.Opts.ValueEq == nil {
			// The only value equal to ea.To is ea.To itself.
			if m.G.HasTriple(e2, pred, ea.To) {
				return true
			}
			continue
		}
		for _, eb := range m.edges(e2, outgoing) {
			if eb.Pred == pred && m.admitsPair(n, ea.To, eb.To, nil) {
				return true
			}
		}
	}
	return false
}

// AppendPairs appends to dst the (s1, s2) of every tuple of the
// relation of every key on the pair's type that pairs (e1, e2), key by
// key in the type's order (a pair bound at several pattern nodes once
// per node), and returns the extended slice. The quick x-local filter
// runs first, the fixpoint only for keys that survive it. A paired
// relation holds (e1, e2, x), so nothing is appended exactly when no key
// pairs (e1, e2).
func (m *Matcher) AppendPairs(dst []Slot, e1, e2 graph.NodeID) []Slot {
	t := m.G.TypeOf(e1)
	if m.G.TypeOf(e2) != t {
		return dst
	}
	sc := m.getPairScratch()
	for _, ck := range m.KeysFor(t) {
		if !m.QuickPaired(ck, e1, e2) || !m.pairing(sc, ck, e1, e2) {
			continue
		}
		for _, u := range sc.tuples {
			if !u.dead {
				dst = append(dst, Slot{u.a, u.b})
			}
		}
	}
	m.pairScratch.Put(sc)
	return dst
}

// ReducedNeighborhoods returns the d-neighbors of (e1, e2) shrunk to the
// nodes participating in the maximum pairing relation of some key at the
// pair (§4.2 "Reducing (G1d, G2d)"). paired is false when no key pairs
// the pair at all, in which case the pair cannot be identified.
func (m *Matcher) ReducedNeighborhoods(e1, e2 graph.NodeID) (r1, r2 *graph.NodeSet, paired bool) {
	pairs := m.AppendPairs(nil, e1, e2)
	if len(pairs) == 0 {
		return nil, nil, false
	}
	r1, r2 = graph.NewNodeSet(), graph.NewNodeSet()
	for _, p := range pairs {
		r1.Add(p.A)
		r2.Add(p.B)
	}
	return r1, r2, true
}
