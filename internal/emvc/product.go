// Package emvc implements algorithm EMVC of "Keys for Graphs" (§5) and
// its optimized variant EMOptVC: entity matching in the vertex-centric
// asynchronous model. Candidate instantiations of a key are explored by
// messages propagating through a product graph, guided by a precomputed
// tour of the key's pattern, with no global rounds — identifications
// and their dependent re-checks happen as messages arrive.
package emvc

import (
	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/match"
)

// opair is an ordered node pair (s1 from the first match's side, s2
// from the second's): a node of the product graph Gp.
type opair struct {
	A, B graph.NodeID
}

// unset is the sentinel for uninstantiated message slots.
var unset = opair{graph.NoNode, graph.NoNode}

// Product is the product graph Gp of §5.1, restricted — as the paper
// prescribes via Proposition 9 — to pairs that can be paired: the union
// of the maximum pairing relations of every key at every candidate
// pair. Structural edges ((s1,s2), p, (o1,o2)) are not materialized;
// they are enumerated on demand from the underlying graph's adjacency,
// which keeps |Gp| storage linear in its node count.
type Product struct {
	g     *graph.Graph
	nodes []opair
	idx   map[opair]int
}

func newProduct(g *graph.Graph) *Product {
	return &Product{g: g, idx: make(map[opair]int)}
}

func (p *Product) add(op opair) int {
	if id, ok := p.idx[op]; ok {
		return id
	}
	id := len(p.nodes)
	p.nodes = append(p.nodes, op)
	p.idx[op] = id
	return id
}

// ID returns the vertex ID of a pair, if it is a Gp node.
func (p *Product) ID(op opair) (int, bool) {
	id, ok := p.idx[op]
	return id, ok
}

// Pair returns the ordered pair of vertex id.
func (p *Product) Pair(id int) opair { return p.nodes[id] }

// NumNodes returns |Vp|.
func (p *Product) NumNodes() int { return len(p.nodes) }

// EdgeCount enumerates |Ep| (structural edges): for every Gp node
// (a, b) and predicate p, the pairs (o1, o2) ∈ Vp with (a,p,o1) and
// (b,p,o2) in G. It exists for the |Gp| ≈ 2.7·|G| report of §6 and is
// O(Σ deg(a)·deg(b)).
func (p *Product) EdgeCount() int {
	n := 0
	for _, op := range p.nodes {
		for _, ea := range p.g.Out(op.A) {
			for _, eb := range p.g.Out(op.B) {
				if ea.Pred != eb.Pred {
					continue
				}
				if _, ok := p.idx[opair{ea.To, eb.To}]; ok {
					n++
				}
			}
		}
	}
	return n
}

// neighbors enumerates the Gp nodes reachable from (a, b) by one
// pattern-triple step: outgoing edges labeled pred when forward, else
// incoming. fn is called with the neighbor pair and its vertex ID.
func (p *Product) neighbors(a, b graph.NodeID, pred graph.PredID, forward bool, fn func(op opair, id int)) {
	edgesA, edgesB := p.g.Out(a), p.g.Out(b)
	if !forward {
		edgesA, edgesB = p.g.In(a), p.g.In(b)
	}
	for _, ea := range edgesA {
		if ea.Pred != pred {
			continue
		}
		for _, eb := range edgesB {
			if eb.Pred != pred {
				continue
			}
			op := opair{ea.To, eb.To}
			if id, ok := p.idx[op]; ok {
				fn(op, id)
			}
		}
	}
}

// buildProduct constructs Gp from the pairing relations of the paired
// candidate pairs, and returns the paired candidate list alongside.
// Per-candidate pairing runs in parallel on p workers (the paper's
// construction of Gp is itself a parallel job). A relation holds only
// what is reachable from (e1, e2, x), so Vp does too; a paired
// candidate's relations start with (e1, e2) itself.
func buildProduct(m *match.Matcher, cands []eqrel.Pair, workers int) (*Product, []eqrel.Pair) {
	p := newProduct(m.G)
	tuples := make([][]opair, len(cands))
	engine.Parallel(m.Opts.Eng, workers, len(cands), func(i int) {
		for rel := range m.Pairings(graph.NodeID(cands[i].A), graph.NodeID(cands[i].B)) {
			rel.EachPair(func(a, b graph.NodeID) {
				tuples[i] = append(tuples[i], opair{a, b})
			})
		}
	})
	var paired []eqrel.Pair
	for i, pr := range cands {
		if len(tuples[i]) == 0 {
			continue
		}
		paired = append(paired, pr)
		for _, t := range tuples[i] {
			p.add(t)
		}
	}
	return p, paired
}

// The concurrent equivalence relation with class-membership lists the
// engine merges identifications through is engine.Tracker: a union
// reports every entity of the two merged classes so that dependents of
// any member can be re-triggered (transitive merges can enable pairs
// that depend on entities far from the unioned pair).
