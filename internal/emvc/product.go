// Package emvc implements algorithm EMVC of "Keys for Graphs" (§5) and
// its optimized variant EMOptVC: entity matching in the vertex-centric
// model. Candidate instantiations of a key are explored by messages
// propagating through a product graph, guided by a precomputed tour of
// the key's pattern. The paper's model is asynchronous; here messages
// move in supersteps, each one engine.Parallel in which every message
// in flight makes one hop, split by candidate pair. Identifications
// commit at the barrier after their superstep, in candidate order, and
// seed their dependent re-checks for the next one, so every count is
// the same at every worker count.
package emvc

import (
	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/match"
)

// opair is an ordered node pair (s1 from the first match's side, s2
// from the second's): a node of the product graph Gp, and the slot of
// a message's instantiation vector that binds a pattern node to it.
type opair = match.Slot

// unset is the slot of a pattern node a message has not bound.
var unset = match.Unset

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
			op := opair{A: ea.To, B: eb.To}
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
				tuples[i] = append(tuples[i], opair{A: a, B: b})
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

// The engine merges identifications into an eqrel.Eq, and after a
// union reads the whole merged class off its member ring
// (eqrel.Eq.Members), so that dependents of any member can be
// re-triggered (transitive merges can enable pairs that depend on
// entities far from the unioned pair).
