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
	"math/bits"

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
// which keeps |Gp| storage linear in its node count. A vertex's ID is
// its position in nodes, the order in which the candidates' relations
// first name it, and ID finds it through an open-addressing table.
type Product struct {
	g     *graph.Graph
	nodes []opair
	// table holds vertex IDs plus one, 0 marking a free slot: a pair
	// sits at its hash's top bits (shift) or the first free slot after.
	// Its length is a power of two, at least 3/2 of the pairs added.
	table []int32
	shift uint
}

// newProduct sizes a product graph for at most n additions.
func newProduct(g *graph.Graph, n int) *Product {
	b := bits.Len(uint(n + n/2))
	return &Product{g: g, nodes: make([]opair, 0, n), table: make([]int32, 1<<b), shift: uint(64 - b)}
}

// slot is where op's probe starts: Fibonacci hashing of the pair.
func (p *Product) slot(op opair) int {
	return int((uint64(uint32(op.A))<<32 | uint64(uint32(op.B))) * 0x9E3779B97F4A7C15 >> p.shift)
}

// find returns op's table slot: the one holding it, or the free slot
// where adding it would put it.
func (p *Product) find(op opair) int {
	mask := len(p.table) - 1
	i := p.slot(op) & mask
	for p.table[i] != 0 && p.nodes[p.table[i]-1] != op {
		i = (i + 1) & mask
	}
	return i
}

// add numbers op unless it is a vertex already.
func (p *Product) add(op opair) {
	if i := p.find(op); p.table[i] == 0 {
		p.nodes = append(p.nodes, op)
		p.table[i] = int32(len(p.nodes))
	}
}

// ID returns the vertex ID of a pair, if it is a Gp node.
func (p *Product) ID(op opair) (int, bool) {
	id := p.table[p.find(op)]
	return int(id) - 1, id != 0
}

// Pair returns the ordered pair of vertex id.
func (p *Product) Pair(id int) opair { return p.nodes[id] }

// NumNodes returns |Vp|.
func (p *Product) NumNodes() int { return len(p.nodes) }

// appendNeighbors appends to dst the Gp nodes reachable from (a, b) by
// one pattern-triple step — outgoing edges labeled pred when forward,
// else incoming — a's edges outer, in adjacency order.
func (p *Product) appendNeighbors(dst []target, a, b graph.NodeID, pred graph.PredID, forward bool) []target {
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
			if id, ok := p.ID(op); ok {
				dst = append(dst, target{op: op, id: int32(id)})
			}
		}
	}
	return dst
}

// buildProduct constructs Gp from the pairing relations of the paired
// candidate pairs, and returns the paired candidate list alongside.
// Pairing runs in parallel on p workers (the paper's construction of Gp
// is itself a parallel job), each chunk of consecutive candidates
// appending their relations' pairs to one list of its own; the vertices
// are then numbered in one pass over the lists in candidate order. A
// relation holds only what is reachable from (e1, e2, x), so Vp does
// too; a paired candidate's relations start with (e1, e2) itself.
func buildProduct(m *match.Matcher, cands []eqrel.Pair, workers int) (*Product, []eqrel.Pair) {
	chunks := engine.Chunks(workers, len(cands))
	lists := make([][]opair, chunks)
	isPaired := make([]bool, len(cands))
	engine.Parallel(m.Opts.Eng, workers, chunks, func(c int) {
		lo, hi := engine.ChunkRange(c, chunks, len(cands))
		for i := lo; i < hi; i++ {
			n := len(lists[c])
			lists[c] = m.AppendPairs(lists[c], graph.NodeID(cands[i].A), graph.NodeID(cands[i].B))
			isPaired[i] = len(lists[c]) > n
		}
	})
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	p := newProduct(m.G, n)
	for _, l := range lists {
		for _, op := range l {
			p.add(op)
		}
	}
	paired := make([]eqrel.Pair, 0, len(cands))
	for i, pr := range cands {
		if isPaired[i] {
			paired = append(paired, pr)
		}
	}
	return p, paired
}
