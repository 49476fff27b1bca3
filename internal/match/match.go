// Package match implements the matching machinery of "Keys for Graphs"
// (Fan et al., PVLDB 2015): deciding whether a pair of entities is
// identified by a key given the equivalence relation Eq computed so far.
//
// The central routine is the guided-search checker of §4.1 (procedure
// EvalMR): it combines the two subgraph-isomorphism searches (the match
// of Q(x) at e1 and at e2) into one backtracking search over a vector m
// that instantiates each pattern node with a pair (s1, s2), checking the
// feasibility conditions Injective, Equality and Guided expansion, and
// terminating early at the first full instantiation.
//
// The checks search G itself. §4.1's data-locality lemma confines the
// match at e to the d-neighbor G^d(e) so that MapReduce can ship it to a
// worker; in shared memory the confinement is a no-op. A pattern is
// connected and every node of it lies within d(Q, x) <= d undirected
// hops of x; a match is a homomorphism that maps each pattern triple onto
// a triple of G, so it maps a node k hops from x to a node at most k hops
// from e. Every match at e therefore lies in G^d(e) already, and building
// the set would only copy adjacency the graph holds.
//
// The package also provides the VF2-flavored baseline used by EM^VF2_MR
// (enumerate all matches at e1 and at e2 separately, then test whether
// any two coincide), the pairing relation of §4.2 (Proposition 9) used
// to filter the candidate set L and shrink d-neighbors, candidate-set
// construction, and the entity-pair dependency index that powers the
// incremental-checking optimizations of §4.2 and the dep edges of §5.
//
// # Candidates
//
// §4.1 lets the engines start from any L that contains every pair a key
// can identify. Where value equality is exact and every matchable key of
// a type has a value leaf — a value variable or a constant — L is built
// by one join, for every radius (candidates.go, stream.go): Compile
// records per leaf one shortest pattern path from x, and (e1, e2) is a
// candidate of key Q when, for every leaf of Q, walking the leaf's path
// from e1 and from e2 reaches a common value node (the constant itself
// for a constant leaf); L is the union over the type's keys. The join is
// sound — it drops no pair any chasing sequence can step on — because:
//
//   - Equal literals are one interned node, so a witness of Q at
//     (e1, e2) binds each value leaf to a single value node on both
//     sides (IndexableType demands exact equality and a leaf per key;
//     other types sweep all same-type pairs).
//   - A witness maps the leaf's pattern path onto a path of G from each
//     side with the same predicates and directions, whose nodes satisfy
//     the pattern nodes' local constraints: entity type, "is a value",
//     "is this constant". The walk checks exactly those. It ignores Eq
//     on entity variables, injectivity and every triple off the path,
//     which can only admit more pairs.
//   - A path is no longer than the radius d(Q, x) <= d, so, like the
//     whole witness, it lies inside the d-neighbors of e1 and e2.
package match

import (
	"fmt"
	"slices"
	"sync"

	"graphkeys/internal/engine"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/pattern"
)

// EqView is the read interface the matcher needs on the equivalence
// relation Eq. *eqrel.Eq implements it.
type EqView interface {
	Same(a, b int32) bool
}

// Options configures matching.
type Options struct {
	// ValueEq decides value equality. nil means exact string equality.
	// The paper's Remark (1) notes keys extend to similarity predicates;
	// plugging a similarity function here is that extension.
	ValueEq func(a, b string) bool
	// FullSweep disables value-indexed candidate generation: every keyed
	// type streams its full C(n, 2) sweep, the literal candidate set L
	// of §4.1. Results must be identical; it exists as the reference
	// the differential tests compare the joins against, and for
	// measurement.
	FullSweep bool
	// Obs receives the candidate pipeline's instruments (streamed /
	// pruned / postings-scanned counts); Eng receives the execution
	// substrate's (Parallel calls, items and active workers). Both are
	// per-owner handles — coexisting matchers with separate registries
	// keep their counts apart. nil means uninstrumented; New swaps a nil
	// Obs for the zero bundle, and engine.Parallel does the same for Eng.
	Obs *Obs
	Eng *engine.Obs
}

// compiledNode is a pattern node resolved against one graph.
type compiledNode struct {
	kind    pattern.NodeKind
	typ     graph.TypeID // entity-like nodes
	constID graph.NodeID // Const nodes: the value node in G, or NoNode
}

// admits is pattern node n's local constraint on one side of a match
// (§2.1): the constant itself (or, under a custom ValueEq, a value equal
// to it), a value, or an entity of n's type.
func (m *Matcher) admits(n compiledNode, v graph.NodeID) bool {
	switch n.kind {
	case pattern.Const:
		if m.Opts.ValueEq != nil {
			return m.G.IsValue(v) && m.Opts.ValueEq(m.G.Label(v), m.G.Label(n.constID))
		}
		return v == n.constID
	case pattern.ValueVar:
		return m.G.IsValue(v)
	default: // designated, entity variable, wildcard
		return m.G.IsEntityOfType(v, n.typ)
	}
}

// admitsPair is pattern node n's local constraint across both sides of
// a match (§2.2): each side admits its node, a value variable takes
// equal values, and an entity variable takes a pair in Eq. Every checker
// asks it: EvalMR's feasibility, the VF2 baseline's coincidence, EvalVC's
// messages (through Feasible) and, with a nil eq, the pairing relation,
// which ignores Eq. Literals are interned, so under exact equality equal
// values are one node.
func (m *Matcher) admitsPair(n compiledNode, a, b graph.NodeID, eq EqView) bool {
	switch n.kind {
	case pattern.ValueVar:
		if m.Opts.ValueEq == nil {
			return a == b && m.G.IsValue(a)
		}
		return m.G.IsValue(a) && m.G.IsValue(b) && m.Opts.ValueEq(m.G.Label(a), m.G.Label(b))
	case pattern.EntityVar:
		if eq != nil && !eq.Same(int32(a), int32(b)) {
			return false
		}
	}
	return m.admits(n, a) && m.admits(n, b)
}

// compiledTriple is a pattern triple with the predicate resolved.
type compiledTriple struct {
	subj, obj int
	pred      graph.PredID
}

// CompiledKey is a key compiled against a specific graph: predicate and
// type names resolved to IDs, plus a search order over pattern nodes.
// A key whose predicates, types or constants do not occur in the graph
// cannot match anything; such keys compile with matchable == false.
type CompiledKey struct {
	Key *keys.Key

	nodes   []compiledNode
	triples []compiledTriple
	x       int
	// incident[i] lists the triples touching pattern node i; hops[i]
	// the same triples as directed steps away from i (pairing.go).
	incident [][]int
	hops     [][]hop
	// order is a node instantiation order: order[0] == x and every later
	// node is adjacent to an earlier one (patterns are connected).
	// anchor[i] picks, for order position i>0, a triple connecting
	// order[i] to an already-instantiated node.
	order  []int
	anchor []int

	matchable bool
	// unresolvedConst records that some constant of the pattern is not
	// (yet) a value node of the graph — the one way a key can become
	// matchable without the graph gaining a type or a predicate.
	unresolvedConst bool
	// leaves holds, per value leaf of the pattern (constants first,
	// then value variables), one shortest path from x as the hops to
	// walk; the leaf is the last hop's far end. Candidate generation
	// joins on them (see the package comment).
	leaves [][]hop
	// leafSlot numbers leaf 0 among the leaves of every key its Matcher
	// compiled, so leafSlot+i names leaf i in the join's memo.
	leafSlot int
	// vars holds the same per entity variable y: one shortest path from
	// x to y. A check reads Eq only through what the y bind, so the
	// dependency index walks these (DependencyIndex).
	vars [][]hop
}

// Matchable reports whether the key can possibly match in the graph it
// was compiled against.
func (ck *CompiledKey) Matchable() bool { return ck.matchable }

// Compile resolves a key against g. The returned key is read-only and
// safe for concurrent use.
func Compile(g *graph.Graph, k *keys.Key) (*CompiledKey, error) {
	p := k.Pattern
	ck := &CompiledKey{
		Key:       k,
		x:         p.X,
		matchable: true,
	}
	ck.nodes = make([]compiledNode, len(p.Nodes))
	for i, n := range p.Nodes {
		if n.Kind > pattern.Const {
			return nil, fmt.Errorf("match: %s: unknown node kind %d", k.Name, n.Kind)
		}
		cn := compiledNode{kind: n.Kind, constID: graph.NoNode}
		if n.Kind.IsEntityLike() {
			t, ok := g.TypeByName(n.Type)
			if !ok {
				ck.matchable = false
			}
			cn.typ = t
		}
		if cn.kind == pattern.Const {
			if v, ok := g.Value(n.Value); ok {
				cn.constID = v
			} else {
				ck.matchable = false
				ck.unresolvedConst = true
			}
		}
		ck.nodes[i] = cn
	}
	ck.triples = make([]compiledTriple, len(p.Triples))
	ck.incident = make([][]int, len(p.Nodes))
	for ti, t := range p.Triples {
		pid, ok := g.PredByName(t.Pred)
		if !ok {
			ck.matchable = false
		}
		ck.triples[ti] = compiledTriple{subj: t.Subj, obj: t.Obj, pred: pid}
		ck.incident[t.Subj] = append(ck.incident[t.Subj], ti)
		if t.Obj != t.Subj {
			ck.incident[t.Obj] = append(ck.incident[t.Obj], ti)
		}
	}
	ck.hops = buildHops(len(ck.nodes), ck.triples)
	ck.buildLeaves()
	ck.buildOrder()
	return ck, nil
}

// buildLeaves records one shortest pattern path from x to every value
// leaf and to every entity variable: breadth-first over the hops, first
// discovery wins, so ties break by triple order. Constant leaves come
// first, so the join probes them before it expands any value variable.
// The same search marks the hops that grow: those that lead one layer
// further from x (pairing.go).
func (ck *CompiledKey) buildLeaves() {
	from := make([]int, len(ck.nodes)) // near end of the discovering hop, -1 = not reached
	via := make([]int, len(ck.nodes))  // the discovering hop's index in hops[from]
	depth := make([]int, len(ck.nodes))
	for i := range from {
		from[i] = -1
	}
	from[ck.x] = ck.x
	for queue := []int{ck.x}; len(queue) > 0; queue = queue[1:] {
		q := queue[0]
		for i, hp := range ck.hops[q] {
			if from[hp.to] < 0 {
				from[hp.to], via[hp.to], depth[hp.to] = q, i, depth[q]+1
				queue = append(queue, hp.to)
			}
			ck.hops[q][i].grow = depth[hp.to] == depth[q]+1
		}
	}
	paths := func(kind pattern.NodeKind) (out [][]hop) {
		for i, n := range ck.nodes {
			if n.kind != kind || from[i] < 0 {
				continue
			}
			var path []hop
			for q := i; q != ck.x; q = from[q] {
				path = append(path, ck.hops[from[q]][via[q]])
			}
			slices.Reverse(path)
			out = append(out, path)
		}
		return out
	}
	ck.leaves = append(paths(pattern.Const), paths(pattern.ValueVar)...)
	ck.vars = paths(pattern.EntityVar)
}

// buildOrder computes a connected instantiation order starting at x,
// preferring nodes with more already-satisfiable constraints first
// (constants and value variables early: they prune hardest).
func (ck *CompiledKey) buildOrder() {
	n := len(ck.nodes)
	placed := make([]bool, n)
	ck.order = make([]int, 0, n)
	ck.anchor = make([]int, 0, n)
	ck.order = append(ck.order, ck.x)
	ck.anchor = append(ck.anchor, -1)
	placed[ck.x] = true
	for len(ck.order) < n {
		best, bestAnchor, bestScore := -1, -1, -1
		for cand := 0; cand < n; cand++ {
			if placed[cand] {
				continue
			}
			// Find a triple connecting cand to a placed node.
			anchor := -1
			links := 0
			for _, ti := range ck.incident[cand] {
				t := ck.triples[ti]
				other := t.subj
				if other == cand {
					other = t.obj
				}
				if placed[other] {
					links++
					if anchor == -1 {
						anchor = ti
					}
				}
			}
			if anchor == -1 {
				continue
			}
			score := links * 10
			switch ck.nodes[cand].kind {
			case pattern.Const:
				score += 5
			case pattern.ValueVar:
				score += 4
			case pattern.EntityVar:
				score += 2
			}
			if score > bestScore {
				best, bestAnchor, bestScore = cand, anchor, score
			}
		}
		if best == -1 {
			// Disconnected pattern; Validate prevents this, but guard to
			// keep the matcher total.
			for cand := 0; cand < n; cand++ {
				if !placed[cand] {
					best, bestAnchor = cand, -1
					break
				}
			}
		}
		placed[best] = true
		ck.order = append(ck.order, best)
		ck.anchor = append(ck.anchor, bestAnchor)
	}
}

// Matcher holds a key set compiled against one graph. The paper's
// DriverMR (§4.1, line 1) constructs the d-neighbor of every keyed
// entity up front, because it ships them to workers; in shared memory
// neither the checks (see the package comment), the dependency
// relation (which walks the keys' x→y paths, DependencyIndex and
// Dependents) nor the pairing relation (which grows by the pattern's
// layers) need any. Their one reader, emmr's driver, builds each with
// Neighborhood once per candidate and keeps it for its run. The
// compiled keys are read-only between Refreshes, so the per-pair read
// paths (Neighborhood, PartnerStream, QuickPaired, AppendPairs, the
// witness checks) are safe for concurrent use; CandidateStream and the
// other whole-graph entry points are single-caller.
type Matcher struct {
	G    *graph.Graph
	Set  *keys.Set
	Opts Options

	// byType holds the compiled keys per entity type, indexed by TypeID,
	// in the set's per-type order (value-based first); a type without
	// keys has none. dByType is the per-type neighborhood bound d.
	byType  [][]*CompiledKey
	dByType []int
	// vocab is the graph vocabulary the keys were compiled against and
	// unresolvedConst whether some compiled key waits for a constant;
	// Refresh recompiles when they say resolution may have changed.
	vocab           vocab
	unresolvedConst bool
	// pairScratch pools the working memory of ComputePairing
	// (*pairScratch), so each worker reuses one table from call to call.
	pairScratch sync.Pool
}

// vocab sizes the name tables compilation resolves against. All three
// only ever grow, so an unchanged count means an unchanged table.
type vocab struct{ types, preds, nodes int }

// New compiles the key set against g.
func New(g *graph.Graph, set *keys.Set, opts Options) (*Matcher, error) {
	if opts.Obs == nil {
		opts.Obs = new(Obs)
	}
	m := &Matcher{G: g, Set: set, Opts: opts}
	if err := m.compile(); err != nil {
		return nil, err
	}
	return m, nil
}

// compile resolves the key set against the graph's current vocabulary.
// On error the matcher keeps what it had compiled before.
func (m *Matcher) compile() error {
	v := vocab{m.G.NumTypes(), m.G.NumPreds(), m.G.NumNodes()}
	unresolvedConst, leafSlot := false, 0
	byType, dByType := make([][]*CompiledKey, v.types), make([]int, v.types)
	for _, typeName := range m.Set.Types() {
		tid, ok := m.G.TypeByName(typeName)
		if !ok {
			continue // no entities of this type in G
		}
		for _, k := range m.Set.ForType(typeName) {
			ck, err := Compile(m.G, k)
			if err != nil {
				return err
			}
			unresolvedConst = unresolvedConst || ck.unresolvedConst
			ck.leafSlot, leafSlot = leafSlot, leafSlot+len(ck.leaves)
			byType[tid] = append(byType[tid], ck)
		}
		dByType[tid] = m.Set.MaxRadiusForType(typeName)
	}
	m.vocab, m.unresolvedConst, m.byType, m.dByType = v, unresolvedConst, byType, dByType
	return nil
}

// Refresh brings the matcher up to date after the graph mutated: it
// recompiles the key set only when resolution may have changed — the
// graph gained a type or a predicate, or it gained nodes while a key
// waits for a constant.
// Otherwise the compiled keys stay as they are (names resolve to the
// same IDs for the graph's lifetime). Not safe for use concurrently
// with any other method.
func (m *Matcher) Refresh() error {
	now := vocab{m.G.NumTypes(), m.G.NumPreds(), m.G.NumNodes()}
	if now.types == m.vocab.types && now.preds == m.vocab.preds &&
		(now.nodes == m.vocab.nodes || !m.unresolvedConst) {
		return nil
	}
	return m.compile()
}

// KeysFor returns the compiled keys defined on entities of type t.
func (m *Matcher) KeysFor(t graph.TypeID) []*CompiledKey {
	if int(t) >= len(m.byType) {
		return nil // a type the graph gained since the last compile
	}
	return m.byType[t]
}

// KeyedTypes returns the graph type IDs that have keys, sorted.
func (m *Matcher) KeyedTypes() []graph.TypeID {
	var out []graph.TypeID
	for t, cks := range m.byType {
		if len(cks) > 0 {
			out = append(out, graph.TypeID(t))
		}
	}
	return out
}

// Neighborhood returns the d-neighbor of e, where d is the maximum
// radius of the keys on e's type, built afresh on every call: emmr's
// driver asks once per candidate and keeps the set for its run. It
// returns nil (= the whole graph) if e's type has no keys; callers
// only ask for keyed entities.
func (m *Matcher) Neighborhood(e graph.NodeID) *graph.NodeSet {
	t, ok := m.G.EntityType(e)
	if !ok {
		return nil
	}
	if len(m.KeysFor(t)) == 0 {
		return nil
	}
	return m.G.Neighborhood(e, m.dByType[t])
}

// The accessors below expose the compiled pattern structure to the
// vertex-centric engine (package emvc), which drives its own message
// propagation over the product graph but reuses this compilation.

// PatternNodeCount returns the number of pattern nodes.
func (ck *CompiledKey) PatternNodeCount() int { return len(ck.nodes) }

// XIndex returns the index of the designated variable x.
func (ck *CompiledKey) XIndex() int { return ck.x }

// NodeInfo describes pattern node i: its kind (as the pattern package
// kind), resolved entity type (entity-like nodes) and the graph value
// node of a constant (or graph.NoNode).
func (ck *CompiledKey) NodeInfo(i int) (kind pattern.NodeKind, typ graph.TypeID, constID graph.NodeID) {
	n := ck.nodes[i]
	return n.kind, n.typ, n.constID
}

// TripleCount returns |Q|.
func (ck *CompiledKey) TripleCount() int { return len(ck.triples) }

// TripleAt returns pattern triple i with its resolved predicate.
func (ck *CompiledKey) TripleAt(i int) (subj int, pred graph.PredID, obj int) {
	t := ck.triples[i]
	return t.subj, t.pred, t.obj
}

// IncidentTriples returns the indices of triples touching pattern node
// i. The slice is owned by the key.
func (ck *CompiledKey) IncidentTriples(i int) []int { return ck.incident[i] }

// identityEq is the Eq0 view: only (e, e) pairs.
type identityEq struct{}

func (identityEq) Same(a, b int32) bool { return a == b }

// Identity returns the node-identity relation view Eq0.
func Identity() EqView { return identityEq{} }
