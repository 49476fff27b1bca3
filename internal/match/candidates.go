package match

import (
	"iter"
	"slices"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// This file holds the operators the candidate pipeline of stream.go is
// composed from — the leaf-path join behind the candidate set L of §4.1
// and the test that decides which types may use it — and the
// entity-pair dependency index used by the entity-dependency and
// incremental-checking optimizations (§4.2) and by the dep edges of the
// product graph (§5.1).
//
// L is literally every same-type pair on which a key is defined: the
// full C(n, 2) sweep. The join generates the same chase(G, Σ) from a
// usually far smaller L (soundness: the package comment). Types with a
// matchable key that has no value leaf, matchers with a custom ValueEq
// (where distinct value nodes can compare equal) and matchers with
// Options.FullSweep set stream the sweep instead, per type.

// hasMatchableKey reports whether any key on t can match at all in the
// compiled graph; a type whose keys all reference absent predicates,
// types or constants needs no candidates.
func (m *Matcher) hasMatchableKey(t graph.TypeID) bool {
	for _, ck := range m.byType[t] {
		if ck.Matchable() {
			return true
		}
	}
	return false
}

// IndexableType reports whether candidate generation for type t may
// join on the keys' leaf paths instead of sweeping all same-type pairs:
// value equality must be exact (no custom ValueEq, so equal literals
// are one interned node) and every matchable key on t must have a value
// leaf. A single leaf-free (purely entity-variable) key forces the full
// sweep, since its witnesses need not share any value node.
// Options.FullSweep turns the join off for every type.
func (m *Matcher) IndexableType(t graph.TypeID) bool {
	if m.Opts.ValueEq != nil || m.Opts.FullSweep {
		return false
	}
	for _, ck := range m.byType[t] {
		if ck.Matchable() && len(ck.leaves) == 0 {
			return false
		}
	}
	return true
}

// join is the state of one run of the leaf-path join: a whole
// CandidateStream, or one PartnerStream row.
type join struct {
	m *Matcher
	// members memoizes walkBack per (key, leaf, value node) for the
	// run's lifetime, so a value many entities reach is walked back
	// once; nil (a single row asks for each list once) turns it off. It
	// never outlives the stream, so it never sees a mutation.
	members map[memberKey][]graph.NodeID
}

type memberKey struct {
	ck   *CompiledKey
	leaf int
	v    graph.NodeID
}

// row returns the candidate partners of the type-t entity e — every
// type-t entity some key could identify e with — sorted, e itself
// possibly among them: on an indexable type the union of keyPartners
// over the matchable keys, otherwise the whole type-t population.
func (j *join) row(t graph.TypeID, e graph.NodeID) []graph.NodeID {
	m := j.m
	if !m.IndexableType(t) {
		return m.G.EntitiesOfType(t)
	}
	var lists [][]graph.NodeID
	for _, ck := range m.byType[t] {
		if !ck.Matchable() {
			continue
		}
		if lst := j.keyPartners(ck, e); len(lst) > 0 {
			lists = append(lists, lst)
		}
	}
	partners := foldUnion(lists)
	// A raw posting list holds the subjects of every type, and may be
	// the graph's own slice.
	offType := func(q graph.NodeID) bool { return m.G.TypeOf(q) != t }
	if slices.ContainsFunc(partners, offType) {
		partners = slices.DeleteFunc(slices.Clone(partners), offType)
	}
	return partners
}

// keyPartners returns the sorted candidate partners of e for one key:
// the intersection, over the key's value leaves, of the entities that
// reach along the leaf's path a value node e reaches along it. A
// constant leaf requires both sides to reach the constant itself, so
// the constant's members join in directly (and e must be one); a
// value-variable leaf admits any value node e reaches, so those
// members merge-union first. An empty result means no pair (e, q) can
// be directly identified by this key.
//
// The join is planned greedily, statistics-free ("When Greedy Beats
// Optimal", PAPERS.md): constant leaves check first — walking e's own
// edges to the constant is the cheapest possible rejection — then
// leaves intersect cheapest-first by total list length, so the
// accumulator shrinks as fast as the available lists allow before the
// expensive merges run. Intersection commutes and the reject conditions
// are order-independent, so the result is exactly the pattern-order
// join's.
func (j *join) keyPartners(ck *CompiledKey, e graph.NodeID) []graph.NodeID {
	m, ob := j.m, j.m.Opts.Obs
	constant := func(path []hop) bool { return ck.nodes[path[len(path)-1].to].kind == kConst }
	// Phase 1: walk e's own edges, constant leaves first (the order of
	// ck.leaves) — a leaf e does not reach rejects e outright. A
	// constant leaf counts its one list here, as it is probed.
	reached := make([][]graph.NodeID, len(ck.leaves))
	for li, path := range ck.leaves {
		if ob != nil && constant(path) {
			ob.PostingsScanned.Inc()
		}
		if reached[li] = m.walk(ck, path, e); len(reached[li]) == 0 {
			return nil
		}
	}
	// Phase 2: pull each leaf's member lists (unmerged) and their total
	// length as the greedy cost estimate.
	type leafJoin struct {
		lists [][]graph.NodeID
		cost  int
	}
	joins := make([]leafJoin, len(ck.leaves))
	for li, path := range ck.leaves {
		lj := &joins[li]
		for _, v := range reached[li] {
			if ob != nil && !constant(path) {
				ob.PostingsScanned.Inc()
			}
			lst := j.leafMembers(ck, li, v)
			lj.lists = append(lj.lists, lst)
			lj.cost += len(lst)
		}
	}
	// Phase 3: intersect cheapest-first. Each leaf's own lists union
	// smallest-first for the same reason.
	slices.SortStableFunc(joins, func(a, b leafJoin) int { return a.cost - b.cost })
	var acc []graph.NodeID
	for ji, lj := range joins {
		lst := foldUnion(lj.lists)
		if ji == 0 {
			acc = lst
		} else {
			acc = mergeIntersect(acc, lst)
		}
		if len(acc) == 0 {
			return nil
		}
	}
	return acc
}

// leafMembers returns the sorted entities that reach value node v along
// leaf li of ck. One hop forward it is the graph's posting list of
// (predicate, v), subjects of every type; a longer path is walked back
// from v and holds entities of x's type only.
func (j *join) leafMembers(ck *CompiledKey, li int, v graph.NodeID) []graph.NodeID {
	path := ck.leaves[li]
	if len(path) == 1 && path[0].out {
		return j.m.G.ValueSubjects(path[0].pred, v)
	}
	k := memberKey{ck, li, v}
	lst, ok := j.members[k]
	if !ok {
		lst = j.m.walkBack(ck, path, v)
		if j.members != nil {
			j.members[k] = lst
		}
	}
	return lst
}

// walk follows a leaf path from x bound to e and returns, sorted, the
// value nodes it reaches through nodes that satisfy each pattern node's
// local constraint.
func (m *Matcher) walk(ck *CompiledKey, path []hop, e graph.NodeID) []graph.NodeID {
	cur := []graph.NodeID{e}
	for _, hp := range path {
		cur = m.step(cur, hp.pred, hp.out, ck.nodes[hp.to])
	}
	return cur
}

// walkBack follows a leaf path in reverse from its leaf bound to v and
// returns, sorted, the entities of x's type it reaches: e is among them
// exactly when v is in walk(ck, path, e).
func (m *Matcher) walkBack(ck *CompiledKey, path []hop, v graph.NodeID) []graph.NodeID {
	cur := []graph.NodeID{v}
	for i := len(path) - 1; i >= 0; i-- {
		near := ck.x
		if i > 0 {
			near = path[i-1].to
		}
		cur = m.step(cur, path[i].pred, !path[i].out, ck.nodes[near])
	}
	return cur
}

// step returns, sorted, the nodes one pred-edge (out of, or into) the
// nodes of from that pattern node n admits.
func (m *Matcher) step(from []graph.NodeID, pred graph.PredID, out bool, n compiledNode) []graph.NodeID {
	var next []graph.NodeID
	for _, f := range from {
		for _, ed := range m.edges(f, out) {
			if ed.Pred == pred && m.admits(n, ed.To) {
				next = append(next, ed.To)
			}
		}
	}
	slices.Sort(next)
	return slices.Compact(next)
}

// admits is pattern node n's local constraint on a graph node: the
// constant itself, a value, or an entity of n's type.
func (m *Matcher) admits(n compiledNode, v graph.NodeID) bool {
	switch n.kind {
	case kConst:
		return v == n.constID
	case kValueVar:
		return m.G.IsValue(v)
	default: // designated, entity variable, wildcard
		return m.G.IsEntityOfType(v, n.typ)
	}
}

// foldUnion merge-unions the sorted lists smallest-first (cheapest
// merges run while the accumulator is small; union commutes, so the
// fold order never changes the result). The lists slice is reordered
// in place; the lists themselves are never mutated.
func foldUnion(lists [][]graph.NodeID) []graph.NodeID {
	slices.SortStableFunc(lists, func(a, b []graph.NodeID) int { return len(a) - len(b) })
	var acc []graph.NodeID
	for _, l := range lists {
		acc = mergeUnion(acc, l)
	}
	return acc
}

// mergeUnion merge-joins two sorted NodeID lists into their sorted
// union. It never mutates its inputs (posting lists are graph-owned);
// when one side is empty the other is returned as is.
func mergeUnion(a, b []graph.NodeID) []graph.NodeID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return graph.UnionSorted(a, b)
}

// mergeIntersect merge-joins two sorted NodeID lists into their sorted
// intersection, without mutating either.
func mergeIntersect(a, b []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case b[j] < a[i]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// DependencyIndex records, for a fixed candidate list, which candidate
// pairs depend on which entities: pair (e1, e2) depends on entity n if
// n lies within the d-neighbor of e1 or of e2, is neither of them, and
// has the type of an entity variable y of some recursive key defined on
// the pair's type (§4.2). When (u, v) is identified, the pairs that
// depend on a member of the merged class are the ones whose checks may
// newly succeed.
//
// The relation is kept factorised, entity → sides ⋈ side → pairs, and
// never multiplied out: n entities induce up to n(n-1)/2 pairs over n
// sides, and what an entity reaches is a side's d-neighbor, not a pair.
// The index is read-only after the build and safe for concurrent use.
type DependencyIndex struct {
	pairs []eqrel.Pair
	// reaches lists, per entity, the sides (by index) whose d-neighbor
	// holds it with a dependency type of the side's type.
	reaches map[graph.NodeID][]int32
	// sidePairs lists, per side, the indices of the pairs it belongs
	// to, ascending.
	sidePairs [][]int32
}

// depTypes returns, per keyed type, the entity-variable types of the
// type's recursive keys: the types an entity must have for a pair of
// the keyed type to depend on it.
func (m *Matcher) depTypes() map[graph.TypeID]map[graph.TypeID]bool {
	out := make(map[graph.TypeID]map[graph.TypeID]bool, len(m.byType))
	for t, cks := range m.byType {
		for _, ck := range cks {
			if !ck.Key.Recursive {
				continue
			}
			for _, tn := range ck.Key.EntityVarTypes() {
				if tid, ok := m.G.TypeByName(tn); ok {
					if out[t] == nil {
						out[t] = make(map[graph.TypeID]bool)
					}
					out[t][tid] = true
				}
			}
		}
	}
	return out
}

// BuildDependencyIndexParallel analyzes the candidate list against the
// matcher's key set. The neighborhood scans — the expensive part — run
// once per distinct side (candidate pairs share sides heavily) and fan
// out across workers; inverting them into the entity-keyed table runs
// sequentially in side order. The cost is the sum of the sides'
// contributions plus one pass over the pairs.
func (m *Matcher) BuildDependencyIndexParallel(pairs []eqrel.Pair, workers int) *DependencyIndex {
	idx := &DependencyIndex{pairs: pairs, reaches: make(map[graph.NodeID][]int32)}

	// Distinct pair sides, in first-appearance order, each with the
	// pairs it belongs to.
	sideIdx := make(map[int32]int)
	var sides []graph.NodeID
	for i, pr := range pairs {
		for _, n := range [2]int32{pr.A, pr.B} {
			s, ok := sideIdx[n]
			if !ok {
				s = len(sides)
				sideIdx[n] = s
				sides = append(sides, graph.NodeID(n))
				idx.sidePairs = append(idx.sidePairs, nil)
			}
			idx.sidePairs[s] = append(idx.sidePairs[s], int32(i))
		}
	}

	// Per-side contribution: the entities of a dependency type in the
	// side's d-neighborhood.
	depTypes := m.depTypes()
	sideDeps := make([][]graph.NodeID, len(sides))
	engine.Parallel(m.Opts.Eng, workers, len(sides), func(i int) {
		e := sides[i]
		types := depTypes[m.G.TypeOf(e)]
		if len(types) == 0 {
			return
		}
		var deps []graph.NodeID
		m.Neighborhood(e).Each(func(n graph.NodeID) {
			if t, ok := m.G.EntityType(n); ok && types[t] {
				deps = append(deps, n)
			}
		})
		sideDeps[i] = deps
	})
	for s, deps := range sideDeps {
		for _, n := range deps {
			idx.reaches[n] = append(idx.reaches[n], int32(s))
		}
	}
	return idx
}

// Entries counts the entity→side registrations the index holds: its
// size, next to one side→pair entry per pair side.
func (d *DependencyIndex) Entries() int {
	n := 0
	for _, sides := range d.reaches {
		n += len(sides)
	}
	return n
}

// reachers is what a side remembers of the changed entities that reach
// it: the first three distinct ones. A pair does not depend on its own
// two members, so of three distinct reachers one always counts; with
// fewer, each is compared.
type reachers struct {
	n [3]int32
	k int
}

// Active returns the indices (into the candidate list), ascending, of
// the pairs that depend on at least one of the changed entities: it
// marks the sides each changed entity reaches, then visits the pairs of
// the marked sides.
func (d *DependencyIndex) Active(changed iter.Seq[int32]) []int {
	marks := make(map[int32]reachers)
	for e := range changed {
		for _, s := range d.reaches[graph.NodeID(e)] {
			r := marks[s]
			if r.k < len(r.n) && !slices.Contains(r.n[:r.k], e) {
				r.n[r.k] = e
				r.k++
				marks[s] = r
			}
		}
	}
	var active []int
	for s, r := range marks {
		for _, i := range d.sidePairs[s] {
			pr := d.pairs[i]
			if slices.ContainsFunc(r.n[:r.k], func(e int32) bool { return e != pr.A && e != pr.B }) {
				active = append(active, int(i))
			}
		}
	}
	// A pair reached through both of its sides was appended twice.
	slices.Sort(active)
	return slices.Compact(active)
}
