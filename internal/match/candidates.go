package match

import (
	"cmp"
	"iter"
	"slices"
	"sort"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// This file holds the operators the candidate pipeline of stream.go is
// composed from — the per-key posting-list joins behind the candidate
// set L of §4.1 and the test that decides which types may use them —
// and the entity-pair dependency index used by the entity-dependency
// and incremental-checking optimizations (§4.2) and by the dep edges of
// the product graph (§5.1).
//
// L is literally every same-type pair on which a key is defined: the
// full C(n, 2) sweep. The joins generate the same chase(G, Σ) from a
// usually far smaller L: under exact value equality, a witness of a key
// with a value anchor (a value variable or constant) must bind that
// anchor to a single interned value node lying in the d-neighborhood of
// both sides (locality, §4.1), so only same-type pairs sharing such a
// value node can ever be identified. Types whose keys do not all carry
// a value anchor, matchers with a custom ValueEq (where distinct value
// nodes can compare equal) and matchers with Options.FullSweep set
// stream the sweep instead, per type.

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
// join the inverted value index instead of sweeping all same-type
// pairs: value equality must be exact (no custom ValueEq, so equal
// literals are one interned node) and every matchable key on t must
// carry a value anchor. A single anchor-free (purely entity-variable)
// key forces the full sweep, since its witnesses need not share any
// value node. For radius-1 types the anchors must additionally hang
// off x itself (they always do when the pattern radius is <= 1 —
// values are never subjects, so a value two pattern hops from x would
// make the radius 2 — but the compiler records the property rather
// than assuming it). Options.FullSweep turns the join off for every
// type.
func (m *Matcher) IndexableType(t graph.TypeID) bool {
	if m.Opts.ValueEq != nil || m.Opts.FullSweep {
		return false
	}
	for _, ck := range m.byType[t] {
		if !ck.Matchable() {
			continue
		}
		if !ck.HasValueAnchor() {
			return false
		}
		if m.dByType[t] <= 1 && (len(ck.xAnchors) == 0 || ck.nonXAnchor) {
			return false
		}
	}
	return true
}

// radius1KeyPartners returns the sorted candidate partners of e for a
// single radius-1 key: the intersection, over the key's x-incident
// value anchors, of the subjects sharing an anchor value with e. A
// constant anchor requires both sides to carry the constant itself, so
// its posting list joins in directly (and e must appear in it); a
// value-variable anchor admits any value node e reaches on the
// anchor's predicate, so those posting lists merge-union first. An
// empty result means no pair (e, q) can be directly identified by this
// key.
//
// The join is planned greedily, statistics-free ("When Greedy Beats
// Optimal", PAPERS.md): constant anchors check first — a binary-search
// membership probe is the cheapest possible rejection — then anchors
// intersect cheapest-first by total posting-list length, so the
// accumulator shrinks as fast as the available lists allow before the
// expensive merges run. Intersection commutes and the reject
// conditions are order-independent, so the result is exactly the
// pattern-order join's.
func (m *Matcher) radius1KeyPartners(ck *CompiledKey, e graph.NodeID) []graph.NodeID {
	if len(ck.xAnchors) == 0 {
		return nil
	}
	ob := m.Opts.Obs
	// Phase 1: membership-probe every constant anchor before pulling
	// any value-variable posting list — a miss rejects e outright.
	for _, a := range ck.xAnchors {
		if a.constID == graph.NoNode {
			continue
		}
		if ob != nil {
			ob.PostingsScanned.Inc()
		}
		if !containsSorted(m.G.ValueSubjects(a.pred, a.constID), e) {
			return nil // e lacks the constant attribute itself
		}
	}
	// Phase 2: gather each anchor's posting lists (unmerged) and its
	// total length as the greedy cost estimate.
	type anchorJoin struct {
		lists [][]graph.NodeID
		cost  int
	}
	joins := make([]anchorJoin, 0, len(ck.xAnchors))
	for _, a := range ck.xAnchors {
		var j anchorJoin
		if a.constID != graph.NoNode {
			lst := m.G.ValueSubjects(a.pred, a.constID)
			j.lists = append(j.lists, lst)
			j.cost = len(lst)
		} else {
			for _, edge := range m.G.Out(e) {
				if edge.Pred != a.pred || !m.G.IsValue(edge.To) {
					continue
				}
				if ob != nil {
					ob.PostingsScanned.Inc()
				}
				lst := m.G.ValueSubjects(edge.Pred, edge.To)
				j.lists = append(j.lists, lst)
				j.cost += len(lst)
			}
		}
		if j.cost == 0 {
			return nil // anchor admits no subject at all
		}
		joins = append(joins, j)
	}
	// Phase 3: intersect cheapest-first. Each anchor's own lists
	// union smallest-first for the same reason.
	slices.SortStableFunc(joins, func(a, b anchorJoin) int { return a.cost - b.cost })
	var acc []graph.NodeID
	for ji, j := range joins {
		lst := foldUnion(j.lists)
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

// containsSorted reports whether x occurs in the sorted list.
func containsSorted(xs []graph.NodeID, x graph.NodeID) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	return i < len(xs) && xs[i] == x
}

// comparePairs compares by (A, B) — the global candidate order — through
// one packed uint64: node IDs are non-negative int32, so the
// lexicographic order survives the pack and the hot comparator is a
// single branch.
func comparePairs(a, b eqrel.Pair) int {
	return cmp.Compare(packPair(a), packPair(b))
}

func packPair(p eqrel.Pair) uint64 {
	return uint64(uint32(p.A))<<32 | uint64(uint32(p.B))
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
