package match

import (
	"cmp"
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
	out := make([]graph.NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
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
// pairs depend on which entities: pair (e1, e2) depends on (e1', e2')
// if the latter lies within the d-neighbors of the former and has the
// type of an entity variable y of some recursive key defined on the
// former (§4.2). The index is keyed by single entities: when (u, v) is
// identified, the union of Dependents(u) and Dependents(v) is the set
// of pairs whose checks may newly succeed.
type DependencyIndex struct {
	pairs      []eqrel.Pair
	dependents map[graph.NodeID][]int
	// valueSeed marks pairs whose type has at least one value-based key:
	// the L0 seed set of the entity-dependency optimization.
	valueSeed []bool
	// recursiveOnly marks pairs whose type has only recursive keys.
	recursiveOnly []bool
}

// depTypeInfo is the per-type metadata the dependency analysis needs,
// hoisted out of the per-pair loop: the L0-seed flag and the entity
// variable types of the type's recursive keys.
type depTypeInfo struct {
	valueSeed bool
	depTypes  map[graph.TypeID]bool
}

func (m *Matcher) depTypeInfos() map[graph.TypeID]depTypeInfo {
	infos := make(map[graph.TypeID]depTypeInfo, len(m.byType))
	for t, cks := range m.byType {
		info := depTypeInfo{
			valueSeed: m.Set.HasValueBasedKeyForType(m.G.TypeName(t)),
			depTypes:  make(map[graph.TypeID]bool),
		}
		for _, ck := range cks {
			if !ck.Key.Recursive {
				continue
			}
			for _, tn := range ck.Key.EntityVarTypes() {
				if tid, ok := m.G.TypeByName(tn); ok {
					info.depTypes[tid] = true
				}
			}
		}
		infos[t] = info
	}
	return infos
}

// BuildDependencyIndexParallel analyzes the candidate list against the
// matcher's key set, with the neighborhood scans — the expensive part —
// computed once per distinct
// entity (candidate pairs share sides heavily: n entities induce up to
// n(n-1)/2 pairs) and fanned out across workers. A pair's dependency
// entities are then the merge-join union of its two sides' sorted
// contributions; the merge into the entity-keyed index runs
// sequentially in pair order, so the dependent lists are identical to
// the sequential build's. On a lazy matcher the scans run
// sequentially regardless of workers: Neighborhood fills the lazy
// cache on miss, which is not safe concurrently.
func (m *Matcher) BuildDependencyIndexParallel(pairs []eqrel.Pair, workers int) *DependencyIndex {
	if m.Opts.Lazy {
		workers = 1
	}
	idx := &DependencyIndex{
		pairs:         pairs,
		dependents:    make(map[graph.NodeID][]int),
		valueSeed:     make([]bool, len(pairs)),
		recursiveOnly: make([]bool, len(pairs)),
	}
	infos := m.depTypeInfos()

	// Distinct pair sides, in first-appearance order.
	sideIdx := make(map[graph.NodeID]int)
	var sides []graph.NodeID
	for _, pr := range pairs {
		for _, n := range [2]graph.NodeID{graph.NodeID(pr.A), graph.NodeID(pr.B)} {
			if _, ok := sideIdx[n]; !ok {
				sideIdx[n] = len(sides)
				sides = append(sides, n)
			}
		}
	}

	// Per-side contribution: the entities of a dependency type in the
	// side's d-neighborhood, ascending (Each enumerates in ID order).
	sideDeps := make([][]graph.NodeID, len(sides))
	engine.Parallel(m.Opts.Eng, workers, len(sides), func(i int) {
		e := sides[i]
		info := infos[m.G.TypeOf(e)]
		if len(info.depTypes) == 0 {
			return
		}
		var deps []graph.NodeID
		m.Neighborhood(e).Each(func(n graph.NodeID) {
			if t, ok := m.G.EntityType(n); ok && info.depTypes[t] {
				deps = append(deps, n)
			}
		})
		sideDeps[i] = deps
	})

	var scratch []graph.NodeID
	for i, pr := range pairs {
		a, b := graph.NodeID(pr.A), graph.NodeID(pr.B)
		info := infos[m.G.TypeOf(a)]
		idx.valueSeed[i] = info.valueSeed
		idx.recursiveOnly[i] = !info.valueSeed
		if len(info.depTypes) == 0 {
			continue
		}
		da, db := sideDeps[sideIdx[a]], sideDeps[sideIdx[b]]
		// Merge-join union of the two sorted sides, excluding the pair's
		// own members: an entity in both neighborhoods registers once.
		scratch = scratch[:0]
		x, y := 0, 0
		for x < len(da) || y < len(db) {
			var n graph.NodeID
			switch {
			case y == len(db) || (x < len(da) && da[x] < db[y]):
				n = da[x]
				x++
			case x == len(da) || db[y] < da[x]:
				n = db[y]
				y++
			default:
				n = da[x]
				x++
				y++
			}
			if n != a && n != b {
				scratch = append(scratch, n)
			}
		}
		for _, n := range scratch {
			idx.dependents[n] = append(idx.dependents[n], i)
		}
	}
	return idx
}

// Pairs returns the candidate list the index was built over.
func (d *DependencyIndex) Pairs() []eqrel.Pair { return d.pairs }

// Links counts the entity→pair dependency registrations: the dep-edge
// volume of the product graph in §5.1.
func (d *DependencyIndex) Links() int {
	n := 0
	for _, ds := range d.dependents {
		n += len(ds)
	}
	return n
}

// Dependents returns the indices (into Pairs) of candidate pairs that
// depend on entity n.
func (d *DependencyIndex) Dependents(n graph.NodeID) []int { return d.dependents[n] }

// HasValueSeed reports whether pair i belongs to the L0 seed set: its
// type has a value-based key, so it can be identified without waiting
// for any other pair.
func (d *DependencyIndex) HasValueSeed(i int) bool { return d.valueSeed[i] }

// RecursiveOnly reports whether pair i can only be identified by
// recursive keys.
func (d *DependencyIndex) RecursiveOnly(i int) bool { return d.recursiveOnly[i] }
