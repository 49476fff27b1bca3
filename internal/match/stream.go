package match

import (
	"cmp"
	"iter"
	"slices"
	"sort"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// This file is the candidate pipeline — the one construction of the
// candidate set L of §4.1 — built as lazy iterator composition ("From
// Volcano to Lazy Sequences", PAPERS.md). CandidateStream yields L one
// pair at a time, straight out of the posting-list and value-bucket
// merge-joins: the consumer's key checks run while generation is still
// cold, nothing is materialized, and an early-terminating consumer (a
// violation probe, a capped scan) stops the joins mid-flight. A caller
// that needs all of L at once (the MapReduce and vertex-centric
// drivers) collects it with slices.Collect.
//
// Each keyed type contributes one sorted per-type stage, chosen by
// typeStream: the full C(n, 2) sweep — the literal definition, and the
// reference the differential tests compare against — for types
// IndexableType rejects, posting-list joins at radius 1, value-bucket
// joins beyond.
//
// Laziness also changes what planning can do. The stream visits
// entities in sorted order to begin with, so per-type key evaluation
// can reorder greedily by the partner cardinality each key has
// produced so far (statistics-free, "When Greedy Beats Optimal"), and
// each key's anchor intersection runs cheapest-first inside
// radius1KeyPartners. Every reordered operator commutes (unions and
// intersections of partner sets), so the emitted sequence does not
// depend on the plan.
//
// Ordering invariant, relied on by the chase: each per-type stream
// emits pairs strictly ascending by (A, B), types are visited in
// KeyedTypes order, and distinct types yield disjoint pair populations
// (an entity has one type), so a k-way merge over the per-type streams
// emits every pair once, in the global comparePairs order.

// CandidateStream returns the candidate set L of §4.1 as a lazy
// iterator, strictly ascending by (A, B): for each keyed type with a
// matchable key, the pairs the inverted value index says a key could
// identify, or every same-type pair where the index does not apply
// (see IndexableType). Breaking out of the loop stops generation; no
// candidate list is ever materialized.
func (m *Matcher) CandidateStream() iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		ob := m.Opts.Obs
		emit := func(pr eqrel.Pair) bool {
			if ob != nil {
				ob.CandidatesStreamed.Inc()
			}
			return yield(pr)
		}
		var types []graph.TypeID
		for _, t := range m.KeyedTypes() {
			if m.hasMatchableKey(t) {
				types = append(types, t)
			}
		}
		switch len(types) {
		case 0:
			return
		case 1:
			// Single-type fast path: no merge machinery, no Pull
			// goroutines.
			for pr := range m.typeStream(types[0]) {
				if !emit(pr) {
					return
				}
			}
			return
		}
		// K-way merge over the per-type streams. Pair populations are
		// disjoint across types (one type per entity) and each stream
		// is sorted, so picking the smallest head yields the global
		// comparePairs order.
		nexts := make([]func() (eqrel.Pair, bool), len(types))
		heads := make([]eqrel.Pair, len(types))
		alive := make([]bool, len(types))
		for i, t := range types {
			next, stop := iter.Pull(m.typeStream(t))
			defer stop()
			nexts[i] = next
			heads[i], alive[i] = next()
		}
		for {
			best := -1
			for i := range heads {
				if alive[i] && (best < 0 || comparePairs(heads[i], heads[best]) < 0) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			if !emit(heads[best]) {
				return
			}
			heads[best], alive[best] = nexts[best]()
		}
	}
}

// FilterStream lazily applies the pairing necessary condition (§4.2
// "Reducing L") to a candidate stream — pairs no key can pair are
// dropped — counting what it prunes before any key check runs.
func (m *Matcher) FilterStream(s iter.Seq[eqrel.Pair]) iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		ob := m.Opts.Obs
		for pr := range s {
			if !m.CanBePaired(graph.NodeID(pr.A), graph.NodeID(pr.B)) {
				if ob != nil {
					ob.CandidatesPruned.Inc()
				}
				continue
			}
			if !yield(pr) {
				return
			}
		}
	}
}

// typeStream streams the sorted candidate pairs of one keyed type:
// full C(n, 2) sweep for non-indexable types, posting-list joins at
// radius 1, value-bucket joins beyond.
func (m *Matcher) typeStream(t graph.TypeID) iter.Seq[eqrel.Pair] {
	if !m.IndexableType(t) {
		return m.sweepStream(t)
	}
	if m.dByType[t] <= 1 {
		return m.radius1Stream(t)
	}
	return m.radiusDStream(t)
}

// sortedEntitiesOfType clones and sorts the live type-t population:
// EntitiesOfType maintains append order, and the streams need
// ascending IDs so that emitting each pair from its smaller side
// yields (A, B)-sorted output without a sort at the end.
func (m *Matcher) sortedEntitiesOfType(t graph.TypeID) []graph.NodeID {
	ents := slices.Clone(m.G.EntitiesOfType(t))
	slices.Sort(ents)
	return ents
}

// sweepStream yields every unordered pair of distinct type-t entities
// in sorted order — the lazy full sweep.
func (m *Matcher) sweepStream(t graph.TypeID) iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		ents := m.sortedEntitiesOfType(t)
		for i := 0; i < len(ents); i++ {
			for j := i + 1; j < len(ents); j++ {
				if !yield(eqrel.MakePair(int32(ents[i]), int32(ents[j]))) {
					return
				}
			}
		}
	}
}

// radius1Stream streams a radius-1 type's candidates from per-entity
// posting-list joins. With d = 1 every value anchor is a direct object
// of x (values are never subjects), so a witness of key Q at (e1, e2)
// binds each anchor (x, p, a) of Q to one value node shared by both
// sides: per key, the partner set of e is radius1KeyPartners' join;
// partner sets union across keys, and each unordered pair is emitted
// once, from its smaller side. Keys are re-planned as the stream runs: before each entity they reorder
// ascending by the mean partner cardinality observed so far, so the
// keys that have been producing small partner sets — the ones most
// likely to keep the union small — evaluate first. The union across
// keys commutes, so the ordering changes cost, never output.
func (m *Matcher) radius1Stream(t graph.TypeID) iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		type keyStat struct {
			ck       *CompiledKey
			total, n int64
		}
		var ks []*keyStat
		for _, ck := range m.byType[t] {
			if ck.Matchable() {
				ks = append(ks, &keyStat{ck: ck})
			}
		}
		mean := func(s *keyStat) int64 {
			if s.n == 0 {
				return 0 // unobserved keys try early, cheaply probing themselves
			}
			return s.total / s.n
		}
		var lists [][]graph.NodeID
		for _, e := range m.sortedEntitiesOfType(t) {
			slices.SortStableFunc(ks, func(a, b *keyStat) int {
				return cmp.Compare(mean(a), mean(b))
			})
			lists = lists[:0]
			for _, s := range ks {
				lst := m.radius1KeyPartners(s.ck, e)
				s.total += int64(len(lst))
				s.n++
				if len(lst) > 0 {
					lists = append(lists, lst)
				}
			}
			partners := foldUnion(lists)
			// partners is sorted: skip ahead to the first q > e.
			i := sort.Search(len(partners), func(i int) bool { return partners[i] > e })
			for _, q := range partners[i:] {
				// Posting subjects are live entities by construction;
				// only the type needs checking.
				if m.G.TypeOf(q) == t {
					if !yield(eqrel.MakePair(int32(e), int32(q))) {
						return
					}
				}
			}
		}
	}
}

// radiusDStream streams candidates for a type with radius d > 1, where
// a value anchor may sit several hops from x: a witness still binds it
// to a single value node inside the d-neighborhood of both sides, so e
// and q are candidates exactly when some value node v lies in both
// d-neighborhoods. Per entity the stream pulls the type-t members of
// each value node it can see (memoized for the stream's lifetime, so
// each bucket is computed once) and emits the union's tail past e;
// symmetry of the undirected d-neighborhood (q ∈ Reach(v, d) ⟺
// v ∈ N_d(q)) lets a bucket be computed from v's side.
func (m *Matcher) radiusDStream(t graph.TypeID) iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		d := m.dByType[t]
		members := make(map[graph.NodeID][]graph.NodeID)
		var lists [][]graph.NodeID
		for _, e := range m.sortedEntitiesOfType(t) {
			lists = lists[:0]
			m.Neighborhood(e).Each(func(n graph.NodeID) {
				if !m.G.IsValue(n) {
					return
				}
				lst, ok := members[n]
				if !ok {
					lst = m.bucketMembers(n, t, d)
					members[n] = lst
				}
				if len(lst) > 0 {
					lists = append(lists, lst)
				}
			})
			partners := foldUnion(lists)
			i := sort.Search(len(partners), func(i int) bool { return partners[i] > e })
			for _, q := range partners[i:] {
				if !yield(eqrel.MakePair(int32(e), int32(q))) {
					return
				}
			}
		}
	}
}

// bucketMembers returns the sorted type-t entities whose d-neighborhood
// contains value node v, computed from v's side via neighborhood
// symmetry.
func (m *Matcher) bucketMembers(v graph.NodeID, t graph.TypeID, d int) []graph.NodeID {
	if ob := m.Opts.Obs; ob != nil {
		ob.PostingsScanned.Inc()
	}
	var out []graph.NodeID
	m.Reach(v, d).Each(func(q graph.NodeID) {
		if m.G.IsEntityOfType(q, t) {
			out = append(out, q)
		}
	})
	return out
}

// PartnerStream returns the candidate partners of entity e — the
// other same-type entities a key on e's type could possibly identify
// e with, ascending — as a lazy iterator: the row of e in the symmetric
// closure of CandidateStream. On an indexable type partners come from
// the inverted value index — for radius 1 by direct posting-list
// lookups on e's value out-edges, for larger radius by reaching d hops
// out of each value node in e's d-neighborhood — otherwise the whole
// same-type population streams. The incremental engine (internal/inc)
// collects this per affected entity when repairing the fixpoint after
// a delta.
func (m *Matcher) PartnerStream(e graph.NodeID) iter.Seq[graph.NodeID] {
	return func(yield func(graph.NodeID) bool) {
		t := m.G.TypeOf(e)
		if !m.hasMatchableKey(t) {
			return
		}
		if !m.IndexableType(t) {
			for _, q := range m.sortedEntitiesOfType(t) {
				if q != e && !yield(q) {
					return
				}
			}
			return
		}
		d := m.dByType[t]
		if d <= 1 {
			var lists [][]graph.NodeID
			for _, ck := range m.byType[t] {
				if !ck.Matchable() {
					continue
				}
				if lst := m.radius1KeyPartners(ck, e); len(lst) > 0 {
					lists = append(lists, lst)
				}
			}
			for _, q := range foldUnion(lists) {
				if q == e || m.G.TypeOf(q) != t {
					continue
				}
				if !yield(q) {
					return
				}
			}
			return
		}
		var lists [][]graph.NodeID
		m.Neighborhood(e).Each(func(n graph.NodeID) {
			if !m.G.IsValue(n) {
				return
			}
			if lst := m.bucketMembers(n, t, d); len(lst) > 0 {
				lists = append(lists, lst)
			}
		})
		for _, q := range foldUnion(lists) {
			if q != e && !yield(q) {
				return
			}
		}
	}
}
