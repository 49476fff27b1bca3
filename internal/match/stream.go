package match

import (
	"iter"
	"slices"
	"sort"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// This file is the candidate pipeline — the one construction of the
// candidate set L of §4.1 — built as lazy iterator composition ("From
// Volcano to Lazy Sequences", PAPERS.md). CandidateStream yields L one
// pair at a time, straight out of the leaf-path join: the consumer's key
// checks run while generation is still cold, nothing is materialized,
// and an early-terminating consumer (a violation probe, a capped scan)
// stops the join mid-flight. A caller that needs all of L at once (the
// MapReduce and vertex-centric drivers) collects it with slices.Collect.
//
// Both streams read one relation, join.row: the candidate partners of
// an entity — the leaf-path join of candidates.go on an indexable type,
// the whole same-type population (the literal definition, and the
// reference the differential tests compare against) otherwise.
// PartnerStream is a row; CandidateStream is the upper triangle of the
// rows of the keyed entities in ascending ID, which is the global
// (A, B) order the chase relies on, every pair once.

// CandidateStream returns the candidate set L of §4.1 as a lazy
// iterator, strictly ascending by (A, B): for each keyed type with a
// matchable key, the pairs the leaf-path join says a key could
// identify, or every same-type pair where the join does not apply (see
// IndexableType). Breaking out of the loop stops generation; no
// candidate list is ever materialized.
func (m *Matcher) CandidateStream() iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		ob := m.Opts.Obs
		var ents []graph.NodeID
		for _, t := range m.KeyedTypes() {
			if m.hasMatchableKey(t) {
				ents = append(ents, m.G.EntitiesOfType(t)...)
			}
		}
		slices.Sort(ents)
		j := &join{m: m, members: make(map[memberKey][]graph.NodeID)}
		for _, e := range ents {
			row := j.row(m.G.TypeOf(e), e)
			i := sort.Search(len(row), func(i int) bool { return row[i] > e })
			for _, q := range row[i:] {
				if ob != nil {
					ob.CandidatesStreamed.Inc()
				}
				if !yield(eqrel.MakePair(int32(e), int32(q))) {
					return
				}
			}
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

// PartnerStream returns the candidate partners of entity e — the
// other same-type entities a key on e's type could possibly identify
// e with, ascending — as a lazy iterator: the row of e in the symmetric
// closure of CandidateStream (the partner relation is symmetric: two
// entities reaching a common value along a path look the same from both
// sides). The incremental engine (internal/inc) collects this per
// affected entity when repairing the fixpoint after a delta.
func (m *Matcher) PartnerStream(e graph.NodeID) iter.Seq[graph.NodeID] {
	return func(yield func(graph.NodeID) bool) {
		t := m.G.TypeOf(e)
		if !m.hasMatchableKey(t) {
			return
		}
		j := &join{m: m}
		for _, q := range j.row(t, e) {
			if q != e && !yield(q) {
				return
			}
		}
	}
}
