package match

import (
	"iter"
	"slices"
	"sort"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// This file is the candidate pipeline — the one construction of the
// candidate set L of §4.1 — built as lazy iterator composition ("From
// Volcano to Lazy Sequences", PAPERS.md). CandidateStream yields L one
// pair at a time, straight out of the leaf-path join: the consumer's key
// checks run while generation is still cold, nothing is materialized,
// and an early-terminating consumer (a violation probe, a capped scan)
// stops the join mid-flight.
//
// Both streams read one relation, join.row: the candidate partners of
// an entity — the leaf-path join of candidates.go on an indexable type,
// the whole same-type population (the literal definition, and the
// reference the differential tests compare against) otherwise.
// PartnerStream is a row; L is the upper triangle of the rows of the
// keyed entities in ascending ID, which is the global (A, B) order the
// chase relies on, every pair once. One loop, rows, yields the triangle
// over a range of those entities on a join of its own: CandidateStream
// runs it over the whole list, and CandidateRanges cuts the list into
// consecutive ranges (engine.Chunks) that workers generate side by
// side — the parallel chase checks each range's pairs on the worker
// that generated them, and Candidates collects the ranges and
// concatenates them in range order, which is CandidateStream's order.

// CandidateStream returns the candidate set L of §4.1 as a lazy
// iterator, strictly ascending by (A, B): for each keyed type with a
// matchable key, the pairs the leaf-path join says a key could
// identify, or every same-type pair where the join does not apply (see
// IndexableType). Breaking out of the loop stops generation; no
// candidate list is ever materialized.
func (m *Matcher) CandidateStream() iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) {
		m.rows(m.candidateEntities(), yield)
	}
}

// CandidateRanges returns L cut for a parallel caller on workers: one
// lazy stream per consecutive range of the keyed entities, as many as
// engine.Chunks gives, each generating its range's rows on a join of
// its own, so distinct ranges may run on distinct goroutines. Their
// concatenation in range order is CandidateStream, pair for pair.
func (m *Matcher) CandidateRanges(workers int) []iter.Seq[eqrel.Pair] {
	ents := m.candidateEntities()
	k := engine.Chunks(workers, len(ents))
	parts := make([]iter.Seq[eqrel.Pair], k)
	for c := range parts {
		lo, hi := engine.ChunkRange(c, k, len(ents))
		parts[c] = func(yield func(eqrel.Pair) bool) { m.rows(ents[lo:hi], yield) }
	}
	return parts
}

// Candidates collects L on workers: each range of CandidateRanges on
// an engine.Parallel worker, concatenated in range order, so the list
// is slices.Collect(m.CandidateStream()).
func (m *Matcher) Candidates(workers int) []eqrel.Pair {
	parts := m.CandidateRanges(workers)
	lists := make([][]eqrel.Pair, len(parts))
	engine.Parallel(m.Opts.Eng, workers, len(parts), func(c int) {
		lists[c] = slices.Collect(parts[c])
	})
	return slices.Concat(lists...)
}

// candidateEntities returns, ascending, the entities whose rows make up
// L: those of every keyed type with a matchable key.
func (m *Matcher) candidateEntities() []graph.NodeID {
	types := slices.DeleteFunc(m.KeyedTypes(), func(t graph.TypeID) bool { return !m.hasMatchableKey(t) })
	n := 0
	for _, t := range types {
		n += len(m.G.EntitiesOfType(t))
	}
	ents := make([]graph.NodeID, 0, n)
	for _, t := range types {
		ents = append(ents, m.G.EntitiesOfType(t)...)
	}
	slices.Sort(ents)
	return ents
}

// rows yields, for each entity e of ents in order, the pairs (e, q) of
// e's row with q > e, on a join of its own, until yield returns false.
// CandidatesStreamed counts a row's pairs once the row is done or the
// consumer broke out of it.
func (m *Matcher) rows(ents []graph.NodeID, yield func(eqrel.Pair) bool) {
	ob := m.Opts.Obs
	j := &join{m: m, members: make(map[uint64][]graph.NodeID)}
	for _, e := range ents {
		row := j.row(m.G.TypeOf(e), e)
		i := sort.Search(len(row), func(i int) bool { return row[i] > e })
		for k, q := range row[i:] {
			if !yield(eqrel.MakePair(int32(e), int32(q))) {
				ob.CandidatesStreamed.Add(int64(k + 1))
				return
			}
		}
		if n := len(row) - i; n > 0 {
			ob.CandidatesStreamed.Add(int64(n))
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
