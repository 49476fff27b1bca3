package match

import (
	"iter"
	"math/bits"
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
// keyed entities in ascending ID (less those a grouping pass finds
// empty), which is the global (A, B) order the chase relies on, every
// pair once. One loop, rows, yields the triangle over a range of those
// entities on a join of its own: CandidateStream runs it over the whole
// list, and CandidateRanges cuts the list into consecutive ranges
// (engine.Chunks) that workers generate side by side — the parallel
// chase checks each range's pairs on the worker that generated them,
// and Candidates collects the ranges and concatenates them in range
// order, which is CandidateStream's order.

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
// L: of every keyed type with a matchable key, all, or on an indexable
// type those that, under some key, reach on its groupLeaf a value another
// entity of the type reaches. A partner q ≠ e under a key shares a value
// with e on every leaf, so the row of an entity left out holds at most e.
// A leaf's hits clear the words they set, so no pass clears whole sets.
func (m *Matcher) candidateEntities() []graph.NodeID {
	n := m.G.NumNodes()/64 + 1
	sets := make([]uint64, 3*n) // one bit per node
	seen, shared, keep := sets[:n], sets[n:2*n], sets[2*n:]
	j := &join{m: m}
	var hits [][2]graph.NodeID // the (entity, value) pairs of one leaf
	for _, t := range m.KeyedTypes() {
		for _, ck := range m.KeysFor(t) {
			if !ck.Matchable() {
				continue
			}
			if !m.IndexableType(t) {
				for _, e := range m.G.EntitiesOfType(t) {
					keep[e/64] |= 1 << (e % 64)
				}
				break
			}
			path := ck.groupLeaf()
			hits = hits[:0]
			for _, e := range m.G.EntitiesOfType(t) {
				j.buf = j.buf[:0]
				for _, v := range j.walk(ck, path, e) {
					shared[v/64] |= seen[v/64] & (1 << (v % 64))
					seen[v/64] |= 1 << (v % 64)
					hits = append(hits, [2]graph.NodeID{e, v})
				}
			}
			for _, h := range hits {
				if shared[h[1]/64]&(1<<(h[1]%64)) != 0 {
					keep[h[0]/64] |= 1 << (h[0] % 64)
				}
			}
			for _, h := range hits {
				seen[h[1]/64], shared[h[1]/64] = 0, 0
			}
		}
	}
	return nodeList(keep)
}

// nodeList returns, ascending, the nodes whose bits s sets.
func nodeList(s []uint64) []graph.NodeID {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	out := make([]graph.NodeID, 0, n)
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, graph.NodeID(64*i+bits.TrailingZeros64(w)))
		}
	}
	return out
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
