package match

import (
	"slices"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/pattern"
)

// This file holds the operators the candidate pipeline of stream.go is
// composed from — the leaf-path join behind the candidate set L of §4.1
// and the test that decides which types may use it — and the
// entity-pair dependency relation: the index used by the
// entity-dependency and incremental-checking optimizations (§4.2) and
// by the dep edges of the product graph (§5.1), and Dependents, which
// the incremental engine's repair asks per merge.
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
	for _, ck := range m.KeysFor(t) {
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
	for _, ck := range m.KeysFor(t) {
		if ck.Matchable() && len(ck.leaves) == 0 {
			return false
		}
	}
	return true
}

// groupLeaf is the leaf candidateEntities groups a key's type on: the
// first one-hop value variable (x -p-> v*), else the last leaf.
func (ck *CompiledKey) groupLeaf() []hop {
	for _, p := range ck.leaves {
		if len(p) == 1 && p[0].out && ck.nodes[p[0].to].kind == pattern.ValueVar {
			return p
		}
	}
	return ck.leaves[len(ck.leaves)-1]
}

// join is the state of one run of the leaf-path join: one iteration of
// rows (the whole CandidateStream, or one range of CandidateRanges), or
// one PartnerStream row. It is single-goroutine, and a row it returns
// may lie in its scratch, so a row is valid until the next row of the
// same join. Every consumer finishes a row before it asks for the next:
// rows yields pairs by value, and PartnerStream makes one join per call.
type join struct {
	m *Matcher
	// members memoizes walkBack per leaf (its CompiledKey.leafSlot, high
	// 32 bits) and value node (low 32) for the run's lifetime, but only
	// the walks that examined more than twice as many edges as the list
	// holds: below that a repeat walk costs about what the row's merge
	// over the list costs anyway, and a miss pays an insert and a clone.
	// A hub value that many off-type subjects also reach is walked back
	// once. nil (a single row asks for each list once) turns it off. It
	// never outlives the stream, so it never sees a mutation. Its lists
	// are heap-owned.
	members map[uint64][]graph.NodeID
	// examined counts the edges step has looked at over the join's
	// lifetime: the walks' cost, which the memo rule weighs.
	examined int
	// buf is the row's arena: walks, steps, unions and intersections
	// append their results to it (a grown buf leaves earlier results in
	// the old array), and row empties it. lists, reached and leaves are
	// the row's reused list headers.
	buf     []graph.NodeID
	lists   [][]graph.NodeID
	reached [][]graph.NodeID
	leaves  []leafJoin
}

// leafJoin is one leaf's member lists, unmerged, and their total length
// as the greedy cost estimate.
type leafJoin struct {
	lists [][]graph.NodeID
	cost  int
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
	j.buf, j.lists = j.buf[:0], j.lists[:0]
	for _, ck := range m.KeysFor(t) {
		if !ck.Matchable() {
			continue
		}
		if lst := j.keyPartners(ck, e); len(lst) > 0 {
			j.lists = append(j.lists, lst)
		}
	}
	partners := j.foldUnion(j.lists)
	// A raw posting list holds the subjects of every type, and may be
	// the graph's own slice.
	offType := func(q graph.NodeID) bool { return m.G.TypeOf(q) != t }
	if slices.ContainsFunc(partners, offType) {
		start := len(j.buf)
		j.buf = append(j.buf, partners...)
		partners = slices.DeleteFunc(j.buf[start:], offType)
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
	ob := j.m.Opts.Obs
	constant := func(path []hop) bool { return ck.nodes[path[len(path)-1].to].kind == pattern.Const }
	// Phase 1: walk e's own edges, constant leaves first (the order of
	// ck.leaves) — a leaf e does not reach rejects e outright. A
	// constant leaf counts its one list here, as it is probed.
	j.reached = j.reached[:0]
	for _, path := range ck.leaves {
		if constant(path) {
			ob.PostingsScanned.Inc()
		}
		reached := j.walk(ck, path, e)
		if len(reached) == 0 {
			return nil
		}
		j.reached = append(j.reached, reached)
	}
	// Phase 2: pull each leaf's member lists (unmerged) and their total
	// length as the greedy cost estimate.
	joins := slices.Grow(j.leaves[:0], len(ck.leaves))[:len(ck.leaves)]
	j.leaves = joins
	for li, path := range ck.leaves {
		lj := &joins[li]
		lj.lists, lj.cost = lj.lists[:0], 0
		for _, v := range j.reached[li] {
			if !constant(path) {
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
	for ji := range joins {
		lst := j.foldUnion(joins[ji].lists)
		if ji == 0 {
			acc = lst
		} else {
			acc = j.mergeIntersect(acc, lst)
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
// from v and holds entities of x's type only. A walk that examined more
// than twice the list's length in edges is memoized (join.members).
func (j *join) leafMembers(ck *CompiledKey, li int, v graph.NodeID) []graph.NodeID {
	path := ck.leaves[li]
	if len(path) == 1 && path[0].out {
		return j.m.G.ValueSubjects(path[0].pred, v)
	}
	k := uint64(ck.leafSlot+li)<<32 | uint64(uint32(v))
	if lst, ok := j.members[k]; ok {
		return lst
	}
	before := j.examined
	lst := j.walkBack(ck, path, v)
	if j.members != nil && j.examined-before > 2*len(lst) {
		lst = slices.Clone(lst)
		j.members[k] = lst
	}
	return lst
}

// walk follows a leaf path from x bound to e and returns, sorted, the
// value nodes it reaches through nodes that satisfy each pattern node's
// local constraint.
func (j *join) walk(ck *CompiledKey, path []hop, e graph.NodeID) []graph.NodeID {
	j.buf = append(j.buf, e)
	cur := j.buf[len(j.buf)-1:]
	for _, hp := range path {
		cur = j.step(cur, hp.pred, hp.out, ck.nodes[hp.to])
	}
	return cur
}

// walkBack follows a leaf path in reverse from its leaf bound to v and
// returns, sorted, the entities of x's type it reaches: e is among them
// exactly when v is in walk(ck, path, e).
func (j *join) walkBack(ck *CompiledKey, path []hop, v graph.NodeID) []graph.NodeID {
	j.buf = append(j.buf, v)
	cur := j.buf[len(j.buf)-1:]
	for i := len(path) - 1; i >= 0; i-- {
		near := ck.x
		if i > 0 {
			near = path[i-1].to
		}
		cur = j.step(cur, path[i].pred, !path[i].out, ck.nodes[near])
	}
	return cur
}

// step appends to buf, sorted, the nodes one pred-edge (out of, or
// into) the nodes of from that pattern node n admits, and returns them.
func (j *join) step(from []graph.NodeID, pred graph.PredID, out bool, n compiledNode) []graph.NodeID {
	start := len(j.buf)
	for _, f := range from {
		edges := j.m.edges(f, out)
		j.examined += len(edges)
		for _, ed := range edges {
			if ed.Pred == pred && j.m.admits(n, ed.To) {
				j.buf = append(j.buf, ed.To)
			}
		}
	}
	next := j.buf[start:]
	if len(next) > 1 {
		slices.Sort(next)
		next = slices.Compact(next)
		j.buf = j.buf[:start+len(next)]
	}
	return next
}

// foldUnion merge-unions the sorted lists smallest-first (cheapest
// merges run while the accumulator is small; union commutes, so the
// fold order never changes the result). The lists slice is reordered
// in place; the lists themselves are never mutated.
func (j *join) foldUnion(lists [][]graph.NodeID) []graph.NodeID {
	slices.SortStableFunc(lists, func(a, b []graph.NodeID) int { return len(a) - len(b) })
	var acc []graph.NodeID
	for _, l := range lists {
		acc = j.mergeUnion(acc, l)
	}
	return acc
}

// mergeUnion merge-joins two sorted NodeID lists into their sorted
// union in buf. It never mutates its inputs (posting lists are
// graph-owned); when one side is empty the other is returned as is.
func (j *join) mergeUnion(a, b []graph.NodeID) []graph.NodeID {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	start := len(j.buf)
	j.buf = graph.AppendUnion(j.buf, a, b)
	return j.buf[start:]
}

// mergeIntersect merge-joins two sorted NodeID lists into their sorted
// intersection in buf, without mutating either.
func (j *join) mergeIntersect(a, b []graph.NodeID) []graph.NodeID {
	start := len(j.buf)
	for x, y := 0, 0; x < len(a) && y < len(b); {
		switch {
		case a[x] < b[y]:
			x++
		case b[y] < a[x]:
			y++
		default:
			j.buf = append(j.buf, a[x])
			x++
			y++
		}
	}
	return j.buf[start:]
}

// DependencyIndex records, for a fixed candidate list, which candidate
// pairs depend on which entities: pair (e1, e2) depends on entity n if n
// is neither of them and walking the x→y path of some entity variable y
// of a recursive key on the pair's type (CompiledKey.vars) from e1 or
// from e2 reaches it through nodes each pattern node admits (§4.2). When
// (u, v) is identified, the pairs that depend on a member of the merged
// class are the ones whose checks may newly succeed: a check reads Eq
// only through the pairs its witness binds to the y, a witness maps the
// path onto G edge by edge, so y's binding at e1 is in the walk from e1
// and at e2 in the walk from e2, and both join the merged class.
//
// The relation is kept factorised, entity → sides ⋈ side → pairs, and
// never multiplied out: n entities induce up to n(n-1)/2 pairs over n
// sides, and what an entity reaches is a side's walk, not a pair. Both
// halves are offset arrays (CSR): one list per graph node, one per side.
// The index is read-only after the build except for Active's marks, so
// one goroutine at a time calls Active. Dependents is the same relation
// read backwards, from a merge to the pairs, over no fixed candidate
// list.
type DependencyIndex struct {
	pairs []eqrel.Pair
	// reaches[reachAt[n]:reachAt[n+1]] lists, ascending, the sides (by
	// index) whose walks reach node n.
	reachAt, reaches []int32
	// sidePairs[pairAt[s]:pairAt[s+1]] lists, ascending, the indices of
	// the pairs side s belongs to.
	pairAt, sidePairs []int32
	// marks holds, per side, what Active has seen reach it; touched
	// lists the sides it marked, so it clears only those.
	marks   []reachers
	touched []int32
}

// BuildDependencyIndexParallel analyzes the candidate list against the
// matcher's key set. The walks run once per distinct side (candidate
// pairs share sides heavily) and fan out across workers in chunks of
// consecutive sides, each chunk on a join of its own whose arena it
// reuses side to side; inverting them into the node-keyed lists runs
// sequentially in side order. A walk follows only its path's
// predicates, at most d hops, so it visits no more than the side's
// d-neighbor would hold, and it builds none.
func (m *Matcher) BuildDependencyIndexParallel(pairs []eqrel.Pair, workers int) *DependencyIndex {
	d := &DependencyIndex{pairs: pairs, reachAt: make([]int32, m.G.NumNodes()+1)}

	// Distinct pair sides, in first-appearance order: sideOf[e] is side
	// e's index plus one, 0 for a node on no side.
	sideOf := make([]int32, m.G.NumNodes())
	var sides []graph.NodeID
	for _, pr := range pairs {
		for _, e := range [2]int32{pr.A, pr.B} {
			if sideOf[e] == 0 {
				sides = append(sides, graph.NodeID(e))
				sideOf[e] = int32(len(sides))
			}
		}
	}
	d.pairAt, d.sidePairs = make([]int32, len(sides)+1), make([]int32, 2*len(pairs))
	for _, pr := range pairs {
		d.pairAt[sideOf[pr.A]]++
		d.pairAt[sideOf[pr.B]]++
	}
	startOffsets(d.pairAt)
	for i, pr := range pairs {
		for _, e := range [2]int32{pr.A, pr.B} {
			s := sideOf[e] - 1
			d.sidePairs[d.pairAt[s]] = int32(i)
			d.pairAt[s]++
		}
	}
	endOffsets(d.pairAt)

	// Per-side contribution: the union of the side's walks along the
	// x→y paths of its type's matchable keys, as (node, side) entries
	// in side order in its chunk's list.
	type reach struct {
		n graph.NodeID
		s int32
	}
	chunks := engine.Chunks(workers, len(sides))
	deps := make([][]reach, chunks)
	engine.Parallel(m.Opts.Eng, workers, chunks, func(c int) {
		j := join{m: m}
		lo, hi := engine.ChunkRange(c, chunks, len(sides))
		for i := lo; i < hi; i++ {
			e := sides[i]
			j.buf, j.lists = j.buf[:0], j.lists[:0]
			for _, ck := range m.KeysFor(m.G.TypeOf(e)) {
				if !ck.Matchable() {
					continue
				}
				for _, path := range ck.vars {
					if reached := j.walk(ck, path, e); len(reached) > 0 {
						j.lists = append(j.lists, reached)
					}
				}
			}
			for _, n := range j.foldUnion(j.lists) {
				deps[c] = append(deps[c], reach{n, int32(i)})
			}
		}
	})
	for _, list := range deps {
		for _, r := range list {
			d.reachAt[r.n+1]++
		}
	}
	startOffsets(d.reachAt)
	d.reaches = make([]int32, d.reachAt[len(d.reachAt)-1])
	for _, list := range deps {
		for _, r := range list {
			d.reaches[d.reachAt[r.n]] = r.s
			d.reachAt[r.n]++
		}
	}
	endOffsets(d.reachAt)
	d.marks = make([]reachers, len(sides))
	return d
}

// startOffsets turns at, holding list k's length at at[k+1], into the
// lists' start offsets, at[k] for list k and the total at the end; a
// fill then appends list k's entries at at[k]++.
func startOffsets(at []int32) {
	for k := 1; k < len(at); k++ {
		at[k] += at[k-1]
	}
}

// endOffsets undoes a fill's increments: each at[k] has advanced to its
// list's end, the next list's start, so shifting by one restores the
// offsets.
func endOffsets(at []int32) {
	copy(at[1:], at[:len(at)-1])
	at[0] = 0
}

// Entries counts the entity→side registrations the index holds: its
// size, next to one side→pair entry per pair side.
func (d *DependencyIndex) Entries() int { return len(d.reaches) }

// reachers is what a side remembers of the changed entities that reach
// it: the first three distinct ones. A pair does not depend on its own
// two members, so of three distinct reachers one always counts; with
// fewer, each is compared.
type reachers struct {
	n [3]int32
	k int32
}

// Active appends to dst the indices (into the candidate list),
// ascending, of the pairs that depend on at least one of the changed
// entities, and returns the extended slice: it marks the sides each
// changed entity reaches, then visits the pairs of the marked sides. A
// changed entity may be listed more than once.
func (d *DependencyIndex) Active(changed []int32, dst []int) []int {
	start := len(dst)
	for _, e := range changed {
		if int(e)+1 >= len(d.reachAt) {
			continue
		}
		for _, s := range d.reaches[d.reachAt[e]:d.reachAt[e+1]] {
			r := &d.marks[s]
			if r.k == 0 {
				d.touched = append(d.touched, s)
			}
			if int(r.k) < len(r.n) && !slices.Contains(r.n[:r.k], e) {
				r.n[r.k] = e
				r.k++
			}
		}
	}
	for _, s := range d.touched {
		r := d.marks[s]
		d.marks[s] = reachers{}
		for _, i := range d.sidePairs[d.pairAt[s]:d.pairAt[s+1]] {
			pr := d.pairs[i]
			if slices.ContainsFunc(r.n[:r.k], func(e int32) bool { return e != pr.A && e != pr.B }) {
				dst = append(dst, int(i))
			}
		}
	}
	d.touched = d.touched[:0]
	// A pair reached through both of its sides was appended twice.
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// Dependents returns, sorted, the pairs whose checks may newly succeed
// when the classes with members mem1 and mem2 merge: the relation of
// DependencyIndex read backwards from the merge. For each x→y path of a
// matchable key (CompiledKey.vars), A1 is the entities that reach, along
// it, a member of mem1 that y admits, and A2 likewise for mem2; every
// {p, q} with p in A1, q in A2 and p ≠ q is a dependent. A witness that
// newly holds binds some y to a pair across the two classes and maps
// y's path onto G edge by edge, so its pair is among them.
func (m *Matcher) Dependents(mem1, mem2 []int32) []eqrel.Pair {
	j := join{m: m}
	reaching := func(ck *CompiledKey, path []hop, mem []int32) []graph.NodeID {
		y := ck.nodes[path[len(path)-1].to]
		j.lists = j.lists[:0]
		for _, u := range mem {
			if m.admits(y, graph.NodeID(u)) {
				j.lists = append(j.lists, j.walkBack(ck, path, graph.NodeID(u)))
			}
		}
		return j.foldUnion(j.lists)
	}
	var out []eqrel.Pair
	for _, cks := range m.byType {
		for _, ck := range cks {
			if !ck.Matchable() {
				continue
			}
			for _, path := range ck.vars {
				a1 := reaching(ck, path, mem1)
				if len(a1) == 0 {
					continue
				}
				for _, q := range reaching(ck, path, mem2) {
					for _, p := range a1 {
						if p != q {
							out = append(out, eqrel.MakePair(int32(p), int32(q)))
						}
					}
				}
			}
		}
	}
	slices.SortFunc(out, eqrel.Compare)
	return slices.Compact(out)
}
