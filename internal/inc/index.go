package inc

import (
	"cmp"
	"slices"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// stepID names a chase step for as long as it stays in the log. IDs
// are handed out in log order and never reused, so Engine.stepIDs is
// strictly increasing and a step's current position is a binary search
// away however often the log has been compacted.
type stepID uint64

// indexes is the engine's persistent bookkeeping over the step log and
// the relation. It is what lets a maintenance pass cost what its delta
// touches: every lookup the pass needs is keyed by a triple or a node,
// and every list is updated only where a step enters or leaves the log.
//
// byTriple, byRequire and byNode are the provenance index: the steps
// whose witness used a triple, the steps with a Requires pair on a node
// (keyed by the pair's A side — both sides share a class while the step
// is in the log), and the steps whose own pair has the node on either
// side. Every list is strictly increasing.
//
// members is the class-member index: representative -> the nodes of its
// class, for classes of two or more. Every member of such a class is an
// endpoint of some step's pair. Between passes each list is in
// first-appearance order over the log (canonical order); within a pass,
// a merge concatenates the two lists (see recordMerge).
type indexes struct {
	byTriple  map[graph.Triple][]stepID
	byRequire map[int32][]stepID
	byNode    map[int32][]stepID
	members   map[int32][]int32
}

// pass is the bookkeeping of one maintenance pass: which classes it
// reset or merged, so that the pair diff expands only those.
type pass struct {
	// dirty holds the pre-pass representatives the pass touched and
	// every member of a class it reset — at least one node of every
	// class the pass leaves changed; dirtyList is the same in touch
	// order, so nothing downstream depends on map iteration.
	dirty     map[int32]bool
	dirtyList []int32
	// oldPairs collects the pairs of every touched class as it was
	// before the pass; touched counts those classes.
	oldPairs []eqrel.Pair
	touched  int
}

// buildIndexes indexes a chasing sequence just installed by rebuild,
// stamping every step with the current generation.
func (e *Engine) buildIndexes() {
	e.idx = indexes{
		byTriple:  make(map[graph.Triple][]stepID),
		byRequire: make(map[int32][]stepID),
		byNode:    make(map[int32][]stepID),
		members:   make(map[int32][]int32),
	}
	e.stepIDs = make([]stepID, len(e.steps))
	e.stepSeqs = make([]uint64, len(e.steps))
	for i, st := range e.steps {
		e.nextID++
		e.stepIDs[i] = e.nextID
		e.stepSeqs[i] = e.seq
		for _, n := range [2]int32{st.Pair.A, st.Pair.B} {
			if len(e.idx.byNode[n]) == 0 {
				r := e.eq.Find(n)
				e.idx.members[r] = append(e.idx.members[r], n)
			}
		}
		e.indexStep(e.nextID, st)
	}
}

func appendID(list []stepID, id stepID) []stepID {
	if n := len(list); n > 0 && list[n-1] == id {
		return list
	}
	return append(list, id)
}

func (e *Engine) indexStep(id stepID, st chase.Step) {
	ix := &e.idx
	ix.byNode[st.Pair.A] = append(ix.byNode[st.Pair.A], id)
	ix.byNode[st.Pair.B] = append(ix.byNode[st.Pair.B], id)
	for _, r := range st.Requires {
		ix.byRequire[r.A] = appendID(ix.byRequire[r.A], id)
	}
	for _, tr := range st.Uses {
		ix.byTriple[tr] = appendID(ix.byTriple[tr], id)
	}
}

// removeID deletes id from the list under key, and the key with its
// last entry, so the index never outgrows the log.
func removeID[K comparable](m map[K][]stepID, key K, id stepID) {
	list := m[key]
	i, ok := slices.BinarySearch(list, id)
	if !ok {
		return
	}
	if len(list) == 1 {
		delete(m, key)
		return
	}
	m[key] = slices.Delete(list, i, i+1)
}

func (e *Engine) unindexStep(id stepID, st chase.Step) {
	ix := &e.idx
	removeID(ix.byNode, st.Pair.A, id)
	removeID(ix.byNode, st.Pair.B, id)
	for _, r := range st.Requires {
		removeID(ix.byRequire, r.A, id)
	}
	for _, tr := range st.Uses {
		removeID(ix.byTriple, tr, id)
	}
}

// pos returns the log position of a step that is in the log.
func (e *Engine) pos(id stepID) int {
	i, _ := slices.BinarySearch(e.stepIDs, id)
	return i
}

// appendStep is the one place a chase step enters the log.
func (e *Engine) appendStep(st chase.Step) {
	e.nextID++
	e.steps = append(e.steps, st)
	e.stepSeqs = append(e.stepSeqs, e.seq)
	e.stepIDs = append(e.stepIDs, e.nextID)
	e.indexStep(e.nextID, st)
}

// compact removes the elements at the given ascending positions.
func compact[T any](s []T, drops []int) []T {
	w := drops[0]
	for k, d := range drops {
		end := len(s)
		if k+1 < len(drops) {
			end = drops[k+1]
		}
		w += copy(s[w:], s[d+1:end])
	}
	clear(s[w:])
	return s[:w]
}

// classOf returns the members of the class represented by root; self
// is a node of that class, which is all of it when the index has no
// list (singletons are not indexed).
func (e *Engine) classOf(root, self int32) []int32 {
	if mem := e.idx.members[root]; len(mem) > 0 {
		return mem
	}
	return []int32{self}
}

// canonicalize puts a member list into first-appearance order over the
// log: by the first step with the node in its pair, A side before B
// (pairs are stored with A < B).
func (e *Engine) canonicalize(mem []int32) {
	slices.SortFunc(mem, func(a, b int32) int {
		return cmp.Or(cmp.Compare(e.idx.byNode[a][0], e.idx.byNode[b][0]), cmp.Compare(a, b))
	})
}

func (e *Engine) markDirty(n int32) {
	if e.pass.dirty == nil {
		e.pass.dirty = make(map[int32]bool)
	}
	if !e.pass.dirty[n] {
		e.pass.dirty[n] = true
		e.pass.dirtyList = append(e.pass.dirtyList, n)
	}
}

// touch records that the pass is about to reset or merge the class
// represented by root. The first touch of a class that existed before
// the pass expands it to pairs — the old side of the pair diff.
func (e *Engine) touch(root int32) {
	if e.pass.dirty[root] {
		return
	}
	e.markDirty(root)
	e.pass.touched++
	e.pass.oldPairs = appendClassPairs(e.pass.oldPairs, e.idx.members[root])
}

// appendClassPairs appends every unordered pair of the class.
func appendClassPairs(dst []eqrel.Pair, members []int32) []eqrel.Pair {
	if len(members) < 2 {
		return dst
	}
	ids := slices.Clone(members)
	slices.Sort(ids)
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			dst = append(dst, eqrel.Pair{A: a, B: b})
		}
	}
	return dst
}

func comparePairs(a, b eqrel.Pair) int {
	return cmp.Or(cmp.Compare(a.A, b.A), cmp.Compare(a.B, b.B))
}

// recordMerge is the one place a merge reaches the log and the
// indices: the classes represented by ra and rb (before the union)
// became the class represented by nr through the step. The merged
// member list is A's class followed by B's — the order the dependency
// expansion of later merges in the same pass reads.
func (e *Engine) recordMerge(st chase.Step, ra, rb, nr int32) {
	e.touch(ra)
	e.touch(rb)
	mem := append(e.classOf(ra, st.Pair.A), e.classOf(rb, st.Pair.B)...)
	if ra != nr {
		delete(e.idx.members, ra)
	}
	if rb != nr {
		delete(e.idx.members, rb)
	}
	e.idx.members[nr] = mem
	e.appendStep(st)
}

// finishPass closes a maintenance pass: the member lists of the classes
// it touched go back into canonical order (merges left them in
// concatenation order), and the pair diff is computed from the
// touched classes alone — their pairs before the pass against the pairs
// of the classes their nodes are in now — and spliced into e.pairs.
func (e *Engine) finishPass() (added, removed []eqrel.Pair) {
	if len(e.pass.dirtyList) == 0 {
		return nil, nil
	}
	var newPairs []eqrel.Pair
	seen := make(map[int32]bool, len(e.pass.dirtyList))
	for _, n := range e.pass.dirtyList {
		r := e.eq.Find(n)
		if seen[r] {
			continue
		}
		seen[r] = true
		mem := e.idx.members[r]
		e.canonicalize(mem)
		newPairs = appendClassPairs(newPairs, mem)
	}
	slices.SortFunc(e.pass.oldPairs, comparePairs)
	slices.SortFunc(newPairs, comparePairs)
	added, removed = diffPairs(e.pass.oldPairs, newPairs)
	e.pairs = splicePairs(e.pairs, added, removed)
	e.opts.Obs.touchedClasses().Add(int64(e.pass.touched))
	e.pass = pass{}
	return added, removed
}

// splicePairs applies a diff to the sorted pair list in place: the
// removed pairs (all present) are closed over and the added pairs (none
// present) merged in from the back, so only the part of the list behind
// the first change moves. An empty result is nil, as eqrel.Eq.Pairs
// reports an empty relation.
func splicePairs(pairs, added, removed []eqrel.Pair) []eqrel.Pair {
	if len(removed) > 0 {
		w, _ := slices.BinarySearchFunc(pairs, removed[0], comparePairs)
		k := 0
		for _, p := range pairs[w:] {
			if k < len(removed) && p == removed[k] {
				k++
				continue
			}
			pairs[w] = p
			w++
		}
		pairs = pairs[:w]
	}
	i := len(pairs) - 1
	pairs = append(pairs, added...)
	w := len(pairs) - 1
	for j := len(added) - 1; j >= 0; w-- {
		if i >= 0 && comparePairs(pairs[i], added[j]) > 0 {
			pairs[w] = pairs[i]
			i--
		} else {
			pairs[w] = added[j]
			j--
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	return pairs
}
