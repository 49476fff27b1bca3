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

// indexes is the engine's persistent bookkeeping over the step log. It
// is what lets a maintenance pass cost what its delta touches: every
// lookup the pass needs is keyed by a triple or a node, and every list
// is updated only where a step enters or leaves the log.
//
// byTriple, byRequire and byNode are the provenance index: the steps
// whose witness used a triple, the steps with a Requires pair on a node
// (keyed by the pair's A side — both sides share a class while the step
// is in the log), and the steps whose own pair has the node on either
// side. Every list is strictly increasing. The classes themselves are
// Eq's member rings (see class): every member of a class of two or more
// is an endpoint of some step's pair, and a node on no step is a class
// of its own.
type indexes struct {
	byTriple  map[graph.Triple][]stepID
	byRequire map[int32][]stepID
	byNode    map[int32][]stepID
}

// pass is the bookkeeping of one maintenance pass: which classes it
// reset or merged, so that the pair diff reads only those.
type pass struct {
	// dirty holds the pre-pass representatives the pass touched and
	// every member of a class it reset — at least one node of every
	// class the pass leaves changed; dirtyList is the same in touch
	// order, so nothing downstream depends on map iteration.
	dirty     map[int32]bool
	dirtyList []int32
	// oldClasses holds a copy of every touched class of two or more
	// members as it was before the pass; touched counts the touched
	// classes, singletons included.
	oldClasses [][]int32
	touched    int
}

// buildIndexes indexes a chasing sequence just installed by rebuild,
// stamping every step with the current generation. Each map is sized
// from the step log's counts, which bound its keys, so none regrows.
func (e *Engine) buildIndexes() {
	uses, reqs := 0, 0
	for _, st := range e.steps {
		uses += len(st.Uses)
		reqs += len(st.Requires)
	}
	e.idx = indexes{
		byTriple:  make(map[graph.Triple][]stepID, uses),
		byRequire: make(map[int32][]stepID, reqs),
		byNode:    make(map[int32][]stepID, 2*len(e.steps)),
	}
	e.stepIDs = make([]stepID, len(e.steps))
	e.stepSeqs = make([]uint64, len(e.steps))
	for i, st := range e.steps {
		e.nextID++
		e.stepIDs[i] = e.nextID
		e.stepSeqs[i] = e.seq
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

// class returns the members of n's class, read off its ring, in
// canonical order: first appearance over the log, by the first step with
// the member in its pair, A side before B (pairs are stored with A < B).
// It returns nil for a node on no step, which is a class of its own.
func (e *Engine) class(n int32) []int32 {
	if len(e.idx.byNode[n]) == 0 {
		return nil
	}
	mem := slices.Collect(e.eq.Members(n))
	slices.SortFunc(mem, func(a, b int32) int {
		return cmp.Or(cmp.Compare(e.idx.byNode[a][0], e.idx.byNode[b][0]), cmp.Compare(a, b))
	})
	return mem
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

// touch records that the pass is about to reset or merge the class of
// root. The first touch of a class of two or more that existed before
// the pass copies its members — the old side of the diff — and returns
// the copy; touch returns nil otherwise.
func (e *Engine) touch(root int32) []int32 {
	if e.pass.dirty[root] {
		return nil
	}
	e.markDirty(root)
	e.pass.touched++
	mem := e.class(root)
	if mem != nil {
		e.pass.oldClasses = append(e.pass.oldClasses, mem)
	}
	return mem
}

// finishPass closes a maintenance pass: the pair diff is read off the
// classes it touched alone — their members before the pass against the
// classes their nodes are in now (diffClasses).
func (e *Engine) finishPass() (added, removed []eqrel.Pair) {
	if len(e.pass.dirtyList) == 0 {
		return nil, nil
	}
	var cur [][]int32
	seen := make(map[int32]bool, len(e.pass.dirtyList))
	for _, n := range e.pass.dirtyList {
		r := e.eq.Find(n)
		if seen[r] {
			continue
		}
		seen[r] = true
		if mem := e.class(r); mem != nil {
			cur = append(cur, mem)
		}
	}
	added, removed = diffClasses(e.pass.oldClasses, cur)
	e.opts.Obs.TouchedClasses.Add(int64(e.pass.touched))
	e.pass = pass{}
	return added, removed
}

// diffClasses diffs two partitions of the same nodes, each given by its
// classes of two or more members (a node in no listed class is a class
// of its own): the pairs cur identifies and old does not, and the
// reverse. It costs the members listed plus the pairs returned, so a
// class that kept its members costs its size, not its pairs.
func diffClasses(old, cur [][]int32) (added, removed []eqrel.Pair) {
	return crossPairs(cur, classIndex(old)), crossPairs(old, classIndex(cur))
}

// classIndex maps every member of the classes to its class's position.
func classIndex(classes [][]int32) map[int32]int {
	idx := make(map[int32]int)
	for i, c := range classes {
		for _, n := range c {
			idx[n] = i
		}
	}
	return idx
}

// crossPairs returns, sorted, every pair inside one of the classes whose
// two members lie in different classes of the other partition (other
// maps a node to its class there; a node it lacks is a class of its
// own).
func crossPairs(classes [][]int32, other map[int32]int) []eqrel.Pair {
	group := func(n int32) int {
		if i, ok := other[n]; ok {
			return i
		}
		return -1 - int(n)
	}
	var out []eqrel.Pair
	for _, c := range classes {
		c = slices.Clone(c)
		slices.SortFunc(c, func(a, b int32) int { return cmp.Compare(group(a), group(b)) })
		for i, j := 0, 1; i < len(c); i, j = j, j+1 {
			for j < len(c) && group(c[j]) == group(c[i]) {
				j++
			}
			for _, a := range c[i:j] {
				for _, b := range c[j:] {
					out = append(out, eqrel.MakePair(a, b))
				}
			}
		}
	}
	slices.SortFunc(out, eqrel.Compare)
	return out
}
