package engine

import "graphkeys/internal/eqrel"

// Tracker is the equivalence relation the parallel engines merge
// identifications through: a union-find plus class-membership lists,
// so that a union reports every entity of the two merged classes — the
// set whose dependents may newly fire. The transitive-closure
// maintenance the paper's ReduceEM join rule and tc-edge propagation
// implement explicitly in a distributed setting is the union-find here;
// the membership lists are what lets a merge trigger re-checks of pairs
// that depend on entities far from the unioned pair.
//
// A Tracker is not safe for concurrent use. The engines union on the
// calling goroutine between engine.Parallel calls, and their workers
// read Relation().Reader(), so the barrier alone keeps the two apart.
type Tracker struct {
	eq      *eqrel.Eq
	members map[int32][]int32
}

// NewTracker returns a tracker over the identity relation of n nodes.
func NewTracker(n int) *Tracker {
	return &Tracker{eq: eqrel.New(n), members: make(map[int32][]int32)}
}

// Same reports whether (a, b) is in the relation. It implements
// match.EqView.
func (t *Tracker) Same(a, b int32) bool { return t.eq.Same(a, b) }

// Union merges the classes of a and b. If the relation grew, it
// returns the members of both former classes (the affected entities);
// changed is false when a and b were already equivalent.
func (t *Tracker) Union(a, b int32) (affected []int32, changed bool) {
	ra, rb := t.eq.Find(a), t.eq.Find(b)
	if ra == rb {
		return nil, false
	}
	ca, cb := t.members[ra], t.members[rb]
	if ca == nil {
		ca = []int32{a}
	}
	if cb == nil {
		cb = []int32{b}
	}
	t.eq.Union(a, b)
	merged := append(append(make([]int32, 0, len(ca)+len(cb)), ca...), cb...)
	nr := t.eq.Find(a)
	t.members[nr] = merged
	if ra != nr {
		delete(t.members, ra)
	}
	if rb != nr {
		delete(t.members, rb)
	}
	return merged, true
}

// Relation returns the underlying Eq. Its Reader is what workers read
// while no Union runs.
func (t *Tracker) Relation() *eqrel.Eq { return t.eq }
