// Package eqrel implements the equivalence relation Eq of "Keys for
// Graphs" (§3.1): the set of entity pairs identified so far during a
// chase, closed under reflexivity, symmetry and transitivity.
//
// Eq is a union-find (disjoint-set) structure over the node IDs of one
// graph. Union-find gives the transitive-closure maintenance the paper's
// ReduceEM join rule and tc-edge propagation implement explicitly in a
// distributed setting: two entities are in Eq iff they are in the same
// class.
//
// Each class is also a ring, read through Members: a union reports
// only whether the relation grew, and the engines read the merged
// class — every entity whose dependents may newly fire — off the ring,
// so a union allocates nothing.
package eqrel

import (
	"cmp"
	"iter"
	"slices"
)

// Eq is a union-find over dense node IDs [0, n). The zero value is not
// usable; call New. Its reads (Find, Same, Members, Classes, Pairs) write
// nothing, so any number of goroutines may read it while no one
// writes: the parallel engines union on the calling goroutine, between
// parallel calls, and their workers read the relation itself.
type Eq struct {
	parent []int32
	rank   []uint8
	// next links each class into a ring: next[a] is the member after a,
	// and following next from a returns to a.
	next []int32
}

// New returns the identity relation Eq0 = {(e,e)} over n nodes.
func New(n int) *Eq {
	eq := &Eq{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
		next:   make([]int32, n),
	}
	for i := range eq.parent {
		eq.parent[i] = int32(i)
		eq.next[i] = int32(i)
	}
	return eq
}

// Len reports the number of nodes the relation is defined over.
func (eq *Eq) Len() int { return len(eq.parent) }

// Find returns the class representative of a. It writes nothing:
// union by rank keeps a class of k members at most log₂ k links deep,
// so no path is compressed.
func (eq *Eq) Find(a int32) int32 {
	for eq.parent[a] != a {
		a = eq.parent[a]
	}
	return a
}

// Same reports whether (a, b) ∈ Eq.
func (eq *Eq) Same(a, b int32) bool { return eq.Find(a) == eq.Find(b) }

// Union adds (a, b) to Eq and closes transitively. It reports whether
// the relation actually grew (false if a and b were already equivalent).
func (eq *Eq) Union(a, b int32) bool {
	ra, rb := eq.Find(a), eq.Find(b)
	if ra == rb {
		return false
	}
	if eq.rank[ra] < eq.rank[rb] {
		ra, rb = rb, ra
	}
	eq.parent[rb] = ra
	if eq.rank[ra] == eq.rank[rb] {
		eq.rank[ra]++
	}
	// Splice the two rings into one.
	eq.next[a], eq.next[b] = eq.next[b], eq.next[a]
	return true
}

// Members yields every node of a's class, a first. The relation must
// not change while the sequence is read.
func (eq *Eq) Members(a int32) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for m := a; ; {
			if !yield(m) {
				return
			}
			if m = eq.next[m]; m == a {
				return
			}
		}
	}
}

// Grow extends the relation to cover nodes [0, n), each new node in its
// own class. Existing classes and representatives are untouched; Grow
// with n <= Len is a no-op. It exists for incremental maintenance,
// where the graph gains nodes after the relation was created.
func (eq *Eq) Grow(n int) {
	for len(eq.parent) < n {
		eq.next = append(eq.next, int32(len(eq.parent)))
		eq.parent = append(eq.parent, int32(len(eq.parent)))
		eq.rank = append(eq.rank, 0)
	}
}

// Reset dissolves one equivalence class back into singletons: members
// must list exactly the nodes of one class. Every member becomes its
// own rank-0 representative, as in a fresh relation, so re-unioning
// them in some order rebuilds exactly what New plus the same unions
// would. It exists for incremental maintenance, which re-derives the
// classes a removal touched and leaves every other class alone.
func (eq *Eq) Reset(members []int32) {
	if len(members) < 2 {
		return
	}
	for _, m := range members {
		eq.parent[m] = m
		eq.rank[m] = 0
		eq.next[m] = m
	}
}

// Reader returns eq: every read of the relation is safe beside other
// reads.
func (eq *Eq) Reader() *Eq { return eq }

// Pair is an unordered entity pair, stored with A < B.
type Pair struct{ A, B int32 }

// MakePair normalizes (a, b) into a Pair with A < B.
func MakePair(a, b int32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Classes returns every class of two or more members, each ascending,
// ordered by first member. Every class is cut out of one backing
// array, capped at its own length.
//
// Only members of such classes cost more than a glance: a node is one
// exactly when its ring holds another node. Reading the nodes in
// ascending order meets each class first at its least member, whose
// ring yields the rest.
func (eq *Eq) Classes() [][]int32 {
	size, classes := 0, 0
	for n, next := range eq.next {
		if next != int32(n) {
			size++
			if eq.parent[n] == int32(n) { // its class's root
				classes++
			}
		}
	}
	members := make([]int32, 0, size)
	out := make([][]int32, 0, classes)
	read := make([]uint64, (len(eq.next)+63)/64) // members already in out
	for n, next := range eq.next {
		if next == int32(n) || read[n/64]&(1<<(n%64)) != 0 {
			continue
		}
		start := len(members)
		for m := range eq.Members(int32(n)) {
			read[m/64] |= 1 << (m % 64)
			members = append(members, m)
		}
		class := members[start:len(members):len(members)]
		slices.Sort(class)
		out = append(out, class)
	}
	return out
}

// Pairs enumerates every non-trivial pair of Eq: for each class, all
// unordered pairs of its members. The result is sorted.
//
// This materializes chase(G,Σ) as the paper states it — the set of all
// pairs (e1, e2) with (G,Σ) ⊨ (e1, e2).
func (eq *Eq) Pairs() []Pair {
	classes, n := eq.Classes(), 0
	for _, c := range classes {
		n += len(c) * (len(c) - 1) / 2
	}
	var out []Pair
	if n > 0 {
		out = make([]Pair, 0, n)
	}
	for _, c := range classes {
		for i, a := range c {
			for _, b := range c[i+1:] {
				out = append(out, Pair{a, b})
			}
		}
	}
	slices.SortFunc(out, Compare)
	return out
}

// Compare orders pairs by (A, B), the order Pairs returns them in.
func Compare(p, q Pair) int {
	return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
}

// Clone returns an independent copy of the relation.
func (eq *Eq) Clone() *Eq {
	return &Eq{parent: slices.Clone(eq.parent), rank: slices.Clone(eq.rank), next: slices.Clone(eq.next)}
}
