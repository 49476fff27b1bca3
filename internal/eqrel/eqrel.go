// Package eqrel implements the equivalence relation Eq of "Keys for
// Graphs" (§3.1): the set of entity pairs identified so far during a
// chase, closed under reflexivity, symmetry and transitivity.
//
// Eq is a union-find (disjoint-set) structure over the node IDs of one
// graph. Union-find gives the transitive-closure maintenance the paper's
// ReduceEM join rule and tc-edge propagation implement explicitly in a
// distributed setting: two entities are in Eq iff they are in the same
// class.
package eqrel

import (
	"cmp"
	"slices"
	"sync/atomic"
)

// Eq is a union-find over dense node IDs [0, n). The zero value is not
// usable; call New. Eq is not safe for general concurrent use (the
// parallel engines merge through engine.Tracker, which locks around
// one), with one carve-out the parallel repair pass relies on:
// concurrent Find/Union/Same calls are race-free as long as every
// goroutine confines itself to a disjoint set of equivalence classes —
// path halving and root relinking only ever write parent/rank entries
// of the classes being touched, and the version/classes counters are
// atomic.
type Eq struct {
	parent []int32
	rank   []uint8
	// version counts effective (class-merging) unions. Engines use it to
	// detect that a round changed Eq. Atomic so that class-disjoint
	// concurrent unions stay race-free.
	version atomic.Int64
	// classes counts current equivalence classes.
	classes atomic.Int64
}

// New returns the identity relation Eq0 = {(e,e)} over n nodes.
func New(n int) *Eq {
	eq := &Eq{
		parent: make([]int32, n),
		rank:   make([]uint8, n),
	}
	eq.classes.Store(int64(n))
	for i := range eq.parent {
		eq.parent[i] = int32(i)
	}
	return eq
}

// Len reports the number of nodes the relation is defined over.
func (eq *Eq) Len() int { return len(eq.parent) }

// Find returns the class representative of a, with path halving.
func (eq *Eq) Find(a int32) int32 {
	for eq.parent[a] != a {
		eq.parent[a] = eq.parent[eq.parent[a]]
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
	eq.version.Add(1)
	eq.classes.Add(-1)
	return true
}

// Grow extends the relation to cover nodes [0, n), each new node in its
// own class. Existing classes and representatives are untouched; Grow
// with n <= Len is a no-op. It exists for incremental maintenance,
// where the graph gains nodes after the relation was created.
func (eq *Eq) Grow(n int) {
	for len(eq.parent) < n {
		eq.parent = append(eq.parent, int32(len(eq.parent)))
		eq.rank = append(eq.rank, 0)
		eq.classes.Add(1)
	}
}

// Reset dissolves one equivalence class back into singletons: members
// must list exactly the nodes of one class. Every member becomes its
// own rank-0 representative, as in a fresh relation, so re-unioning
// them in some order rebuilds exactly what New plus the same unions
// would. It exists for incremental maintenance, which re-derives the
// classes a removal touched and leaves every other class alone. Reset
// of a non-trivial class counts as a change of the relation in Version.
func (eq *Eq) Reset(members []int32) {
	if len(members) < 2 {
		return
	}
	for _, m := range members {
		eq.parent[m] = m
		eq.rank[m] = 0
	}
	eq.version.Add(1)
	eq.classes.Add(int64(len(members) - 1))
}

// Version returns a counter that increases with every change of the
// relation: every effective Union and every Reset of a non-trivial
// class.
func (eq *Eq) Version() int { return int(eq.version.Load()) }

// Classes returns the current number of equivalence classes.
func (eq *Eq) Classes() int { return int(eq.classes.Load()) }

// Reader is a concurrency-safe read-only view of an Eq: its Same uses
// a non-compressing find, so any number of goroutines may query it as
// long as the underlying relation is not mutated concurrently. The
// parallel engines hand Readers of a per-round snapshot to their
// workers.
type Reader struct{ eq *Eq }

// Reader returns a read-only view of the relation's current state.
func (eq *Eq) Reader() Reader { return Reader{eq} }

// Same reports whether (a, b) ∈ Eq, without mutating the structure.
func (r Reader) Same(a, b int32) bool {
	return r.findRO(a) == r.findRO(b)
}

// Find returns a's class representative without mutating the
// structure — the canonical-entity lookup for concurrent readers
// (Eq.Find compresses paths and needs exclusive access).
func (r Reader) Find(a int32) int32 {
	return r.findRO(a)
}

func (r Reader) findRO(a int32) int32 {
	for r.eq.parent[a] != a {
		a = r.eq.parent[a]
	}
	return a
}

// Pair is an unordered entity pair, stored with A < B.
type Pair struct{ A, B int32 }

// MakePair normalizes (a, b) into a Pair with A < B.
func MakePair(a, b int32) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{a, b}
}

// Pairs enumerates every non-trivial pair of Eq restricted to the given
// universe of nodes (typically the entity nodes of the graph): for each
// class, all unordered pairs of its members. The result is sorted.
//
// This materializes chase(G,Σ) as the paper states it — the set of all
// pairs (e1, e2) with (G,Σ) ⊨ (e1, e2).
//
// Only classes with two or more members in the universe cost anything:
// a node no union has touched since New, Grow or Reset is its own
// rank-0 root (whichever root survives a union has rank >= 1), and is
// skipped before it is looked up.
func (eq *Eq) Pairs(universe []int32) []Pair {
	// Each remaining member as root<<32 | member: sorting the words
	// groups the members by class, ascending within each.
	var merged []uint64
	for _, n := range universe {
		if eq.parent[n] == n && eq.rank[n] == 0 {
			continue
		}
		merged = append(merged, uint64(eq.Find(n))<<32|uint64(n))
	}
	slices.Sort(merged)
	var out []Pair
	for i := 0; i < len(merged); {
		j := i + 1
		for j < len(merged) && merged[j]>>32 == merged[i]>>32 {
			j++
		}
		for a, ma := range merged[i:j] {
			for _, mb := range merged[i+a+1 : j] {
				out = append(out, Pair{int32(uint32(ma)), int32(uint32(mb))})
			}
		}
		i = j
	}
	slices.SortFunc(out, func(p, q Pair) int {
		return cmp.Or(cmp.Compare(p.A, q.A), cmp.Compare(p.B, q.B))
	})
	return out
}

// Clone returns an independent copy of the relation.
func (eq *Eq) Clone() *Eq {
	c := &Eq{
		parent: make([]int32, len(eq.parent)),
		rank:   make([]uint8, len(eq.rank)),
	}
	c.version.Store(eq.version.Load())
	c.classes.Store(eq.classes.Load())
	copy(c.parent, eq.parent)
	copy(c.rank, eq.rank)
	return c
}
