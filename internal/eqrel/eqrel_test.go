package eqrel

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	eq := New(5)
	if eq.Len() != 5 {
		t.Fatalf("Len = %d", eq.Len())
	}
	for i := int32(0); i < 5; i++ {
		if !eq.Same(i, i) {
			t.Errorf("reflexivity broken at %d", i)
		}
		for j := i + 1; j < 5; j++ {
			if eq.Same(i, j) {
				t.Errorf("identity relation relates %d and %d", i, j)
			}
		}
	}
}

func TestUnionProperties(t *testing.T) {
	eq := New(6)
	if !eq.Union(0, 1) {
		t.Fatal("first union reported no growth")
	}
	if eq.Union(1, 0) {
		t.Fatal("repeated union reported growth")
	}
	if !eq.Same(0, 1) || !eq.Same(1, 0) {
		t.Fatal("symmetry broken")
	}
	eq.Union(1, 2)
	if !eq.Same(0, 2) {
		t.Fatal("transitivity broken")
	}
}

func TestPairs(t *testing.T) {
	eq := New(6)
	eq.Union(0, 1)
	eq.Union(1, 2)
	eq.Union(4, 5)
	if got, want := eq.Classes(), [][]int32{{0, 1, 2}, {4, 5}}; !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("classes = %v, want %v", got, want)
	}
	if got, want := eq.Pairs(), []Pair{{0, 1}, {0, 2}, {1, 2}, {4, 5}}; !slices.Equal(got, want) {
		t.Fatalf("pairs = %v, want %v", got, want)
	}
}

func TestMakePair(t *testing.T) {
	if MakePair(3, 1) != (Pair{1, 3}) {
		t.Error("MakePair did not normalize")
	}
	if MakePair(1, 3) != (Pair{1, 3}) {
		t.Error("MakePair changed ordered input")
	}
}

func TestClone(t *testing.T) {
	eq := New(4)
	eq.Union(0, 1)
	c := eq.Clone()
	c.Union(2, 3)
	if eq.Same(2, 3) {
		t.Error("clone aliased original")
	}
	if !c.Same(0, 1) {
		t.Error("clone lost unions")
	}
}

// TestEquivalenceLaws property-tests that after an arbitrary union
// sequence the relation is an equivalence relation consistent with the
// unions performed (smallest equivalence containing them).
func TestEquivalenceLaws(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 24
		eq := New(n)
		// Reference: naive reachability over an undirected union graph.
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
		}
		for k := 0; k < 30; k++ {
			a, b := int32(rng.Intn(n)), int32(rng.Intn(n))
			eq.Union(a, b)
			adj[a][b] = true
			adj[b][a] = true
		}
		reach := func(a, b int32) bool {
			seen := make([]bool, n)
			stack := []int32{a}
			seen[a] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if x == b {
					return true
				}
				for y := int32(0); y < n; y++ {
					if adj[x][y] && !seen[y] {
						seen[y] = true
						stack = append(stack, y)
					}
				}
			}
			return false
		}
		for a := int32(0); a < n; a++ {
			for b := int32(0); b < n; b++ {
				if eq.Same(a, b) != reach(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestResetMatchesFreshReplay pins the contract incremental repair
// rests on: resetting a class and re-unioning a subset of its pairs
// leaves the relation exactly as a fresh relation given the same
// surviving unions, while other classes keep their representatives.
func TestResetMatchesFreshReplay(t *testing.T) {
	unions := []Pair{{0, 1}, {2, 3}, {1, 3}, {5, 6}, {6, 7}, {3, 4}}
	eq := New(9)
	for _, u := range unions {
		eq.Union(u.A, u.B)
	}
	other := eq.Find(5)
	snap := eq.Clone()

	eq.Reset([]int32{0, 1, 2, 3, 4})
	for i := int32(0); i < 5; i++ {
		if eq.Find(i) != i {
			t.Errorf("member %d is not its own representative after reset", i)
		}
		for j := i + 1; j < 5; j++ {
			if eq.Same(i, j) {
				t.Errorf("reset class still relates %d and %d", i, j)
			}
		}
	}
	if eq.Find(5) != other || !eq.Same(5, 7) {
		t.Error("reset disturbed another class")
	}
	if !snap.Same(0, 4) {
		t.Error("reset leaked into an earlier Clone")
	}

	// Re-union the survivors of dropping (1,3): the relation must now
	// be indistinguishable from a fresh replay of the surviving log.
	fresh := New(9)
	for _, u := range unions {
		if u != (Pair{1, 3}) {
			fresh.Union(u.A, u.B)
		}
	}
	for _, u := range []Pair{{0, 1}, {2, 3}, {3, 4}} {
		eq.Union(u.A, u.B)
	}
	for i := int32(0); i < 9; i++ {
		if eq.Find(i) != fresh.Find(i) {
			t.Errorf("representative of %d = %d, fresh replay has %d", i, eq.Find(i), fresh.Find(i))
		}
	}

	// Singletons and the empty list are no-ops.
	before := slices.Clone(eq.parent)
	eq.Reset(nil)
	eq.Reset([]int32{8})
	if !slices.Equal(eq.parent, before) {
		t.Error("resetting a trivial class changed the relation")
	}
}

// TestReadsNeverWrite: Find, Same, Members, Classes and Pairs leave the relation
// as they found it, so goroutines may read it together while no one
// writes. Node 3 sits two links below its root — the pairs {0,1} and
// {2,3} joined under 0 — where path halving would move its pointer:
// the parent array changes and, under -race, the readers race.
func TestReadsNeverWrite(t *testing.T) {
	eq := New(4)
	eq.Union(0, 1)
	eq.Union(2, 3)
	eq.Union(1, 3)
	if p := eq.parent[3]; p == 3 || eq.parent[p] == p {
		t.Fatal("node 3 is one link from its root; the test needs two")
	}
	before := slices.Clone(eq.parent)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				if eq.Find(3) != 0 || !eq.Same(3, 1) {
					t.Error("node 3 left the class of 0")
					return
				}
				for range eq.Members(3) {
				}
				eq.Pairs()
			}
		}()
	}
	wg.Wait()
	if !slices.Equal(eq.parent, before) {
		t.Errorf("reads rewrote the parent array: %v, was %v", eq.parent, before)
	}
}

// TestMembers reads classes off the rings: a singleton's ring is the
// node alone, a union that grows the relation splices both rings into
// one, a repeated union changes nothing, and Reset and Grow leave
// singletons.
func TestMembers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		unions []Pair
		reset  []int32
		grow   int
		of     int32
		want   []int32
	}{
		{name: "singleton", of: 1, want: []int32{1}},
		{name: "one union", unions: []Pair{{1, 2}}, of: 2, want: []int32{1, 2}},
		{name: "repeated union", unions: []Pair{{1, 2}, {2, 1}}, of: 1, want: []int32{1, 2}},
		{name: "transitive", unions: []Pair{{1, 2}, {3, 1}}, of: 3, want: []int32{1, 2, 3}},
		{name: "two classes", unions: []Pair{{1, 2}, {3, 1}, {4, 5}}, of: 5, want: []int32{4, 5}},
		{name: "classes merged", unions: []Pair{{1, 2}, {4, 5}, {2, 5}}, of: 4, want: []int32{1, 2, 4, 5}},
		{name: "reset", unions: []Pair{{1, 2}, {3, 1}}, reset: []int32{1, 2, 3}, of: 2, want: []int32{2}},
		{name: "grown", unions: []Pair{{1, 2}}, grow: 12, of: 11, want: []int32{11}},
		{name: "grown, old class kept", unions: []Pair{{1, 2}}, grow: 12, of: 1, want: []int32{1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eq := New(10)
			for _, u := range tc.unions {
				eq.Union(u.A, u.B)
			}
			eq.Reset(tc.reset)
			eq.Grow(tc.grow)
			got := slices.Collect(eq.Members(tc.of))
			if got[0] != tc.of {
				t.Errorf("Members(%d) starts at %d", tc.of, got[0])
			}
			if slices.Sort(got); !slices.Equal(got, tc.want) {
				t.Errorf("Members(%d) = %v, want %v", tc.of, got, tc.want)
			}
		})
	}
}

// classesByMap is Classes as Pairs was first written — every node
// filed under its root in a map, then the classes of two or more
// members sorted — kept as the oracle for the sorted-word grouping.
func classesByMap(eq *Eq) [][]int32 {
	byRoot := make(map[int32][]int32)
	for n := range int32(eq.Len()) {
		r := eq.Find(n)
		byRoot[r] = append(byRoot[r], n)
	}
	var out [][]int32
	for _, members := range byRoot {
		if len(members) > 1 {
			out = append(out, members)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// pairsByMap expands classesByMap into every pair of each class, sorted.
func pairsByMap(eq *Eq) []Pair {
	var out []Pair
	for _, members := range classesByMap(eq) {
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				out = append(out, Pair{members[i], members[j]})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// FuzzPairs compares Classes and Pairs with the map-based enumeration
// after every step of a random history, and checks that Members(a),
// for every node a, yields a's class as Same finds it, each member
// once. Every three bytes are one step: a union, the Reset of a node's
// whole class, or a Grow by one node. The seeds run in tier-1. Mutants
// killed: Union not splicing the rings, and Reset leaving a member's
// ring link stale.
func FuzzPairs(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 2, 3, 2, 1, 0, 0, 4, 5, 3, 0, 0, 0, 40, 41})
	f.Add([]byte{0, 0, 2, 0, 2, 4, 0, 4, 1, 0, 1, 3})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 60; i++ {
		hist := make([]byte, 3*rng.Intn(80))
		rng.Read(hist)
		f.Add(hist)
	}
	f.Fuzz(func(t *testing.T, hist []byte) {
		eq := New(40)
		for ; len(hist) >= 3; hist = hist[3:] {
			a, b := int32(hist[1])%int32(eq.Len()), int32(hist[2])%int32(eq.Len())
			switch hist[0] % 4 {
			case 0, 1:
				eq.Union(a, b)
			case 2:
				var class []int32
				for n := int32(0); n < int32(eq.Len()); n++ {
					if eq.Same(n, a) {
						class = append(class, n)
					}
				}
				eq.Reset(class)
			case 3:
				eq.Grow(min(eq.Len()+1, 64))
			}
			if got, want := eq.Classes(), classesByMap(eq); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("Classes = %v, the map-based grouping gives %v", got, want)
			}
			if got, want := eq.Pairs(), pairsByMap(eq); !slices.Equal(got, want) {
				t.Fatalf("Pairs = %v, the map-based enumeration gives %v", got, want)
			}
			for a := range int32(eq.Len()) {
				var want []int32
				for n := range int32(eq.Len()) {
					if eq.Same(n, a) {
						want = append(want, n)
					}
				}
				got := slices.Sorted(eq.Members(a))
				if !slices.Equal(got, want) {
					t.Fatalf("Members(%d) = %v, Same finds %v", a, got, want)
				}
			}
		}
	})
}
