package eqrel

import (
	"math/rand"
	"slices"
	"sort"
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
	if eq.Classes() != 5 {
		t.Errorf("Classes = %d, want 5", eq.Classes())
	}
	if eq.Version() != 0 {
		t.Errorf("Version = %d, want 0", eq.Version())
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
	if eq.Classes() != 4 {
		t.Errorf("Classes = %d, want 4", eq.Classes())
	}
	if eq.Version() != 2 {
		t.Errorf("Version = %d, want 2", eq.Version())
	}
}

func TestPairs(t *testing.T) {
	eq := New(6)
	eq.Union(0, 1)
	eq.Union(1, 2)
	eq.Union(4, 5)
	universe := []int32{0, 1, 2, 3, 4, 5}
	pairs := eq.Pairs(universe)
	want := []Pair{{0, 1}, {0, 2}, {1, 2}, {4, 5}}
	if len(pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", pairs, want)
	}
	for i := range want {
		if pairs[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", pairs, want)
		}
	}
	// Restricting the universe restricts the pairs.
	pairs = eq.Pairs([]int32{0, 2, 4})
	if len(pairs) != 1 || pairs[0] != (Pair{0, 2}) {
		t.Fatalf("restricted pairs = %v", pairs)
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
	if c.Version() != eq.Version()+1 {
		t.Error("clone version drifted")
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
// leaves the relation — roots, class count, views — exactly as a fresh
// relation given the same surviving unions, while other classes keep
// their representatives.
func TestResetMatchesFreshReplay(t *testing.T) {
	unions := []Pair{{0, 1}, {2, 3}, {1, 3}, {5, 6}, {6, 7}, {3, 4}}
	eq := New(9)
	for _, u := range unions {
		eq.Union(u.A, u.B)
	}
	if eq.Classes() != 3 {
		t.Fatalf("Classes = %d, want 3 before reset", eq.Classes())
	}
	other := eq.Find(5)
	rd := eq.Reader() // taken before the reset: a view, not a copy
	snap := eq.Clone()
	v := eq.Version()

	eq.Reset([]int32{0, 1, 2, 3, 4})
	if eq.Classes() != 7 {
		t.Errorf("Classes = %d after reset, want 7", eq.Classes())
	}
	if eq.Version() <= v {
		t.Errorf("Version %d did not advance past %d on reset", eq.Version(), v)
	}
	for i := int32(0); i < 5; i++ {
		if eq.Find(i) != i {
			t.Errorf("member %d is not its own representative after reset", i)
		}
		for j := i + 1; j < 5; j++ {
			if eq.Same(i, j) || rd.Same(i, j) {
				t.Errorf("reset class still relates %d and %d", i, j)
			}
		}
	}
	if eq.Find(5) != other || !eq.Same(5, 7) || !rd.Same(5, 7) {
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
	if eq.Classes() != fresh.Classes() {
		t.Errorf("Classes = %d, fresh replay has %d", eq.Classes(), fresh.Classes())
	}
	for i := int32(0); i < 9; i++ {
		if eq.Find(i) != fresh.Find(i) {
			t.Errorf("representative of %d = %d, fresh replay has %d", i, eq.Find(i), fresh.Find(i))
		}
		if rd.Find(i) != fresh.Find(i) {
			t.Errorf("Reader representative of %d = %d, fresh replay has %d", i, rd.Find(i), fresh.Find(i))
		}
	}

	// Singletons and the empty list are no-ops.
	v, c := eq.Version(), eq.Classes()
	eq.Reset(nil)
	eq.Reset([]int32{8})
	if eq.Version() != v || eq.Classes() != c {
		t.Error("resetting a trivial class changed Version or Classes")
	}
}

// pairsByMap is Pairs as it was first written — every member of the
// universe filed under its root in a map, then each class enumerated —
// kept as the oracle for the sorted-slice enumeration.
func pairsByMap(eq *Eq, universe []int32) []Pair {
	classes := make(map[int32][]int32)
	for _, n := range universe {
		r := eq.Find(n)
		classes[r] = append(classes[r], n)
	}
	var out []Pair
	for _, members := range classes {
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
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

// FuzzPairs compares Pairs with the map-based enumeration after every
// step of a random history. The first eight bytes pick the universe out
// of the first 64 nodes — so classes are cut anywhere, down to one
// member, which yields no pair — and every further three bytes are one
// step: a union, the Reset of a node's whole class, or a Grow by one
// node. The seeds run in tier-1.
func FuzzPairs(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 2, 0, 2, 3, 2, 1, 0, 0, 4, 5, 3, 0, 0, 0, 40, 41})
	f.Add([]byte{0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0x55, 0, 0, 2, 0, 2, 4, 0, 4, 1, 0, 1, 3})
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 60; i++ {
		hist := make([]byte, 8+3*rng.Intn(80))
		rng.Read(hist)
		f.Add(hist)
	}
	f.Fuzz(func(t *testing.T, hist []byte) {
		if len(hist) < 8 {
			t.Skip()
		}
		var universe []int32
		for n := int32(0); n < 64; n++ {
			if hist[n/8]>>(n%8)&1 == 1 {
				universe = append(universe, n)
			}
		}
		eq := New(40)
		for hist = hist[8:]; len(hist) >= 3; hist = hist[3:] {
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
			inRange := universe
			for len(inRange) > 0 && int(inRange[len(inRange)-1]) >= eq.Len() {
				inRange = inRange[:len(inRange)-1]
			}
			if got, want := eq.Pairs(inRange), pairsByMap(eq, inRange); !slices.Equal(got, want) {
				t.Fatalf("Pairs = %v, the map-based enumeration gives %v", got, want)
			}
		}
	})
}
