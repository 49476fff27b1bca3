package match

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// hubCase is a chain input shaped to stress the side-level index: 240
// `mid` entities all carry one name value, so every two of them are
// candidates and each one's neighbourhood is reached by many pairs;
// the types' radii differ (leaf 1, mid 1, top 2, peer 1); and `peer`
// depends on its own type with partners that know each other, so a
// pair's members sit in each other's neighbourhood with a dependency
// type — the case the definition excludes.
func hubCase(t *testing.T) streamCase {
	t.Helper()
	set, err := keys.ParseString(`
key L for leaf {
    x -lname-> n*
}
key M for mid {
    x -mname-> n*
    x -child-> $y:leaf
}
key T for top {
    x -via-> _w:aux
    _w:aux -tname-> n*
    x -child-> $y:mid
}
key P for peer {
    x -pname-> n*
    x -knows-> $y:peer
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	var leaves, mids []graph.NodeID
	for i := 0; i < 40; i++ {
		e := g.MustAddEntity(fmt.Sprintf("leaf%d", i), "leaf")
		g.MustAddTriple(e, "lname", g.AddValue(fmt.Sprintf("lname%d", i/2)))
		leaves = append(leaves, e)
	}
	hub := g.AddValue("hub")
	for i := 0; i < 240; i++ {
		e := g.MustAddEntity(fmt.Sprintf("mid%d", i), "mid")
		g.MustAddTriple(e, "mname", hub)
		g.MustAddTriple(e, "child", leaves[i%len(leaves)])
		mids = append(mids, e)
	}
	for i := 0; i < 60; i++ {
		e := g.MustAddEntity(fmt.Sprintf("top%d", i), "top")
		aux := g.MustAddEntity(fmt.Sprintf("aux%d", i), "aux")
		g.MustAddTriple(e, "via", aux)
		g.MustAddTriple(aux, "tname", g.AddValue(fmt.Sprintf("tname%d", i/3)))
		g.MustAddTriple(e, "child", mids[(7*i)%len(mids)])
	}
	var peers []graph.NodeID
	for i := 0; i < 30; i++ {
		e := g.MustAddEntity(fmt.Sprintf("peer%d", i), "peer")
		g.MustAddTriple(e, "pname", g.AddValue(fmt.Sprintf("pname%d", i/5)))
		peers = append(peers, e)
	}
	for i, e := range peers {
		g.MustAddTriple(e, "knows", peers[(i+1)%len(peers)])
		g.MustAddTriple(e, "knows", peers[(i+5)%len(peers)])
	}
	return streamCase{"hub", g, set}
}

// TestDependencyIndexMatchesDefinition holds the side-level index to a
// brute force of the definition (§4.2): candidate pair (a, b) depends
// on entity n iff n ∈ (N_d(a) ∪ N_d(b)) ∖ {a, b}, d the radius of the
// pair's type, and type(n) is an entity-variable type of a recursive
// key on that type. Per case it compares Active for every single node
// of the graph and for sets of changed entities: a pair's own two
// members — alone, and followed by an entity the pair depends on, the
// sets the exclusion turns on — and random ones.
func TestDependencyIndexMatchesDefinition(t *testing.T) {
	for _, tc := range append(streamCases(t), hubCase(t)) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			m := newMatcher(t, g, tc.set)
			cands := slices.Collect(m.CandidateStream())

			// The definition, from the key set and the graph alone.
			reach := make(map[graph.NodeID]map[graph.NodeID]bool) // memoized N_d(e)
			within := func(e graph.NodeID, d int) map[graph.NodeID]bool {
				if seen, ok := reach[e]; ok {
					return seen
				}
				seen := map[graph.NodeID]bool{e: true}
				frontier := []graph.NodeID{e}
				for hop := 0; hop < d; hop++ {
					var next []graph.NodeID
					for _, n := range frontier {
						for _, ed := range slices.Concat(g.Out(n), g.In(n)) {
							if !seen[ed.To] {
								seen[ed.To] = true
								next = append(next, ed.To)
							}
						}
					}
					frontier = next
				}
				reach[e] = seen
				return seen
			}
			dependsOn := make(map[int32][]int) // entity → pair indices, ascending
			pairDeps := make([][]int32, len(cands))
			for i, pr := range cands {
				typeName := g.TypeName(g.TypeOf(graph.NodeID(pr.A)))
				depTypes := make(map[string]bool)
				for _, k := range tc.set.ForType(typeName) {
					if k.Recursive {
						for _, tn := range k.EntityVarTypes() {
							depTypes[tn] = true
						}
					}
				}
				d := tc.set.MaxRadiusForType(typeName)
				on := make(map[graph.NodeID]bool)
				for _, side := range [2]int32{pr.A, pr.B} {
					for n := range within(graph.NodeID(side), d) {
						if nt, ok := g.EntityType(n); ok && depTypes[g.TypeName(nt)] {
							on[n] = true
						}
					}
				}
				delete(on, graph.NodeID(pr.A))
				delete(on, graph.NodeID(pr.B))
				for n := range on {
					dependsOn[int32(n)] = append(dependsOn[int32(n)], i)
					pairDeps[i] = append(pairDeps[i], int32(n))
				}
				slices.Sort(pairDeps[i])
			}
			want := func(changed []int32) []int {
				var out []int
				for _, n := range changed {
					out = append(out, dependsOn[n]...)
				}
				slices.Sort(out)
				return slices.Compact(out)
			}

			// A fresh matcher scanned by several workers must build the
			// same index (and gives the race detector the concurrent
			// first requests to look at).
			fresh, err := New(g, tc.set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seq, scanned := m.BuildDependencyIndexParallel(cands, 1), fresh.BuildDependencyIndexParallel(cands, 4)
			if seq.Entries() != scanned.Entries() {
				t.Fatalf("index holds %d entries built by one worker, %d built by 4", seq.Entries(), scanned.Entries())
			}
			check := func(changed []int32) {
				t.Helper()
				w := want(changed)
				for _, idx := range []*DependencyIndex{seq, scanned} {
					if got := idx.Active(slices.Values(changed)); !slices.Equal(got, w) {
						t.Fatalf("Active(%v) = %v, the definition gives %v", changed, got, w)
					}
				}
			}
			total := 0
			for n := 0; n < g.NumNodes(); n++ {
				check([]int32{int32(n)})
				total += len(dependsOn[int32(n)])
			}
			rng := rand.New(rand.NewSource(14))
			var ents []int32
			g.EachEntity(func(n graph.NodeID) { ents = append(ents, int32(n)) })
			for _, i := range rng.Perm(len(cands))[:min(len(cands), 300)] {
				pr := cands[i]
				check([]int32{pr.A, pr.B})
				third := ents[rng.Intn(len(ents))]
				if deps := pairDeps[i]; len(deps) > 0 {
					third = deps[rng.Intn(len(deps))]
				}
				check([]int32{pr.A, pr.B, third})
			}
			for trial := 0; trial < 200 && len(ents) > 0; trial++ {
				changed := make([]int32, 1+rng.Intn(6))
				for k := range changed {
					changed[k] = ents[rng.Intn(len(ents))]
				}
				check(changed)
			}
			t.Logf("%d candidates, %d entity→pair links by the definition, %d entity→side entries in the index", len(cands), total, seq.Entries())
		})
	}
}
