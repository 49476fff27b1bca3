package match

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/pattern"
)

// hubCase is a chain input shaped to stress the side-level index: 240
// `mid` entities all carry one name value, so every two of them are
// candidates and each side is reached by many pairs; the x→y paths
// differ in length (top's runs through a wildcard); and `peer` depends
// on its own type with partners that know each other, so a pair's
// members reach each other along its path — the case the definition
// excludes.
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
// brute force of the definition (§4.2): candidate pair (a, b) depends on
// entity n ∉ {a, b} iff, for some entity variable y of a recursive key
// on the pair's type, following the key's x→y path triple by triple
// from a or from b, through nodes each pattern node's local constraint
// admits, reaches n. Per case it compares Active for every single node
// of the graph and for sets of changed entities: a pair's own two
// members — alone, and followed by an entity the pair depends on, the
// sets the exclusion turns on — and random ones. The relation the index
// held before, n ∈ (N_d(a) ∪ N_d(b)) ∖ {a, b} with the type of such a
// y, d the radius of the pair's type, bounds every answer from above:
// the paths only narrow it.
func TestDependencyIndexMatchesDefinition(t *testing.T) {
	for _, tc := range append(streamCases(t), hubCase(t)) {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			m := newMatcher(t, g, tc.set)
			cands := slices.Collect(m.CandidateStream())

			// The definition, from the compiled paths and the graph alone.
			local := func(n compiledNode, v graph.NodeID) bool {
				switch n.kind {
				case pattern.Const:
					return v == n.constID
				case pattern.ValueVar:
					return g.IsValue(v)
				default:
					nt, ok := g.EntityType(v)
					return ok && nt == n.typ
				}
			}
			follow := func(ck *CompiledKey, path []hop, e graph.NodeID) map[graph.NodeID]bool {
				seen := map[graph.NodeID]bool{e: true}
				for _, hp := range path {
					next := make(map[graph.NodeID]bool)
					for n := range seen {
						edges := g.In(n)
						if hp.out {
							edges = g.Out(n)
						}
						for _, ed := range edges {
							if ed.Pred == hp.pred && local(ck.nodes[hp.to], ed.To) {
								next[ed.To] = true
							}
						}
					}
					seen = next
				}
				return seen
			}
			// The d-ball bound.
			type ball struct {
				e graph.NodeID
				d int
			}
			reach := make(map[ball]map[graph.NodeID]bool) // memoized N_d(e)
			within := func(e graph.NodeID, d int) map[graph.NodeID]bool {
				if seen, ok := reach[ball{e, d}]; ok {
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
				reach[ball{e, d}] = seen
				return seen
			}
			dependsOn := make(map[int32][]int) // entity → pair indices, ascending
			ballOn := make(map[int32][]int)
			pairDeps := make([][]int32, len(cands))
			for i, pr := range cands {
				typ := g.TypeOf(graph.NodeID(pr.A))
				typeName := g.TypeName(typ)
				depTypes := make(map[string]bool)
				for _, k := range tc.set.ForType(typeName) {
					if k.Recursive {
						for _, tn := range k.EntityVarTypes() {
							depTypes[tn] = true
						}
					}
				}
				d := tc.set.MaxRadiusForType(typeName)
				on, ball := make(map[graph.NodeID]bool), make(map[graph.NodeID]bool)
				for _, side := range [2]graph.NodeID{graph.NodeID(pr.A), graph.NodeID(pr.B)} {
					for _, ck := range m.KeysFor(typ) {
						if !ck.Key.Recursive || !ck.Matchable() {
							continue
						}
						for _, path := range ck.vars {
							maps.Copy(on, follow(ck, path, side))
						}
					}
					for n := range within(side, d) {
						if nt, ok := g.EntityType(n); ok && depTypes[g.TypeName(nt)] {
							ball[n] = true
						}
					}
				}
				for _, rel := range []map[graph.NodeID]bool{on, ball} {
					delete(rel, graph.NodeID(pr.A))
					delete(rel, graph.NodeID(pr.B))
				}
				for n := range on {
					dependsOn[int32(n)] = append(dependsOn[int32(n)], i)
					pairDeps[i] = append(pairDeps[i], int32(n))
				}
				for n := range ball {
					ballOn[int32(n)] = append(ballOn[int32(n)], i)
				}
				slices.Sort(pairDeps[i])
			}
			union := func(rel map[int32][]int, changed []int32) []int {
				var out []int
				for _, n := range changed {
					out = append(out, rel[n]...)
				}
				slices.Sort(out)
				return slices.Compact(out)
			}

			// Four workers, each side on a join of its own, must build
			// the same index as one (and give the race detector the
			// concurrent walks to look at).
			seq, scanned := m.BuildDependencyIndexParallel(cands, 1), m.BuildDependencyIndexParallel(cands, 4)
			if seq.Entries() != scanned.Entries() {
				t.Fatalf("index holds %d entries built by one worker, %d built by 4", seq.Entries(), scanned.Entries())
			}
			check := func(changed []int32) {
				t.Helper()
				w, bound := union(dependsOn, changed), union(ballOn, changed)
				for _, idx := range []*DependencyIndex{seq, scanned} {
					got := idx.Active(changed, nil)
					if !slices.Equal(got, w) {
						t.Fatalf("Active(%v) = %v, the definition gives %v", changed, got, w)
					}
					if i := slices.IndexFunc(got, func(i int) bool { _, ok := slices.BinarySearch(bound, i); return !ok }); i >= 0 {
						t.Fatalf("Active(%v) holds pair %d, outside the d-ball relation %v", changed, got[i], bound)
					}
				}
			}
			total, ballTotal := 0, 0
			for n := 0; n < g.NumNodes(); n++ {
				check([]int32{int32(n)})
				total += len(dependsOn[int32(n)])
				ballTotal += len(ballOn[int32(n)])
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
			t.Logf("%d candidates, %d entity→pair links by the definition (%d by the d-ball), %d entity→side entries in the index", len(cands), total, ballTotal, seq.Entries())

			// Dependents is the relation read backwards from a merge of
			// classes C1 and C2: {p, q} with p ≠ q when, for some recursive
			// key's x→y path, following it from p meets C1 and from q
			// meets C2 (an unordered pair, so also the other way round).
			// The product the incremental engine expanded before bounds it
			// from above: same-type entities with a recursive key, one
			// within the set's maximum radius of C1 and one of C2.
			type keyPath struct {
				ck   *CompiledKey
				path []hop
			}
			var kps []keyPath
			var yTypes []graph.TypeID
			for _, typ := range m.KeyedTypes() {
				for _, ck := range m.KeysFor(typ) {
					if !ck.Key.Recursive || !ck.Matchable() {
						continue
					}
					for _, path := range ck.vars {
						kps = append(kps, keyPath{ck, path})
						yTypes = append(yTypes, ck.nodes[path[len(path)-1].to].typ)
					}
				}
			}
			followed := make([]map[graph.NodeID]map[graph.NodeID]bool, len(kps))
			for i, kp := range kps {
				followed[i] = make(map[graph.NodeID]map[graph.NodeID]bool)
				for _, p := range g.EntitiesOfType(kp.ck.nodes[kp.ck.x].typ) {
					followed[i][p] = follow(kp.ck, kp.path, p)
				}
			}
			recTypes := make(map[string]bool)
			for _, typeName := range tc.set.Types() {
				recTypes[typeName] = slices.ContainsFunc(tc.set.ForType(typeName), func(k *keys.Key) bool { return k.Recursive })
			}
			radius := tc.set.MaxRadius()
			near := func(n graph.NodeID, class []graph.NodeID) bool {
				return slices.ContainsFunc(class, func(u graph.NodeID) bool { return within(u, radius)[n] })
			}
			dependents := func(c1, c2 []graph.NodeID) []eqrel.Pair {
				var out []eqrel.Pair
				for i := range kps {
					var a1, a2 []graph.NodeID
					for p, reached := range followed[i] {
						meets := func(class []graph.NodeID) bool {
							return slices.ContainsFunc(class, func(u graph.NodeID) bool { return reached[u] })
						}
						if meets(c1) {
							a1 = append(a1, p)
						}
						if meets(c2) {
							a2 = append(a2, p)
						}
					}
					for _, p := range a1 {
						for _, q := range a2 {
							if p != q {
								out = append(out, eqrel.MakePair(int32(p), int32(q)))
							}
						}
					}
				}
				slices.SortFunc(out, eqrel.Compare)
				return slices.Compact(out)
			}
			var types []graph.TypeID
			g.EachEntity(func(n graph.NodeID) { types = append(types, g.TypeOf(n)) })
			merges, found := 0, 0
			for trial := 0; trial < 300; trial++ {
				// Mostly the types some y binds, where merges have
				// dependents; the rest from every entity.
				typ := types[rng.Intn(len(types))]
				if len(yTypes) > 0 && trial%4 != 0 {
					typ = yTypes[rng.Intn(len(yTypes))]
				}
				pop := slices.Clone(g.EntitiesOfType(typ))
				if len(pop) < 2 {
					continue
				}
				rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
				k1 := 1 + rng.Intn(min(4, len(pop)-1))
				k2 := 1 + rng.Intn(min(4, len(pop)-k1))
				c1, c2 := pop[:k1], pop[k1:k1+k2]
				mem := func(class []graph.NodeID) []int32 {
					out := make([]int32, len(class))
					for i, u := range class {
						out[i] = int32(u)
					}
					return out
				}
				got, want := m.Dependents(mem(c1), mem(c2)), dependents(c1, c2)
				if !slices.Equal(got, want) {
					t.Fatalf("Dependents(%v, %v) = %v, the definition gives %v", c1, c2, got, want)
				}
				for _, pr := range got {
					p, q := graph.NodeID(pr.A), graph.NodeID(pr.B)
					if g.TypeOf(p) != g.TypeOf(q) || !recTypes[g.TypeName(g.TypeOf(p))] ||
						!(near(p, c1) && near(q, c2) || near(p, c2) && near(q, c1)) {
						t.Fatalf("Dependents(%v, %v) holds %v, outside the d-ball product", c1, c2, pr)
					}
				}
				merges++
				found += len(got)
			}
			t.Logf("%d merges, %d dependents", merges, found)
		})
	}
}
