package match_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// coverCase is one workload the dependency index must cover the chase
// on, under the matcher options the chase ran with.
type coverCase struct {
	name string
	g    *graph.Graph
	set  *keys.Set
	opts match.Options
}

// coverCases are the parallel chase's differential workloads — the
// fixtures, all six keys, synthetic chains, google and dbpedia at small
// scale — plus a book whose x→y path runs through a constant the two
// books spell differently, chased under case-insensitive value
// equality: the walk must admit a value the check takes for the
// constant, not the constant's node alone.
func coverCases(t *testing.T) []coverCase {
	t.Helper()
	cases := []coverCase{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys(), match.Options{}},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys(), match.Options{}},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys(), match.Options{}},
		{"music-allkeys", fixtures.MusicGraph(), fixtures.AllKeys(), match.Options{}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := gen.DefaultSynthetic()
		cfg.Seed = seed
		cfg.EntitiesPerType = 18 + int(seed)*7
		cfg.Chain = 1 + int(seed)%3
		cfg.Radius = 1 + int(seed)%2
		w, err := gen.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, coverCase{fmt.Sprintf("synthetic-%d", seed), w.Graph, w.Keys, match.Options{}})
	}
	for _, flavor := range []struct {
		name  string
		build func(gen.FlavorConfig) (*gen.Workload, error)
	}{{"google", gen.Google}, {"dbpedia", gen.DBpedia}} {
		w, err := flavor.build(gen.FlavorConfig{Seed: 7, Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, coverCase{flavor.name, w.Graph, w.Keys, match.Options{}})
	}

	set, err := keys.ParseString(`
key A for author {
    x -name-> n*
}
key B for book {
    x -title-> t*
    x -tag-> "Gold"
    $y:author -tag-> "Gold"
}`)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	for i, tag := range []string{"gold", "GOLD", "Gold"} {
		b := g.MustAddEntity(fmt.Sprintf("b%d", i), "book")
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "author")
		g.MustAddTriple(b, "title", g.AddValue("T"))
		g.MustAddTriple(b, "tag", g.AddValue(tag))
		g.MustAddTriple(a, "tag", g.AddValue(tag))
		g.MustAddTriple(a, "name", g.AddValue(fmt.Sprintf("N%d", i/2)))
	}
	return append(cases, coverCase{"constant-under-value-eq", g, set, match.Options{ValueEq: strings.EqualFold}})
}

// TestDependencyIndexCoversRequires is the index's completeness, as a
// test: over all candidates, for every step of chase.Run at p = 1 and
// p = 2 and every pair (u′, v′) its witness required in Eq, Active([u′])
// and Active([v′]) hold the step's pair — so when the classes of u′ and
// v′ merge, the parallel chase re-checks the pair. A member that is one
// of the pair's own two entities is skipped, as Active excludes it.
func TestDependencyIndexCoversRequires(t *testing.T) {
	for _, tc := range coverCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			m, err := match.New(tc.g, tc.set, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			cands := slices.Collect(m.CandidateStream())
			pos := make(map[eqrel.Pair]int, len(cands))
			for i, pr := range cands {
				pos[pr] = i
			}
			idx := m.BuildDependencyIndexParallel(cands, 2)
			covered := 0
			for _, p := range []int{1, 2} {
				res, err := chase.Run(tc.g, tc.set, chase.Options{Parallelism: p, Match: tc.opts})
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range res.Steps {
					i, ok := pos[st.Pair]
					if !ok {
						t.Fatalf("p = %d: step %v is no candidate", p, st.Pair)
					}
					for _, req := range st.Requires {
						for _, u := range [2]int32{req.A, req.B} {
							if u == st.Pair.A || u == st.Pair.B {
								continue
							}
							if _, ok := slices.BinarySearch(idx.Active([]int32{u}, nil), i); !ok {
								t.Fatalf("p = %d: step %v by %s requires %v, but Active([%d]) misses the pair", p, st.Pair, st.Key, req, u)
							}
							covered++
						}
					}
				}
			}
			if tc.name == "constant-under-value-eq" && covered == 0 {
				t.Fatal("no step required a pair: the case does not reach the constant")
			}
		})
	}
}
