package emvc

import (
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// TestIndexedCandidatesDifferential: both vertex-centric variants
// compute the same chase(G, Σ) when the product graph is seeded from
// the value-index-generated candidate set as from the full C(n, 2)
// sweep, on fixtures and generated workloads.
func TestIndexedCandidatesDifferential(t *testing.T) {
	workloads := []struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
	}
	syn, err := gen.Synthetic(gen.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}{"synthetic", syn.Graph, syn.Keys})
	dw, err := gen.DBpedia(gen.FlavorConfig{Seed: 1, Scale: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	workloads = append(workloads, struct {
		name string
		g    *graph.Graph
		set  *keys.Set
	}{"dbpedia", dw.Graph, dw.Keys})

	for _, w := range workloads {
		for _, v := range []Variant{Base, Opt} {
			t.Run(w.name+"/"+v.String(), func(t *testing.T) {
				full := run(t, w.g, w.set, Config{P: 3, Variant: v, Match: match.Options{FullSweep: true}})
				indexed := run(t, w.g, w.set, Config{P: 3, Variant: v})
				if !samePairs(full.Pairs, indexed.Pairs) {
					t.Fatalf("%v: indexed candidates changed the result:\nfull    %v\nindexed %v",
						v, full.Pairs, indexed.Pairs)
				}
				if indexed.Stats.Candidates > full.Stats.Candidates {
					t.Errorf("indexed seeded more candidates than full: %d > %d",
						indexed.Stats.Candidates, full.Stats.Candidates)
				}
			})
		}
	}
}
