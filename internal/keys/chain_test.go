package keys_test

import (
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/keys"
)

// TestLongestChainShared pins LongestChain on the key sets other
// packages share: the paper's Q1–Q6, the synthetic default, and the
// repository benchmark's two inputs at seed 1, each a flavour whose
// own keys are mutually recursive plus two planted chains of c = 2.
func TestLongestChainShared(t *testing.T) {
	syn, err := gen.Synthetic(gen.DefaultSynthetic())
	if err != nil {
		t.Fatal(err)
	}
	type chainCase struct {
		name   string
		set    *keys.Set
		c      int
		cyclic bool
	}
	cases := []chainCase{{"paper", fixtures.AllKeys(), 1, true}, {"synthetic", syn.Keys, 2, false}}
	for _, in := range []struct {
		name    string
		flavor  func(gen.FlavorConfig) (*gen.Workload, error)
		scale   float64
		perType int
	}{
		{"dbpedia-chains", gen.DBpedia, 8, 1200},
		{"google-chains", gen.Google, 16, 384},
	} {
		w, err := in.flavor(gen.FlavorConfig{Seed: 1, Scale: in.scale})
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.PlantChains(w, gen.SyntheticConfig{
			Seed: 14, TypeGroups: 2, EntitiesPerType: in.perType,
			DupFraction: 0.2, NearMissFraction: 0.3, Chain: 2, Radius: 2,
			Labels: 6000, NoiseEdgesPerEntity: 1,
		}, "c_"); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, chainCase{in.name, w.Keys, 2, true})
	}
	for _, cc := range cases {
		if c, cyclic := cc.set.LongestChain(); c != cc.c || cyclic != cc.cyclic {
			t.Errorf("%s: LongestChain = (%d, %v), want (%d, %v)", cc.name, c, cyclic, cc.c, cc.cyclic)
		}
	}
}
