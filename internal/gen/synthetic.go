// Package gen generates the workloads of the experimental study of
// "Keys for Graphs" (§6): the synthetic graph/key generator controlled
// by the number of entities and values, the dependency-chain length c
// and the key radius d, plus domain-flavored simulators standing in for
// the Google+ and DBpedia datasets. The real datasets are not
// redistributable and carry no ground truth; the simulators keep what
// the experiments vary — type and key counts, key shapes (Fig. 7),
// recursion between types, the share of duplicates — and scale by a
// parameter, so the shapes of §6 can be checked, not its absolute times.
//
// Generators plant known duplicate pairs, so every generated workload
// carries its expected chase result; the test suites and the benchmark
// harness verify engines against it.
package gen

import (
	"fmt"
	"math/rand"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// SyntheticConfig controls the synthetic generator. The zero value is
// not runnable; use DefaultSynthetic as a base.
type SyntheticConfig struct {
	Seed int64
	// TypeGroups is the number of independent dependency chains; each
	// chain contributes Chain+1 entity types, each with one key, so the
	// key count is TypeGroups*(Chain+1).
	TypeGroups int
	// EntitiesPerType is the number of entities of each keyed type.
	EntitiesPerType int
	// DupFraction is the fraction of entities planted as duplicates
	// (each planted entity gets one duplicate partner).
	DupFraction float64
	// NearMissFraction is the fraction of non-duplicate entities at
	// recursive levels that share their attribute value with a partner
	// without sharing children — candidate pairs that survive pairing
	// but fail the recursive check.
	NearMissFraction float64
	// Chain is c: the length of each type chain's dependency path.
	// Level 0 keys are value-based; level l > 0 keys require an
	// identified level l-1 child.
	Chain int
	// Radius is d: keys reach their identifying value through a path of
	// Radius-1 wildcard entities, so d(Q, x) = Radius.
	Radius int
	// Labels is the size of the predicate alphabet (the paper uses
	// 6000); predicates are drawn from it deterministically.
	Labels int
	// NoiseEdgesPerEntity adds random extra edges with random labels.
	NoiseEdgesPerEntity int
}

// DefaultSynthetic mirrors the paper's §6 setting scaled down: 500 keys
// come from 500/(c+1) chains when Chain=c.
func DefaultSynthetic() SyntheticConfig {
	return SyntheticConfig{
		Seed:                1,
		TypeGroups:          4,
		EntitiesPerType:     40,
		DupFraction:         0.2,
		NearMissFraction:    0.1,
		Chain:               2,
		Radius:              2,
		Labels:              6000,
		NoiseEdgesPerEntity: 1,
	}
}

// Workload is a generated graph, its key set, and the planted ground
// truth.
type Workload struct {
	Graph *graph.Graph
	Keys  *keys.Set
	// Expected is the set of planted duplicate pairs: the chase result
	// the engines must produce, sorted.
	Expected []eqrel.Pair
}

// Synthetic generates a workload per the configuration.
func Synthetic(cfg SyntheticConfig) (*Workload, error) {
	g := graph.New()
	dsl, expected, err := plantChains(g, cfg, "")
	if err != nil {
		return nil, err
	}
	set, err := keys.ParseString(dsl)
	if err != nil {
		return nil, fmt.Errorf("gen: generated DSL invalid: %v", err)
	}
	w := &Workload{Graph: g, Keys: set, Expected: expected}
	sortExpected(w.Expected)
	return w, nil
}

// PlantChains extends an existing workload with synthetic dependency
// chains of the given chain length and radius: chain types, their keys
// and planted duplicates are added to the workload's graph, key set and
// ground truth. It is how the §6 Exp-3 sweeps attach keys of varying c
// and d to the Google- and DBpedia-flavored graphs. The prefix keeps
// type, key and predicate names disjoint from the base workload's.
func PlantChains(w *Workload, cfg SyntheticConfig, prefix string) error {
	dsl, expected, err := plantChains(w.Graph, cfg, prefix)
	if err != nil {
		return err
	}
	combined := w.Keys.Format() + "\n" + dsl
	set, err := keys.ParseString(combined)
	if err != nil {
		return fmt.Errorf("gen: merged DSL invalid: %v", err)
	}
	w.Keys = set
	w.Expected = append(w.Expected, expected...)
	sortExpected(w.Expected)
	return nil
}

// plantChains writes chain entities/triples into g and returns the key
// DSL plus the planted pairs.
func plantChains(g *graph.Graph, cfg SyntheticConfig, prefix string) (string, []eqrel.Pair, error) {
	if cfg.TypeGroups < 1 || cfg.EntitiesPerType < 2 {
		return "", nil, fmt.Errorf("gen: need at least 1 type group and 2 entities per type")
	}
	if cfg.Chain < 0 || cfg.Radius < 1 {
		return "", nil, fmt.Errorf("gen: Chain must be >= 0 and Radius >= 1")
	}
	if cfg.Labels < cfg.TypeGroups*(cfg.Chain+1)*(cfg.Radius+1)+2 {
		cfg.Labels = cfg.TypeGroups*(cfg.Chain+1)*(cfg.Radius+1) + 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var dsl string
	var expected []eqrel.Pair

	pred := func(i int) string { return fmt.Sprintf("%sp%04d", prefix, i%cfg.Labels) }
	nextPred := 0
	// Key predicates occupy [0, totalKeyPreds); noise draws from the
	// rest of the alphabet so it can never complete a key pattern.
	totalKeyPreds := cfg.TypeGroups * (cfg.Chain + 1) * (cfg.Radius + 1)
	noisePred := func() string {
		return pred(totalKeyPreds + rng.Intn(cfg.Labels-totalKeyPreds))
	}

	for grp := 0; grp < cfg.TypeGroups; grp++ {
		// prev holds the previous level's entities; prevDup maps a
		// duplicate's index to its partner index.
		var prev []graph.NodeID
		for lvl := 0; lvl <= cfg.Chain; lvl++ {
			typeName := fmt.Sprintf("%sT%03d_%d", prefix, grp, lvl)
			auxType := fmt.Sprintf("%sX%03d_%d", prefix, grp, lvl)
			// Predicates for this type's key: Radius chain preds plus a
			// child pred.
			chainPreds := make([]string, cfg.Radius)
			for i := range chainPreds {
				chainPreds[i] = pred(nextPred)
				nextPred++
			}
			childPred := pred(nextPred)
			nextPred++

			// Key DSL: x -p1-> _:aux -p2-> ... -pd-> v*  [+ child].
			keyName := fmt.Sprintf("%sK%03d_%d", prefix, grp, lvl)
			body := ""
			cur := "x"
			for i := 0; i < cfg.Radius-1; i++ {
				w := fmt.Sprintf("_w%d:%s", i, auxType)
				body += fmt.Sprintf("    %s -%s-> %s\n", cur, chainPreds[i], w)
				cur = w
			}
			body += fmt.Sprintf("    %s -%s-> v*\n", cur, chainPreds[cfg.Radius-1])
			if lvl > 0 {
				body += fmt.Sprintf("    x -%s-> $y:%sT%03d_%d\n", childPred, prefix, grp, lvl-1)
			}
			dsl += fmt.Sprintf("key %s for %s {\n%s}\n", keyName, typeName, body)

			// Entities. Index 2i/2i+1 are duplicate partners for the
			// planted fraction.
			n := cfg.EntitiesPerType
			level := make([]graph.NodeID, n)
			nDup := int(float64(n) * cfg.DupFraction / 2)
			nNear := 0
			if lvl > 0 {
				nNear = int(float64(n) * cfg.NearMissFraction / 2)
			}
			// Near-miss partners must point at distinct, non-duplicate
			// children; that needs at least two entities outside the
			// planted ranges.
			if n-(2*nDup+2*nNear) < 2 {
				nNear = 0
			}
			uniqueStart := 2*nDup + 2*nNear
			tail := n - uniqueStart
			for i := 0; i < n; i++ {
				e := g.MustAddEntity(fmt.Sprintf("%s_e%d", typeName, i), typeName)
				level[i] = e
				// Attribute chain: fresh aux entities per entity (the
				// wildcards do not require shared nodes), ending at the
				// identifying value.
				var valueKey string
				switch {
				case i < 2*nDup:
					valueKey = fmt.Sprintf("%s_dv%d", typeName, i/2)
				case i < 2*nDup+2*nNear:
					valueKey = fmt.Sprintf("%s_nm%d", typeName, (i-2*nDup)/2)
				default:
					valueKey = fmt.Sprintf("%s_v%d", typeName, i)
				}
				cur := e
				for hop := 0; hop < cfg.Radius-1; hop++ {
					aux := g.MustAddEntity(fmt.Sprintf("%s_e%d_a%d", typeName, i, hop), auxType)
					g.MustAddTriple(cur, chainPreds[hop], aux)
					cur = aux
				}
				g.MustAddTriple(cur, chainPreds[cfg.Radius-1], g.AddValue(valueKey))
				// Child edge to the previous level: duplicate partners
				// point at duplicate children; near-misses point at
				// unrelated children.
				if lvl > 0 {
					var child graph.NodeID
					switch {
					case i < 2*nDup:
						// Pair (2j, 2j+1) points at the previous
						// level's pair (2j, 2j+1) respectively, which
						// are duplicates of each other — the cascade.
						child = prev[i%len(prev)]
					case i < 2*nDup+2*nNear:
						// Partners share the value but point at
						// distinct non-duplicate children, so the
						// recursive key must fail.
						child = prev[uniqueStart+(i-2*nDup)%tail]
					default:
						child = prev[rng.Intn(len(prev))]
					}
					g.MustAddTriple(e, childPred, child)
				}
				// Noise, from the reserved predicate range.
				for k := 0; k < cfg.NoiseEdgesPerEntity; k++ {
					g.MustAddTriple(e, noisePred(),
						g.AddValue(fmt.Sprintf("noise%d", rng.Intn(1000))))
				}
			}
			for j := 0; j < nDup; j++ {
				expected = append(expected, eqrel.MakePair(int32(level[2*j]), int32(level[2*j+1])))
			}
			prev = level
		}
	}
	return dsl, expected, nil
}

func sortExpected(ps []eqrel.Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && less(ps[j], ps[j-1]); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func less(a, b eqrel.Pair) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}
