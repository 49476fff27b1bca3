// Package emmr implements algorithm EMMR of "Keys for Graphs" (§4) and
// its variants: entity matching by rounds of a (simulated) MapReduce
// job. Each round maps over the active candidate pairs, checking
// (G1^d ∪ G2^d, Eq, Σ) ⊨ (e1, e2) with the EvalMR guided search (or the
// VF2 enumerate-all baseline), groups verdicts by entity in the reduce
// phase, and then the driver merges newly identified pairs into Eq —
// maintaining its transitive closure — until a round identifies nothing
// new (Eq no longer changes).
//
// Three variants reproduce the paper's experimental algorithms:
//
//   - Base (EMMR): guided search with early termination over the full
//     candidate set L, re-checking every unidentified pair each round.
//   - VF2 (EM^VF2_MR): the same driver with the enumerate-then-coincide
//     baseline checker, measuring the cost EvalMR avoids.
//   - Opt (EM^Opt_MR): the §4.2 optimizations — L filtered by the
//     pairing relation, d-neighbors reduced to pairing-relation nodes,
//     and dependency-driven incremental checking (after the first
//     round, a pair is re-checked only when a pair it depends on was
//     newly identified).
//
// One deliberate deviation from the paper's §4.2 "entity dependency"
// description: seeding the first round with only the value-based pairs
// L0 would miss pairs whose recursive keys fire through reflexive or
// wildcard bindings (for example Q4 on the company graph of Fig. 2).
// Our Opt variant therefore checks all of L in round one and applies
// dependency gating from round two on, which preserves the fixpoint.
package emmr

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/mapreduce"
	"graphkeys/internal/match"
)

// Variant selects the algorithm flavor.
type Variant int

const (
	// Base is EMMR as in Fig. 4.
	Base Variant = iota
	// VF2 is EM^VF2_MR: no guided pruning, no early termination.
	VF2
	// Opt is EM^Opt_MR with the §4.2 optimization strategies.
	Opt
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case Base:
		return "EMMR"
	case VF2:
		return "EMVF2MR"
	case Opt:
		return "EMOptMR"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config configures a run.
type Config struct {
	// P is the number of parallel workers (processors), >= 1.
	P int
	// Variant selects Base, VF2 or Opt.
	Variant Variant
	// Match passes through matching options (e.g. a similarity ValueEq).
	Match match.Options
	// TaskDelay is forwarded to the MapReduce runtime for straggler
	// injection in tests.
	TaskDelay func(worker int)
	// Cost forwards a simulated cluster cost model to the MapReduce
	// runtime (zero = disabled); see mapreduce.CostModel.
	Cost mapreduce.CostModel
}

// Stats reports the work a run performed.
type Stats struct {
	// Rounds is the number of MapReduce rounds until the fixpoint.
	Rounds int
	// Candidates is |L| after any filtering; CandidatesUnfiltered is
	// |L| before the pairing filter (identical for Base/VF2).
	Candidates, CandidatesUnfiltered int
	// Checks counts pair checks performed; SkippedByDependency counts
	// pair checks avoided by the Opt incremental gating.
	Checks, SkippedByDependency int
	// IsoSteps accumulates search-tree steps across all checks.
	IsoSteps int64
	// IdentifiedDirect counts pairs identified by a key application
	// (the chase steps); the final Pairs set also includes transitive
	// consequences.
	IdentifiedDirect int
	// NeighborhoodNodes and ReducedNeighborhoodNodes report the summed
	// d-neighbor sizes before and after the pairing reduction (Opt).
	NeighborhoodNodes, ReducedNeighborhoodNodes int
	// MR holds the per-round runtime statistics.
	MR []mapreduce.RoundStats
	// Wall is the total wall-clock duration.
	Wall time.Duration
}

// Result is the outcome of a run.
type Result struct {
	// Pairs is chase(G, Σ): every identified entity pair, sorted.
	Pairs []eqrel.Pair
	// Eq is the underlying equivalence relation.
	Eq    *eqrel.Eq
	Stats Stats
}

// verdict is the map-phase output for one candidate pair.
type verdict struct {
	idx   int
	ok    bool
	steps int
}

// Run computes chase(G, Σ) with the configured variant.
func Run(g *graph.Graph, set *keys.Set, cfg Config) (*Result, error) {
	start := time.Now()
	m, err := match.New(g, set, cfg.Match)
	if err != nil {
		return nil, err
	}
	rt := mapreduce.New(cfg.P)
	rt.TaskDelay = cfg.TaskDelay
	rt.Cost = cfg.Cost

	// The driver merges identifications through the shared tracker (the
	// lock-protected Eq plus class members); its relation becomes the
	// result once the rounds quiesce.
	tr := engine.NewTracker(g.NumNodes())
	res := &Result{}
	st := &res.Stats

	// DriverMR line 1: candidate set and d-neighbors (built by the
	// matcher when a pair first asks for them). Opt additionally
	// filters L by pairing and reduces the neighborhoods; like the
	// paper's driver, the per-pair work runs as a parallel job. L is
	// collected rather than consumed lazily: the MapReduce driver
	// partitions it across its simulated cluster up front, so the
	// stream's value here is sharing the greedy-planned joins.
	unfiltered := slices.Collect(m.CandidateStream())
	st.CandidatesUnfiltered = len(unfiltered)
	cands := unfiltered
	type nbhd struct{ g1, g2 *graph.NodeSet }
	var reduced []nbhd
	if cfg.Variant == Opt {
		type pairingOut struct {
			paired bool
			nb     nbhd
		}
		outs := make([]pairingOut, len(unfiltered))
		engine.Parallel(m.Opts.Eng, cfg.P, len(unfiltered), func(i int) {
			e1, e2 := graph.NodeID(unfiltered[i].A), graph.NodeID(unfiltered[i].B)
			r1, r2, paired := m.ReducedNeighborhoods(e1, e2)
			outs[i] = pairingOut{paired: paired, nb: nbhd{r1, r2}}
		})
		cands = nil
		for i, pr := range unfiltered {
			if !outs[i].paired {
				continue
			}
			e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
			cands = append(cands, pr)
			reduced = append(reduced, outs[i].nb)
			st.NeighborhoodNodes += m.Neighborhood(e1).Len() + m.Neighborhood(e2).Len()
			st.ReducedNeighborhoodNodes += outs[i].nb.g1.Len() + outs[i].nb.g2.Len()
		}
	}
	st.Candidates = len(cands)

	depIdx := m.BuildDependencyIndexParallel(cands, cfg.P)

	active := make([]int, len(cands))
	for i := range active {
		active[i] = i
	}

	check := func(idx int, eqView match.EqView) verdict {
		pr := cands[idx]
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		switch cfg.Variant {
		case VF2:
			ok, _, steps := m.IdentifiedVF2(e1, e2, eqView)
			return verdict{idx, ok, steps}
		case Opt:
			nb := reduced[idx]
			steps := 0
			for _, ck := range m.KeysFor(g.TypeOf(e1)) {
				ok, s := m.IdentifiedByKey(ck, e1, e2, nb.g1, nb.g2, eqView)
				steps += s
				if ok {
					return verdict{idx, true, steps}
				}
			}
			return verdict{idx, false, steps}
		default:
			ok, _, steps := m.Identified(e1, e2, eqView)
			return verdict{idx, ok, steps}
		}
	}

	for len(active) > 0 {
		// BSP semantics: every check in a round sees the Eq of the
		// previous round (the global Eq in HDFS). The read-only view is
		// safe for the concurrent map tasks.
		eqSnap := tr.Snapshot().Reader()

		// MapEM: check pairs in parallel, keyed by entity as in Fig. 4.
		verdicts := mapreduce.Round(rt, active,
			func(idx int, emit func(int32, verdict)) {
				v := check(idx, eqSnap)
				emit(cands[idx].A, v)
				if v.ok {
					emit(cands[idx].B, v)
				}
			},
			// ReduceEM: group per entity, forward one verdict per pair
			// (deduplicating the double emission of identified pairs).
			func(e int32, vs []verdict, emit func(verdict)) {
				for _, v := range vs {
					if cands[v.idx].A == e { // emit once, at the A-side reducer
						emit(v)
					}
				}
			})

		newlyIdentified := make([]int, 0, 8)
		changedEntities := make(map[int32]bool)
		for _, v := range verdicts {
			st.Checks++
			st.IsoSteps += int64(v.steps)
			if !v.ok {
				continue
			}
			pr := cands[v.idx]
			// Union and record the merged class members: every cross
			// pair of the two classes is newly in Eq, so dependents of
			// any member may now fire.
			affected, changed := tr.Union(pr.A, pr.B)
			if !changed {
				continue
			}
			for _, x := range affected {
				changedEntities[x] = true
			}
			st.IdentifiedDirect++
			newlyIdentified = append(newlyIdentified, v.idx)
		}

		if len(newlyIdentified) == 0 {
			break
		}

		// Select the next round's active pairs.
		var next []int
		if cfg.Variant == Opt {
			next = slices.DeleteFunc(depIdx.Active(maps.Keys(changedEntities)), func(i int) bool {
				return tr.Same(cands[i].A, cands[i].B)
			})
			// Count the re-checks the gating avoided.
			pending := 0
			for i := range cands {
				if !tr.Same(cands[i].A, cands[i].B) {
					pending++
				}
			}
			st.SkippedByDependency += pending - len(next)
		} else {
			for i := range cands {
				if !tr.Same(cands[i].A, cands[i].B) {
					next = append(next, i)
				}
			}
		}
		active = next
	}

	st.Rounds = rt.Rounds()
	st.MR = rt.Stats()
	res.Eq = tr.Relation()
	res.Pairs = res.Eq.Pairs(m.KeyedEntities())
	st.Wall = time.Since(start)
	return res, nil
}
