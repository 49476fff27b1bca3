// Package emmr implements algorithm EMMR of "Keys for Graphs" (§4) and
// its variants: entity matching in rounds, as the paper's MapReduce job
// runs them. Each round checks every active candidate pair against the
// previous round's Eq — (G1^d ∪ G2^d, Eq, Σ) ⊨ (e1, e2), with the
// EvalMR guided search or the VF2 enumerate-all baseline — on
// engine.Parallel (MapEM), then the driver merges the identified pairs
// into Eq in candidate order, maintaining its transitive closure
// (ReduceEM), until a round identifies nothing new (Eq no longer
// changes). The MapReduce costs of the paper's §6 study are counted,
// not simulated: rounds, and the key/value pairs MapEM would ship.
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
	"slices"
	"time"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
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

// CostModel prices the per-round constants of a real MapReduce
// deployment that an in-process run does not pay: job scheduling and
// startup (RoundLatency) and the materialization of intermediate
// key/value pairs to distributed storage (PerKV). The paper's
// EMVC-vs-EMMR gap is dominated by exactly these costs ("the I/O bound
// property and the synchronization policy of MapReduce", §5); the
// cluster-comparison experiment charges them, and the zero value
// charges nothing.
type CostModel struct {
	RoundLatency time.Duration
	PerKV        time.Duration
}

// Config configures a run.
type Config struct {
	// P is the number of parallel workers (processors), >= 1.
	P int
	// Variant selects Base, VF2 or Opt.
	Variant Variant
	// Match passes through matching options (e.g. a similarity ValueEq).
	Match match.Options
	// Cost prices the run's rounds and key/value pairs into
	// Stats.Charged (zero = nothing charged).
	Cost CostModel
}

// Stats reports the work a run performed.
type Stats struct {
	// Rounds is the number of MapReduce rounds until the fixpoint,
	// counting a final round that identifies nothing.
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
	// KVs counts the intermediate key/value pairs MapEM ships, as in
	// Fig. 4: one verdict per check, keyed by the pair's first entity,
	// and a second keyed by its other entity when the pair is
	// identified.
	KVs int
	// Charged is Config.Cost applied to the run:
	// Rounds·RoundLatency + KVs·PerKV.
	Charged time.Duration
}

// Result is the outcome of a run.
type Result struct {
	// Pairs is chase(G, Σ): every identified entity pair, sorted.
	Pairs []eqrel.Pair
	// Eq is the underlying equivalence relation.
	Eq    *eqrel.Eq
	Stats Stats
}

// verdict is MapEM's output for one candidate pair.
type verdict struct {
	ok    bool
	steps int
}

// Run computes chase(G, Σ) with the configured variant.
func Run(g *graph.Graph, set *keys.Set, cfg Config) (*Result, error) {
	m, err := match.New(g, set, cfg.Match)
	if err != nil {
		return nil, err
	}

	// Identifications merge into eq between rounds; it becomes the
	// result once the rounds quiesce.
	eq := eqrel.New(g.NumNodes())
	res := &Result{Eq: eq}
	st := &res.Stats

	// DriverMR line 1: the candidate set L and the node sets each pair
	// ships, built once here and kept aligned with L for the run: VF2's
	// two d-neighbors, or Opt's d-neighbors reduced to the pairing
	// relation, whose pairing job also filters L and keeps only the
	// unreduced sizes, for Stats. Base ships none. Like the paper's
	// driver, the per-pair work runs as a parallel job, and so does
	// generating L (match.Candidates), which is collected rather than
	// consumed lazily: every round re-reads it by position.
	unfiltered := m.Candidates(cfg.P)
	st.CandidatesUnfiltered = len(unfiltered)
	cands := unfiltered
	type nbhd struct{ g1, g2 *graph.NodeSet }
	var shipped []nbhd
	var depIdx *match.DependencyIndex
	switch cfg.Variant {
	case VF2:
		shipped = make([]nbhd, len(cands))
		engine.Parallel(m.Opts.Eng, cfg.P, len(cands), func(i int) {
			e1, e2 := graph.NodeID(cands[i].A), graph.NodeID(cands[i].B)
			shipped[i] = nbhd{m.Neighborhood(e1), m.Neighborhood(e2)}
		})
	case Opt:
		type pairingOut struct {
			paired bool
			nb     nbhd
			// full is |G1^d| + |G2^d|, the sizes before the reduction.
			full int
		}
		outs := make([]pairingOut, len(unfiltered))
		engine.Parallel(m.Opts.Eng, cfg.P, len(unfiltered), func(i int) {
			e1, e2 := graph.NodeID(unfiltered[i].A), graph.NodeID(unfiltered[i].B)
			r1, r2, paired := m.ReducedNeighborhoods(e1, e2)
			if paired {
				outs[i] = pairingOut{paired, nbhd{r1, r2}, m.Neighborhood(e1).Len() + m.Neighborhood(e2).Len()}
			}
		})
		cands = nil
		for i, pr := range unfiltered {
			if !outs[i].paired {
				continue
			}
			cands = append(cands, pr)
			shipped = append(shipped, outs[i].nb)
			st.NeighborhoodNodes += outs[i].full
			st.ReducedNeighborhoodNodes += outs[i].nb.g1.Len() + outs[i].nb.g2.Len()
		}
		// Only Opt's gating reads the dependency index; Base and VF2
		// re-check every pending pair.
		depIdx = m.BuildDependencyIndexParallel(cands, cfg.P)
	}
	st.Candidates = len(cands)

	active := make([]int, len(cands))
	for i := range active {
		active[i] = i
	}

	check := func(idx int) verdict {
		pr := cands[idx]
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		switch cfg.Variant {
		case VF2:
			nb := shipped[idx]
			ok, _, steps := m.IdentifiedVF2(e1, e2, nb.g1, nb.g2, eq)
			return verdict{ok, steps}
		case Opt:
			nb := shipped[idx]
			steps := 0
			for _, ck := range m.KeysFor(g.TypeOf(e1)) {
				ok, s := m.IdentifiedByKey(ck, e1, e2, nb.g1, nb.g2, eq)
				steps += s
				if ok {
					return verdict{true, steps}
				}
			}
			return verdict{false, steps}
		default:
			ok, _, steps := m.Identified(e1, e2, eq)
			return verdict{ok, steps}
		}
	}

	var changedEntities []int32
	for len(active) > 0 {
		st.Rounds++
		// MapEM: check the active pairs in parallel. BSP semantics: every
		// check in a round sees the Eq of the previous round (the global
		// Eq in HDFS). The relation unions only after the round's checks
		// return, and its reads write nothing, so the concurrent checks
		// read it directly.
		verdicts := make([]verdict, len(active))
		engine.Parallel(m.Opts.Eng, cfg.P, len(active), func(i int) {
			verdicts[i] = check(active[i])
		})
		st.Checks += len(active)
		st.KVs += len(active)

		// ReduceEM: merge the verdicts into Eq in active order, so the
		// commit order is the same at every p.
		changedEntities = changedEntities[:0]
		for i, v := range verdicts {
			st.IsoSteps += int64(v.steps)
			if !v.ok {
				continue
			}
			st.KVs++
			pr := cands[active[i]]
			// Union and record the merged class members: every cross
			// pair of the two classes is newly in Eq, so dependents of
			// any member may now fire.
			if !eq.Union(pr.A, pr.B) {
				continue
			}
			for x := range eq.Members(pr.A) {
				changedEntities = append(changedEntities, x)
			}
			st.IdentifiedDirect++
		}

		if len(changedEntities) == 0 {
			break
		}

		// Select the next round's active pairs.
		var next []int
		if cfg.Variant == Opt {
			next = slices.DeleteFunc(depIdx.Active(changedEntities, nil), func(i int) bool {
				return eq.Same(cands[i].A, cands[i].B)
			})
			// Count the re-checks the gating avoided.
			pending := 0
			for i := range cands {
				if !eq.Same(cands[i].A, cands[i].B) {
					pending++
				}
			}
			st.SkippedByDependency += pending - len(next)
		} else {
			for i := range cands {
				if !eq.Same(cands[i].A, cands[i].B) {
					next = append(next, i)
				}
			}
		}
		active = next
	}

	st.Charged = time.Duration(st.Rounds)*cfg.Cost.RoundLatency + time.Duration(st.KVs)*cfg.Cost.PerKV
	res.Pairs = res.Eq.Pairs()
	return res, nil
}
