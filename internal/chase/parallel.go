package chase

import (
	"slices"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// This file is the parallel chase (EngineParallelChase at the public
// API): the revised chase of §3.1 executed on the shared concurrent
// substrate of internal/engine. The candidate set L is generated and
// checked in ranges across engine.Parallel workers; guided witness
// checks run concurrently against the Eq of the previous round;
// identifications merge into one eqrel.Eq between rounds; and a
// dependency worklist (the entity-pair dependency relation of §4.2)
// selects the pairs whose checks can newly succeed after a round's
// class merges, driving the recursive re-checks until the fixpoint.
//
// Correctness rests on two properties:
//
//   - Church–Rosser (Proposition 1): every terminal chasing sequence
//     reaches the same chase(G, Σ), so the nondeterministic
//     interleaving of concurrent checks cannot change the result —
//     only the order of the recorded steps.
//
//   - Dependency completeness: a check of (e1, e2) depends on Eq only
//     through the entity-variable bindings (u', v') its witness needs
//     in Eq. If the check failed against a round's Eq, it can
//     newly succeed only after classes containing such a u' and v'
//     merge. The witness maps the key's x→y path onto G edge by edge,
//     so u' is reached by walking that path from e1 and v' from e2,
//     and the dependency index registers the pair as a dependent of
//     both. Round one checks all of L, so the gated rounds preserve
//     the fixpoint (the same argument EMOptMR's incremental checking
//     relies on, §4.2). The walks build no d-neighbor.
//
// The recorded Steps form a valid chasing sequence: a step's Requires
// held in the Eq its check ran against, which contains only unions
// merged in earlier rounds, and merges within a round append in merge
// order.
//
// Round one runs on the candidate generator's ranges
// (match.CandidateRanges): each worker generates a range of L and
// checks its pairs against the identity relation (match.Identity) as
// they come, so the generation of L is spread over the workers with
// the checks. Every round-one verdict is independent of every other
// pair, so committing the ranges in range order — L's order — produces
// the unions and steps one sequential pass over L would. A range keeps
// only its identified pairs with their witnesses and, when some key is
// recursive, its failed pairs, so memory stays O(failed + steps)
// instead of O(L): the dependency index is built over the failed pairs
// alone, since a pair that succeeded in round one is already in Eq and
// would be filtered from every later worklist.
func runParallel(m *match.Matcher, opts Options) *Result {
	c := &parallelChase{
		m:   m,
		p:   opts.Parallelism,
		eq:  eqrel.New(m.G.NumNodes()),
		res: &Result{},
	}
	// The dependency machinery only matters when some key is
	// recursive: without entity variables no check consults Eq, so no
	// failed check can newly succeed after a merge and one round
	// reaches the fixpoint.
	recursive := slices.ContainsFunc(m.Set.Keys(), func(k *keys.Key) bool { return k.Recursive })

	parts := m.CandidateRanges(c.p)
	outs := make([]rangeOut, len(parts))
	engine.Parallel(m.Opts.Eng, c.p, len(parts), func(r int) {
		out := &outs[r]
		for pr := range parts[r] {
			out.candidates++
			ok, key, reqs, uses, steps := identify(m, graph.NodeID(pr.A), graph.NodeID(pr.B), match.Identity())
			out.isoSteps += steps
			switch {
			case ok:
				out.steps = append(out.steps, Step{Pair: pr, Key: key, Requires: reqs, Uses: uses})
			case recursive:
				out.failed = append(out.failed, pr)
			}
		}
	})
	var failed []eqrel.Pair
	identified := 0
	for _, out := range outs {
		c.res.Candidates += out.candidates
		c.res.IsoSteps += out.isoSteps
		identified += len(out.steps)
		failed = append(failed, out.failed...)
	}
	// Every later step identifies a failed pair, so this holds every
	// step of the run.
	c.res.Steps = make([]Step, 0, identified+len(failed))
	var changed []int32
	for _, out := range outs {
		for _, st := range out.steps {
			changed = c.commit(st, changed)
		}
	}

	// Recursive rounds: the only pairs whose checks can newly succeed
	// are dependents of the merged classes' members.
	if len(changed) > 0 && len(failed) > 0 {
		depIdx := m.BuildDependencyIndexParallel(failed, c.p)
		var batch []eqrel.Pair
		var active []int
		for len(changed) > 0 {
			batch = batch[:0]
			active = nextActive(c.eq, depIdx, failed, changed, active[:0])
			for _, i := range active {
				batch = append(batch, failed[i])
			}
			changed = changed[:0]
			// Every check of a round sees the Eq of the previous
			// round: the relation unions only after the round's
			// checks return, and its reads write nothing, so any
			// number of workers may read it.
			changed = c.round(batch, changed)
		}
	}

	c.res.Eq = c.eq
	c.res.Pairs = c.res.Eq.Pairs()
	return c.res
}

// rangeOut is what round one keeps of one range of L: its identified
// pairs as steps, in stream order, its failed pairs (only when some key
// is recursive) and its counts.
type rangeOut struct {
	steps                []Step
	failed               []eqrel.Pair
	candidates, isoSteps int
}

type verdict struct {
	ok    bool
	key   string
	reqs  []eqrel.Pair
	uses  []graph.Triple
	steps int
}

// parallelChase is the state the rounds of one parallel run share.
type parallelChase struct {
	m        *match.Matcher
	p        int
	eq       *eqrel.Eq
	res      *Result
	verdicts []verdict // reused round to round
}

// round is one check/commit step of the recursive rounds: it checks
// the batch concurrently against the relation, then commits the
// identifications into the relation in batch order, appending their
// steps, and returns changed with every member of each merged class
// appended (a member of classes merged twice, twice). c.verdicts
// aligns with batch until the next round.
func (c *parallelChase) round(batch []eqrel.Pair, changed []int32) []int32 {
	c.verdicts = slices.Grow(c.verdicts[:0], len(batch))[:len(batch)]
	verdicts := c.verdicts
	engine.Parallel(c.m.Opts.Eng, c.p, len(batch), func(i int) {
		pr := batch[i]
		if c.eq.Same(pr.A, pr.B) {
			verdicts[i] = verdict{}
			return
		}
		ok, key, reqs, uses, steps := identify(c.m, graph.NodeID(pr.A), graph.NodeID(pr.B), c.eq)
		verdicts[i] = verdict{ok: ok, key: key, reqs: reqs, uses: uses, steps: steps}
	})
	for i, v := range verdicts {
		c.res.IsoSteps += v.steps
		if v.ok {
			changed = c.commit(Step{Pair: batch[i], Key: v.key, Requires: v.reqs, Uses: v.uses}, changed)
		}
	}
	return changed
}

// commit unions an identified pair into the relation and appends its
// step, returning changed with every member of the merged class
// appended. A pair already merged transitively in this round adds no
// step: its class members are in changed via those unions.
func (c *parallelChase) commit(st Step, changed []int32) []int32 {
	if !c.eq.Union(st.Pair.A, st.Pair.B) {
		return changed
	}
	c.res.Steps = append(c.res.Steps, st)
	for x := range c.eq.Members(st.Pair.A) {
		changed = append(changed, x)
	}
	return changed
}

// nextActive appends to dst the ascending indices of not-yet-identified
// pairs depending on an entity whose class just merged; the order keeps
// the check order deterministic round to round.
func nextActive(eq *eqrel.Eq, depIdx *match.DependencyIndex, pairs []eqrel.Pair, changed []int32, dst []int) []int {
	return slices.DeleteFunc(depIdx.Active(changed, dst), func(i int) bool {
		return eq.Same(pairs[i].A, pairs[i].B)
	})
}
