package chase

import (
	"iter"
	"slices"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// This file is the parallel chase (EngineParallelChase at the public
// API): the revised chase of §3.1 executed on the shared concurrent
// substrate of internal/engine. The candidate set L is partitioned
// across engine.Parallel workers; guided witness checks run
// concurrently against the Eq of the previous round; identifications
// merge into one eqrel.Eq between rounds; and a dependency worklist
// (the entity-pair dependency relation of §4.2) selects the pairs whose
// checks can newly succeed after a round's class merges, driving the
// recursive re-checks until the fixpoint.
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
// Round one is fed by the candidate stream in bounded chunks. Every
// one of its checks sees the identity relation (match.Identity), so
// each verdict is independent of every other pair, and committing
// verdicts in stream order produces the same unions and steps whatever
// the chunk boundaries. Only the pairs whose check failed are retained:
// the dependency index is built over them alone, since a pair that
// succeeded in round one is already in Eq and would be filtered from
// every later worklist.
func runParallel(m *match.Matcher, stream iter.Seq[eqrel.Pair], opts Options) *Result {
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

	var changed []int32
	var failed []eqrel.Pair
	chunk := make([]eqrel.Pair, 0, streamChunk)
	flush := func() {
		changed = c.round(match.Identity(), chunk, changed)
		for i, v := range c.verdicts {
			if recursive && !v.ok {
				failed = append(failed, chunk[i])
			}
		}
		chunk = chunk[:0]
	}
	for pr := range stream {
		c.res.Candidates++
		chunk = append(chunk, pr)
		if len(chunk) == streamChunk {
			flush()
		}
	}
	flush()

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
			// checks return, so its reader is safe for any number of
			// workers.
			changed = c.round(c.eq.Reader(), batch, changed)
		}
	}

	c.res.Eq = c.eq
	c.res.Pairs = c.res.Eq.Pairs(m.KeyedEntities())
	return c.res
}

// streamChunk bounds how many streamed candidates are in flight per
// round-one check batch: large enough to amortize the fan-out, small
// enough that memory stays O(chunk + failed) instead of O(L).
const streamChunk = 1024

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

// round is one check/commit step: it checks the batch concurrently
// against snap, then commits the identifications into the relation
// in batch order, appending their steps, and returns changed with every
// member of each merged class appended (a member of classes merged
// twice, twice). c.verdicts aligns with batch until the next round.
func (c *parallelChase) round(snap match.EqView, batch []eqrel.Pair, changed []int32) []int32 {
	c.verdicts = slices.Grow(c.verdicts[:0], len(batch))[:len(batch)]
	verdicts := c.verdicts
	engine.Parallel(c.m.Opts.Eng, c.p, len(batch), func(i int) {
		pr := batch[i]
		if snap.Same(pr.A, pr.B) {
			verdicts[i] = verdict{}
			return
		}
		ok, key, reqs, uses, steps := identify(c.m, graph.NodeID(pr.A), graph.NodeID(pr.B), snap)
		verdicts[i] = verdict{ok: ok, key: key, reqs: reqs, uses: uses, steps: steps}
	})
	for i, v := range verdicts {
		c.res.IsoSteps += v.steps
		if !v.ok {
			continue
		}
		pr := batch[i]
		if !c.eq.Union(pr.A, pr.B) {
			// Already merged transitively during this phase; its
			// class members are in changed via those unions.
			continue
		}
		c.res.Steps = append(c.res.Steps, Step{Pair: pr, Key: v.key, Requires: v.reqs, Uses: v.uses})
		for x := range c.eq.Members(pr.A) {
			changed = append(changed, x)
		}
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
