package chase

import (
	"iter"
	"maps"
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
// across a worker pool; guided witness checks run concurrently against
// a per-round snapshot of Eq; identifications merge through the
// lock-protected tracker; and a dependency worklist (the entity-pair
// dependency relation of §4.2) selects the pairs whose checks can
// newly succeed after a round's class merges, driving the recursive
// re-checks until the fixpoint.
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
//     in Eq. If the check failed against a round's snapshot, it can
//     newly succeed only after classes containing such a u' and v'
//     merge — and every such pair is registered as a dependent of the
//     merged classes' members in the dependency index. Round one
//     checks all of L, so the gated rounds preserve the fixpoint (the
//     same argument EMOptMR's incremental checking relies on, §4.2).
//
// The recorded Steps form a valid chasing sequence: a step's Requires
// held in the snapshot its check ran against, which contains only
// unions merged in earlier rounds, and merges within a round append in
// merge order.
//
// Round one is fed by the candidate stream in bounded chunks. Every
// one of its checks sees the initial (identity) snapshot, so each
// verdict is independent of every other pair, and committing verdicts
// in stream order produces the same unions and steps whatever the
// chunk boundaries. Only the pairs whose check failed are retained:
// the dependency index is built over them alone, since a pair that
// succeeded in round one is already in Eq and would be filtered from
// every later worklist.
func runParallel(m *match.Matcher, stream iter.Seq[eqrel.Pair], opts Options) *Result {
	c := &parallelChase{
		m:   m,
		p:   opts.Parallelism,
		tr:  engine.NewTracker(m.G.NumNodes()),
		res: &Result{},
	}
	// The dependency machinery only matters when some key is
	// recursive: without entity variables no check consults Eq, so no
	// failed check can newly succeed after a merge and one round
	// reaches the fixpoint.
	recursive := slices.ContainsFunc(m.Set.Keys(), func(k *keys.Key) bool { return k.Recursive })

	snap := c.tr.Snapshot().Reader()
	changed := make(map[int32]bool)
	var failed []eqrel.Pair
	chunk := make([]eqrel.Pair, 0, streamChunk)
	flush := func() {
		for i, v := range c.round(snap, chunk, changed) {
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
		for len(changed) > 0 {
			batch = batch[:0]
			for _, i := range nextActive(c.tr, depIdx, failed, changed) {
				batch = append(batch, failed[i])
			}
			clear(changed)
			// Every check of a round sees the Eq of the previous
			// round; the snapshot reader is safe for any number of
			// workers and free of lock contention on the hot search
			// path.
			c.round(c.tr.Snapshot().Reader(), batch, changed)
		}
	}

	c.res.Eq = c.tr.Relation()
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
	tr       *engine.Tracker
	res      *Result
	verdicts []verdict // reused round to round
}

// round is one check/commit step: it checks the batch concurrently
// against snap, then commits the identifications through the tracker
// in batch order, appending their steps and marking every member of a
// merged class in changed. The returned verdicts align with batch and
// are valid until the next round.
func (c *parallelChase) round(snap match.EqView, batch []eqrel.Pair, changed map[int32]bool) []verdict {
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
		affected, grew := c.tr.Union(pr.A, pr.B)
		if !grew {
			// Already merged transitively during this phase; its
			// class members are in changed via those unions.
			continue
		}
		c.res.Steps = append(c.res.Steps, Step{Pair: pr, Key: v.key, Requires: v.reqs, Uses: v.uses})
		for _, x := range affected {
			changed[x] = true
		}
	}
	return verdicts
}

// nextActive returns the ascending indices of not-yet-identified pairs
// depending on an entity whose class just merged; the order keeps the
// check order deterministic round to round.
func nextActive(tr *engine.Tracker, depIdx *match.DependencyIndex, pairs []eqrel.Pair, changed map[int32]bool) []int {
	return slices.DeleteFunc(depIdx.Active(maps.Keys(changed)), func(i int) bool {
		return tr.Same(pairs[i].A, pairs[i].B)
	})
}
