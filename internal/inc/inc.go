// Package inc maintains chase(G, Σ) incrementally under graph
// mutations: instead of re-running the chase fixpoint of §3.1 from
// scratch after every change, an Engine keeps the equivalence relation
// Eq, the chasing sequence that produced it, and the triple-level
// provenance of every chase step, and repairs the fixpoint from a
// Delta of added/removed triples and added entities.
//
// The two directions exploit two structural properties of keys:
//
//   - Monotonicity: key satisfaction has no negation, so adding
//     triples can only create identifications and removing triples can
//     only destroy them. Additions therefore only require re-chasing
//     candidate pairs whose d-neighborhood gained a triple; removals
//     only require re-certifying identifications whose proofs touch a
//     removed triple.
//
//   - Locality (§4.1): a witness for (e1, e2) lies within the
//     d-neighborhoods of e1 and e2, so the candidate pairs affected by
//     a change are found by a d-hop scan around the changed triples —
//     the same neighborhood machinery the engines use, reused here
//     with d the key set's maximum radius.
//
// Removal repair is provenance-driven in the sense of the proof graphs
// behind Theorem 2: every chase step records the graph triples its
// witness consumed (chase.Step.Uses); removing a triple directly
// invalidates exactly the steps using it, invalidation cascades along
// the Requires edges of the proof DAG by replaying the steps of the
// classes it can reach, and the affected pairs are then re-certified
// against the mutated graph, where they may be re-derived through
// other witnesses.
// Recursive keys propagate repair beyond the changed region: whenever
// re-certification merges two Eq classes, the pairs that may newly
// fire are the same-type pairs within d hops of the merged classes
// (the dependency relation of §4.2), which the worklist expands to.
//
// The engine's own bookkeeping is local too. The step log is indexed
// by the triples and nodes its steps mention, the classes of Eq are
// kept as member lists, and the materialized pairs are maintained by
// splicing — so one maintenance pass costs what its delta touches, not
// what the graph or the log holds (see indexes).
package inc

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"graphkeys/internal/chase"
	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

// Options configures an Engine.
type Options struct {
	// Match is passed through to the matching machinery (ValueEq,
	// instruments).
	Match match.Options
	// Obs, when non-nil, receives the repair pass's live counters and
	// worklist-depth histogram (see RegisterObs). Trace, when non-nil,
	// receives phase spans (invalidate, region, chase, rebuild). Both
	// are pure observers: enabling them cannot change what the engine
	// computes — the differential tests pin output byte-identical with
	// them on and off.
	Obs   *Obs
	Trace *obs.Tracer
}

// Stats reports the work done by the most recent maintenance pass,
// for experiments and tests asserting that repair stays local. One
// pass covers everything an Apply or ApplyAll call merged: ApplyAll
// (and the Writer built on it) folds its whole batch of deltas into a
// single pass, so after a batched call the Stats describe the batch
// as a whole, not any single delta — Merged says how many deltas they
// cover. The struct resets at the start of every Apply/ApplyAll call
// (even one whose merged delta turns out empty and repairs nothing).
//
// A pass whose additions are at least half of what the graph then
// holds does not repair: it is one from-scratch chase (see repair). Its
// Stats are the chase's — Checked is the size of the candidate set,
// Identified the length of the new chasing sequence, Suspects and
// Region stay 0 — and every step carries the pass's generation.
type Stats struct {
	// Merged is the number of deltas whose results merged into the
	// pass (1 for Apply; the batch size for ApplyAll, not counting nil
	// or failed deltas).
	Merged int
	// Suspects is the number of chase steps invalidated by removals
	// (directly or by cascade along Requires).
	Suspects int
	// Region is the number of entities in the affected region of the
	// delta's additions.
	Region int
	// Checked is the number of candidate-pair checks run.
	Checked int
	// Identified is the number of chase steps (re-)derived.
	Identified int
}

// Engine maintains chase(G, Σ) under mutations of G. It owns the
// graph's mutation lifecycle: after New, mutate the graph only through
// Apply/ApplyAll. An Engine is not safe for concurrent use. The one
// fan-out inside it is ApplyAll's, over the graph mutations of a batch;
// Apply, and every repair pass, runs on the caller's goroutine.
type Engine struct {
	g    *graph.Graph
	set  *keys.Set
	opts Options
	log  graph.DeltaLog

	m     *match.Matcher // matcher over the current graph, refreshed once per pass
	eq    *eqrel.Eq
	steps []chase.Step
	pairs []eqrel.Pair

	maxRadius int
	recTypes  map[graph.TypeID]bool // types with at least one recursive key

	stats Stats

	// seq is the repair generation: 0 after New, incremented once per
	// maintenance pass. stepSeqs records, parallel to steps, the
	// generation each step was derived at (0 = the initial full
	// chase; after a pass that rebuilt, every step carries that pass's
	// generation); it lives beside the step log rather than inside
	// chase.Step so the steps themselves stay comparable against a
	// from-scratch chase. Explain reports it as the provenance "when".
	seq      uint64
	stepSeqs []uint64

	// stepIDs names the steps, parallel to steps; idx is the persistent
	// bookkeeping keyed by those names (see indexes), pass the
	// bookkeeping of the maintenance pass in progress.
	stepIDs []stepID
	nextID  stepID
	idx     indexes
	pass    pass
}

// New returns an engine maintaining chase(G, Σ): an empty engine plus
// one rebuild, the same from-scratch chase a maintenance pass falls back
// to when its delta at least doubled the graph (see repair). Every step
// of the initial sequence carries generation 0, and LastStats stays zero
// until the first pass.
func New(g *graph.Graph, set *keys.Set, opts Options) (*Engine, error) {
	e := &Engine{g: g, set: set, opts: opts, maxRadius: set.MaxRadius()}
	if _, err := e.rebuild(); err != nil {
		return nil, err
	}
	m, err := match.New(g, set, opts.Match)
	if err != nil {
		return nil, err
	}
	e.m = m
	e.resolveRecTypes()
	return e, nil
}

// rebuild is the one place a from-scratch chase is installed: the
// sequential chase of the current graph becomes the relation, the step
// log (every step stamped with the current generation) and the pairs,
// and the indices are rebuilt over them. It returns the size of the
// candidate set the chase checked. On error the engine keeps what it
// had.
func (e *Engine) rebuild() (candidates int, err error) {
	res, err := chase.Run(e.g, e.set, chase.Options{Match: e.opts.Match})
	if err != nil {
		return 0, err
	}
	e.eq, e.steps, e.pairs = res.Eq, res.Steps, res.Pairs
	e.buildIndexes()
	return res.Candidates, nil
}

// Graph returns the maintained graph. Mutate it only through Apply.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Eq returns the current fixpoint relation. It is owned by the engine.
func (e *Engine) Eq() *eqrel.Eq { return e.eq }

// Pairs returns the current chase(G, Σ), sorted. The slice is owned by
// the engine: the next Apply rewrites it in place.
func (e *Engine) Pairs() []eqrel.Pair { return e.pairs }

// Steps returns the current valid chasing sequence, in dependency
// order. The slice is owned by the engine: the next Apply rewrites it
// in place.
func (e *Engine) Steps() []chase.Step { return e.steps }

// LastStats reports the work done by the most recent maintenance pass
// (see Stats for the batch semantics and the reset point).
func (e *Engine) LastStats() Stats { return e.stats }

// Seq reports the current repair generation: 0 after New, incremented
// once per maintenance pass.
func (e *Engine) Seq() uint64 { return e.seq }

// StepSeqs returns, parallel to Steps, the repair generation each
// step was derived at (0 = the initial full chase; a pass that rebuilt
// stamps every step with its own generation). The slice is owned by
// the engine.
func (e *Engine) StepSeqs() []uint64 { return e.stepSeqs }

// Explain returns the indices (into Steps) of the chase steps forming
// a witness chain for a ~ b: a topologically ordered subset whose
// Requires pairs are connected by earlier listed steps, ending in a
// step path connecting a and b. It errors when the current fixpoint
// does not identify the pair. An identical pair explains as an empty
// chain.
func (e *Engine) Explain(a, b graph.NodeID) ([]int, error) {
	target := eqrel.MakePair(int32(a), int32(b))
	if target.A != target.B && !e.eq.Same(target.A, target.B) {
		return nil, fmt.Errorf("inc: (%d, %d) is not identified; no witness chain exists", a, b)
	}
	return chase.ProveIndices(e.steps, target)
}

// SetLog installs the write-ahead hook handed to the graph on every
// subsequent Apply: it receives each delta's normalized ops before any
// mutation (see graph.ApplyDeltaLogged). Pass nil to disable.
func (e *Engine) SetLog(fn graph.DeltaLog) { e.log = fn }

// refreshMatcher readies the matcher for the mutated graph. It
// runs once per pass so that no cached neighborhood survives a
// mutation; the compiled keys carry over unless new predicates, types
// or constants may resolve (match.Matcher.Refresh).
func (e *Engine) refreshMatcher() error {
	recompiled, err := e.m.Refresh()
	if recompiled && err == nil {
		e.resolveRecTypes()
	}
	return err
}

// resolveRecTypes finds the types with a recursive key among the types
// the graph has.
func (e *Engine) resolveRecTypes() {
	e.recTypes = make(map[graph.TypeID]bool)
	for _, typeName := range e.set.Types() {
		for _, k := range e.set.ForType(typeName) {
			if k.Recursive {
				if tid, ok := e.g.TypeByName(typeName); ok {
					e.recTypes[tid] = true
				}
				break
			}
		}
	}
}

// Apply mutates the graph by the delta and repairs the fixpoint. It
// returns the identified pairs that appeared and disappeared,
// materialized over keyed entities and sorted. The delta is applied
// atomically: on error neither the graph nor the fixpoint changes.
func (e *Engine) Apply(d *graph.Delta) (added, removed []eqrel.Pair, err error) {
	return e.ApplyAll([]*graph.Delta{d}, 1)
}

// ApplyAll mutates the graph by every delta and repairs the fixpoint
// with ONE maintenance pass over the merged changes — the batched
// write path. The graph mutations of a batch of two or more fan out
// over the given number of workers (engine.Workers semantics), so
// deltas with disjoint shard footprints apply concurrently and their
// WAL records can share a group commit; overlapping deltas serialize
// inside the store in plan order, which is also WAL order. A batch of
// one is planned and applied on the caller's goroutine, as the repair
// pass always is.
//
// Each delta is individually atomic, but the batch is not: a delta
// that fails validation is skipped while the others apply, and the
// joined errors are returned alongside the repair result. Batches
// whose deltas must all apply or none should therefore be
// pre-validated or submitted one delta at a time. Deltas in one batch
// should be independent — when they conflict, their serialization
// order (and with it, which of two conflicting ops wins) is
// unspecified.
func (e *Engine) ApplyAll(ds []*graph.Delta, workers int) (added, removed []eqrel.Pair, err error) {
	results := make([]*graph.DeltaResult, len(ds))
	errs := make([]error, len(ds))
	apply := func(i int) {
		if ds[i] == nil {
			return
		}
		results[i], errs[i] = e.g.ApplyDeltaLogged(ds[i], e.log)
	}
	if len(ds) == 1 {
		apply(0)
	} else {
		engine.Parallel(e.opts.Match.Eng, engine.Workers(workers), len(ds), apply)
	}
	res := &graph.DeltaResult{}
	merged := 0
	for i, r := range results {
		if errs[i] != nil || r == nil {
			continue
		}
		merged++
		res.AddedEntities = append(res.AddedEntities, r.AddedEntities...)
		res.AddedTriples = append(res.AddedTriples, r.AddedTriples...)
		res.RemovedTriples = append(res.RemovedTriples, r.RemovedTriples...)
		res.RemovedEntities = append(res.RemovedEntities, r.RemovedEntities...)
	}
	err = errors.Join(errs...)
	e.stats = Stats{Merged: merged}
	e.opts.Obs.merged().Add(int64(merged))
	if res.Empty() {
		return nil, nil, err
	}
	added, removed, rerr := e.repair(res)
	if rerr != nil {
		return nil, nil, errors.Join(err, rerr)
	}
	return added, removed, err
}

// repair re-establishes chase(G, Σ) after the graph absorbed the
// merged delta result: provenance-driven invalidation for the
// removals, d-hop affected-region re-chase for the additions, and the
// dependency worklist for recursive cascades. The seeds — suspects,
// then each affected-region entity's partners in region order — are
// re-chased in that order by one drain (chaseSeeds), so the repaired
// pairs, step log and stats are a function of the delta and the graph.
//
// Repair earns its keep only while the delta is small against G (§4.1
// locality); seeding every pair of a region that is the whole graph, and
// re-expanding dependents per merge, multiplies out what one candidate
// stream enumerates once. The chase is Church–Rosser, so a from-scratch
// chase of the mutated graph is always a correct repair, and the pass
// takes it (repairByRebuild) when its additions are at least half of
// what the graph now holds:
//
//	2·(|AddedTriples| + |AddedEntities|) ≥ NumTriples + NumEntities
//
// The rule reads the delta and the graph, before any region or partner
// work, and needs no tuning: a rebuild is paid for by its own pass, which
// carried additions for at least half of G, so it costs each of them at
// most twice a chase's per-element share; over a growing graph the
// rebuilds together cost a constant times one chase of the final graph
// (the dynamic-array argument). Additions count as the pass reports
// them: a batch that adds, removes and re-adds a triple counts both adds,
// which is also what repairing it would have had to process.
func (e *Engine) repair(res *graph.DeltaResult) (added, removed []eqrel.Pair, err error) {
	if err := e.refreshMatcher(); err != nil {
		return nil, nil, err
	}
	e.seq++
	e.opts.Obs.repairs().Inc()
	spRepair := e.opts.Trace.Begin("inc.repair")
	defer spRepair.End()
	// The first comparison alone settles nearly every pass: NumEntities
	// walks the type directory, NumTriples is a counter.
	if n := 2 * (len(res.AddedTriples) + len(res.AddedEntities)); n >= e.g.NumTriples() && n >= e.g.NumTriples()+e.g.NumEntities() {
		return e.repairByRebuild()
	}
	e.eq.Grow(e.g.NumNodes())

	var suspects []eqrel.Pair
	if len(res.RemovedTriples) > 0 {
		suspects = e.invalidate(res.RemovedTriples)
	}

	// Additions: the affected region is every keyed entity within
	// maxRadius hops of a changed triple endpoint or new entity; any
	// newly identifiable pair has such an entity on at least one side,
	// so seeding (p, q) for affected p and every candidate partner q
	// (match.PartnerStream: inverted-value-index lookups on indexable
	// types, all same-type entities otherwise) is complete (up to the
	// worklist expansion in the chase phase).
	seeds := suspects
	if len(res.AddedTriples) > 0 || len(res.AddedEntities) > 0 {
		spRegion := e.opts.Trace.Begin("inc.repair.region")
		region := e.affectedEntities(res)
		e.stats.Region = len(region)
		e.opts.Obs.region().Add(int64(len(region)))
		for _, p := range region {
			for q := range e.m.PartnerStream(p) {
				seeds = append(seeds, eqrel.MakePair(int32(p), int32(q)))
			}
		}
		spRegion.EndLabel(strconv.Itoa(len(region)) + " entities")
	}

	spChase := e.opts.Trace.Begin("inc.repair.chase")
	e.chaseSeeds(seeds)
	spChase.EndLabel(strconv.Itoa(len(seeds)) + " seeds")

	added, removed = e.finishPass()
	return added, removed, nil
}

// repairByRebuild is the pass of a delta that at least doubled the
// graph: one from-scratch chase (rebuild) instead of a repair, the pair
// diff taken against the pairs the engine held, Stats and Obs filled
// from the (sequential) chase.
func (e *Engine) repairByRebuild() (added, removed []eqrel.Pair, err error) {
	sp := e.opts.Trace.Begin("inc.repair.rebuild")
	old := e.pairs
	candidates, err := e.rebuild()
	if err != nil {
		return nil, nil, err
	}
	e.stats.Checked, e.stats.Identified = candidates, len(e.steps)
	e.opts.Obs.checked().Add(int64(candidates))
	e.opts.Obs.identified().Add(int64(len(e.steps)))
	sp.EndLabel(strconv.Itoa(candidates) + " candidates")
	added, removed = diffPairs(old, e.pairs)
	return added, removed, nil
}

// invalidate withdraws the steps whose witness used a removed triple,
// cascades along Requires, and returns the suspect pairs to re-certify.
//
// Only the replay scope is touched: the classes of the directly hit
// steps, closed under "some step Requires a pair inside a scoped
// class" — the only steps a cascade can reach. Those classes are reset
// in the live relation and exactly their steps replayed in log order,
// each kept iff its witness survived and its Requires hold in the
// relation rebuilt so far. Steps outside the scope have every Requires
// in a class no drop can split, so a replay of the whole log over a
// fresh relation would keep them all and decide the scoped steps the
// same way; representatives come out the same too, because the
// representative of a class depends only on the order of its own
// unions.
//
// A dropped step taints its whole OLD equivalence class, not just its
// own pair: a pair inside a splitting class may have been skipped as
// already-Same by the original chase (so no step records its
// independent witness), and only re-checking every pair of the
// affected class can recover it.
func (e *Engine) invalidate(removedTriples []graph.Triple) (suspects []eqrel.Pair) {
	sp := e.opts.Trace.Begin("inc.repair.invalidate")
	var scope []int32 // pre-pass representatives, in discovery order
	var replay []scopedStep
	defer func() {
		e.opts.Obs.suspects().Add(int64(e.stats.Suspects))
		e.opts.Obs.replaySteps().Add(int64(len(replay)))
		sp.EndLabel(strconv.Itoa(e.stats.Suspects) + " dropped of " + strconv.Itoa(len(replay)) +
			" replayed in " + strconv.Itoa(len(scope)) + " classes")
	}()

	ix := &e.idx
	hit := make(map[stepID]bool)
	inScope := make(map[int32]bool)
	enter := func(id stepID) {
		if r := e.eq.Find(e.steps[e.pos(id)].Pair.A); !inScope[r] {
			inScope[r] = true
			scope = append(scope, r)
		}
	}
	for _, tr := range removedTriples {
		for _, id := range ix.byTriple[tr] {
			hit[id] = true
			enter(id)
		}
	}
	for i := 0; i < len(scope); i++ {
		for _, m := range ix.members[scope[i]] {
			for _, id := range ix.byRequire[m] {
				enter(id)
			}
		}
	}
	if len(scope) == 0 {
		return nil
	}

	// The scoped steps in log order, each with the class it is leaving.
	oldMembers := make(map[int32][]int32, len(scope))
	for _, r := range scope {
		mem := ix.members[r]
		for _, m := range mem {
			for _, id := range ix.byNode[m] {
				if p := e.pos(id); e.steps[p].Pair.A == m {
					replay = append(replay, scopedStep{p, r})
				}
			}
		}
		e.touch(r)
		for _, m := range mem {
			e.markDirty(m)
		}
		e.eq.Reset(mem)
		delete(ix.members, r)
		oldMembers[r] = mem
	}
	slices.SortFunc(replay, func(a, b scopedStep) int { return a.pos - b.pos })

	tainted := make(map[int32]bool)
	var drops []int
	for _, s := range replay {
		st, id := e.steps[s.pos], e.stepIDs[s.pos]
		if hit[id] || !requiresHold(e.eq, st.Requires) {
			tainted[s.root] = true
			e.unindexStep(id, st)
			drops = append(drops, s.pos)
			continue
		}
		e.eq.Union(st.Pair.A, st.Pair.B)
	}
	if len(drops) > 0 {
		e.steps = compact(e.steps, drops)
		e.stepSeqs = compact(e.stepSeqs, drops)
		e.stepIDs = compact(e.stepIDs, drops)
	}
	e.stats.Suspects = len(drops)

	// The member lists of what the scoped classes fell into: every old
	// member still on some step, grouped under its new representative.
	var rebuilt []int32
	for _, r := range scope {
		for _, m := range oldMembers[r] {
			if len(ix.byNode[m]) == 0 {
				continue
			}
			nr := e.eq.Find(m)
			if ix.members[nr] == nil {
				rebuilt = append(rebuilt, nr)
			}
			ix.members[nr] = append(ix.members[nr], m)
		}
	}
	for _, nr := range rebuilt {
		e.canonicalize(ix.members[nr])
	}

	// Suspect order must not depend on map iteration: the seeds feed
	// the re-chase whose step log the differential tests pin.
	roots := make([]int32, 0, len(tainted))
	for r := range tainted {
		roots = append(roots, r)
	}
	slices.Sort(roots)
	for _, r := range roots {
		mem := oldMembers[r]
		for i := 0; i < len(mem); i++ {
			for j := i + 1; j < len(mem); j++ {
				suspects = append(suspects, eqrel.MakePair(mem[i], mem[j]))
			}
		}
	}
	return suspects
}

// scopedStep is a logged step invalidation re-validates: its position
// and the pre-pass representative of its class.
type scopedStep struct {
	pos  int
	root int32
}

func requiresHold(eq *eqrel.Eq, reqs []eqrel.Pair) bool {
	for _, r := range reqs {
		if !eq.Same(r.A, r.B) {
			return false
		}
	}
	return true
}

// affectedEntities collects the keyed entities whose d-neighborhood
// gained a triple: those within maxRadius hops of any added-triple
// endpoint, plus added entities of keyed types, collected in endpoint
// order so the region list is deterministic. The matcher memoizes the
// per-endpoint neighborhoods for the pass's later scans.
func (e *Engine) affectedEntities(res *graph.DeltaResult) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	collect := func(n graph.NodeID) {
		if seen[n] || !e.keyed(n) {
			return
		}
		seen[n] = true
		out = append(out, n)
	}
	seenEp := make(map[graph.NodeID]bool)
	reach := func(ep graph.NodeID) {
		if !seenEp[ep] {
			seenEp[ep] = true
			e.m.Reach(ep, e.maxRadius).Each(collect)
		}
	}
	for _, tr := range res.AddedTriples {
		reach(tr.S)
		reach(tr.O)
	}
	for _, n := range res.AddedEntities {
		reach(n)
	}
	return out
}

// keyed reports whether n is an entity whose type has keys.
func (e *Engine) keyed(n graph.NodeID) bool {
	t, ok := e.g.EntityType(n)
	return ok && len(e.m.KeysFor(t)) > 0
}

// chaseSeeds re-runs chase steps from the seed pairs until the
// fixpoint: one FIFO worklist holding the seeds in seed order, each pair
// popped, skipped when the live relation already holds it, checked
// against the live relation otherwise, and an identification committed
// before the next pop — union, log, indices, and onto the worklist the
// pairs that depend on the merged classes and are not yet identified.
// The chase is Church–Rosser (§3.1, Proposition 1), so the order is a
// free choice; this one is fixed by the seeds. Dependent pairs are
// computed from the classes as they are about to merge: a pair that may
// newly fire needs an entity-variable binding (u', v') with u' and v' in
// the two classes, hence lies within maxRadius of their members.
func (e *Engine) chaseSeeds(seeds []eqrel.Pair) {
	if len(seeds) == 0 {
		return
	}
	ob := e.opts.Obs
	wl := engine.NewWorklist[eqrel.Pair]()
	for _, s := range seeds {
		wl.Push(s)
	}
	ob.worklistDepth().Observe(int64(wl.Len()))
	for {
		pr, ok := wl.Pop()
		if !ok {
			return
		}
		if e.eq.Same(pr.A, pr.B) {
			continue
		}
		got, key, reqs, uses := e.identify(graph.NodeID(pr.A), graph.NodeID(pr.B))
		e.stats.Checked++
		ob.checked().Inc()
		if !got {
			continue
		}
		ra, rb := e.eq.Find(pr.A), e.eq.Find(pr.B)
		dep := e.dependentPairs(e.classOf(ra, pr.A), e.classOf(rb, pr.B))
		e.eq.Union(pr.A, pr.B)
		e.recordMerge(chase.Step{Pair: pr, Key: key, Requires: reqs, Uses: uses}, ra, rb, e.eq.Find(pr.A))
		e.stats.Identified++
		ob.identified().Inc()
		for _, dp := range dep {
			if !e.eq.Same(dp.A, dp.B) {
				wl.Push(dp)
			}
		}
	}
}

// identify mirrors the sequential chase's per-pair check against the
// live relation: first identifying key wins. The Eq-independent quick
// pairing filter (§4.2) runs first, so the guided search runs only for
// keys that pass the x-local necessary condition. Suspect pairs may involve
// entities tombstoned by the delta (their class is tainted by the
// removal of their incident triples); those can never re-derive.
func (e *Engine) identify(e1, e2 graph.NodeID) (ok bool, key string, reqs []eqrel.Pair, uses []graph.Triple) {
	if !e.g.IsEntity(e1) || !e.g.IsEntity(e2) {
		return false, "", nil, nil
	}
	t := e.g.TypeOf(e1)
	if e.g.TypeOf(e2) != t {
		return false, "", nil, nil
	}
	for _, ck := range e.m.KeysFor(t) {
		if !e.m.QuickPaired(ck, e1, e2) {
			continue
		}
		if got, req, used, _ := e.m.IdentifiedByKeyProvenance(ck, e1, e2, e.eq); got {
			return true, ck.Key.Name, req, used
		}
	}
	return false, "", nil, nil
}

// dependentPairs returns the candidate pairs that may newly fire when
// the classes with the given members merge: same-type pairs of
// entities with a recursive key within maxRadius hops of the members.
func (e *Engine) dependentPairs(mem1, mem2 []int32) []eqrel.Pair {
	if len(e.recTypes) == 0 {
		return nil // no check reads Eq, so no merge can enable another
	}
	collectNear := func(members []int32) map[graph.TypeID][]graph.NodeID {
		byType := make(map[graph.TypeID][]graph.NodeID)
		seen := make(map[graph.NodeID]bool)
		for _, x := range members {
			e.m.Reach(graph.NodeID(x), e.maxRadius).Each(func(n graph.NodeID) {
				if seen[n] || !e.g.IsEntity(n) {
					return
				}
				seen[n] = true
				t := e.g.TypeOf(n)
				if e.recTypes[t] {
					byType[t] = append(byType[t], n)
				}
			})
		}
		return byType
	}
	near1 := collectNear(mem1)
	near2 := collectNear(mem2)
	// Iterate types in sorted order: the dependent-pair push order
	// feeds the worklist, whose order the deterministic step log the
	// differential tests pin depends on — map iteration would vary it
	// run to run.
	types := make([]graph.TypeID, 0, len(near1))
	for t := range near1 {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	dedup := make(map[eqrel.Pair]bool)
	var out []eqrel.Pair
	for _, t := range types {
		ps := near1[t]
		qs, ok := near2[t]
		if !ok {
			continue
		}
		for _, p := range ps {
			for _, q := range qs {
				if p == q {
					continue
				}
				pr := eqrel.MakePair(int32(p), int32(q))
				if !dedup[pr] {
					dedup[pr] = true
					out = append(out, pr)
				}
			}
		}
	}
	return out
}

// diffPairs diffs two sorted pair lists.
func diffPairs(old, cur []eqrel.Pair) (added, removed []eqrel.Pair) {
	i, j := 0, 0
	for i < len(old) && j < len(cur) {
		switch c := comparePairs(old[i], cur[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			removed = append(removed, old[i])
			i++
		default:
			added = append(added, cur[j])
			j++
		}
	}
	removed = append(removed, old[i:]...)
	added = append(added, cur[j:]...)
	return added, removed
}
