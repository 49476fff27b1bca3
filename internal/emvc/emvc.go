package emvc

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
	"graphkeys/internal/pattern"
	"graphkeys/internal/vertexcentric"
)

// Variant selects EMVC or EMOptVC.
type Variant int

const (
	// Base is EMVC of §5.1: every propagation step forks a message copy
	// per compatible neighbor.
	Base Variant = iota
	// Opt is EMOptVC of §5.2: bounded messages (at most K in-flight
	// copies per pair and key; further alternatives are explored by the
	// holding worker without forking) and prioritized propagation
	// (most-promising neighbors first).
	Opt
)

// String names the variant as in the paper.
func (v Variant) String() string {
	switch v {
	case Base:
		return "EMVC"
	case Opt:
		return "EMOptVC"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config configures a run.
type Config struct {
	// P is the number of workers.
	P int
	// Variant selects Base or Opt.
	Variant Variant
	// K bounds in-flight message copies per (pair, key) for Opt;
	// 0 means the paper's default of 4.
	K int
	// Match passes through matching options.
	Match match.Options
	// CountProductEdges additionally enumerates |Ep| into the stats
	// (used by the experiment harness for the |Gp| ≈ 2.7·|G| report);
	// it costs an extra pass over the product graph.
	CountProductEdges bool
}

// Stats reports the work a run performed.
type Stats struct {
	// Candidates is the number of paired candidate pairs seeded.
	Candidates int
	// ProductNodes is |Vp| — the pairs of the tuples the pairing
	// relations hold, which are the ones reachable from a candidate's
	// (e1, e2, x); ProductEdges is |Ep| (enumerated on demand).
	ProductNodes, ProductEdges int
	// Messages is the number of engine messages processed; LocalSteps
	// counts in-place (non-forking) exploration steps of the bounded
	// variant; Increments counts dependency-triggered re-check seeds.
	Messages, LocalSteps, Increments int64
	// Identified counts direct identifications; BackstopFound counts
	// pairs the driver's final verification sweep had to add (always 0
	// unless the asynchronous protocol missed something).
	Identified    int64
	BackstopFound int
	// Runs is the number of engine runs (1 + backstop reruns).
	Runs int
	// MaxQueueDepth is the engine mailbox high-water mark.
	MaxQueueDepth int
	// Wall is the total duration.
	Wall time.Duration
}

// Result is the outcome of a run.
type Result struct {
	Pairs []eqrel.Pair
	Eq    *eqrel.Eq
	Stats Stats
}

// message is one EvalVC message m_Q(e1, e2): a partial instantiation of
// key keyIdx's pattern nodes with Gp pairs, positioned before tour step
// pos. Messages are immutable once sent; forks copy the slot vector.
// counted marks copies charged against the (pair, key) budget K_Q;
// in-place exploration copies of the bounded variant are not counted.
type message struct {
	candIdx int // index into the paired candidate list
	keyIdx  int // index into the tours of the pair's type
	pos     int // number of tour steps already traversed
	slots   []opair
	counted bool
}

type engineState struct {
	m       *match.Matcher
	prod    *Product
	cands   []eqrel.Pair
	tours   [][]*compiledTour // per candidate: the tours of its type's keys
	tr      *engine.Tracker
	depIdx  *match.DependencyIndex
	cfg     Config
	k       int
	budgets [][]atomic.Int64 // per candidate, per key: in-flight copies
	stats   *Stats
	eng     *vertexcentric.Engine[*message]
}

// Run computes chase(G, Σ) in the vertex-centric model.
func Run(g *graph.Graph, set *keys.Set, cfg Config) (*Result, error) {
	start := time.Now()
	m, err := match.New(g, set, cfg.Match)
	if err != nil {
		return nil, err
	}
	st := &engineState{m: m, cfg: cfg, stats: &Stats{}, tr: engine.NewTracker(g.NumNodes())}
	st.k = cfg.K
	if st.k <= 0 {
		st.k = 4
	}

	// Product graph from the pairing relations (Proposition 9), seeded
	// from the candidate stream — collected rather than consumed lazily:
	// the product graph needs all of L to build its vertices.
	cands := slices.Collect(m.CandidateStream())
	st.prod, st.cands = buildProduct(m, cands, cfg.P)
	st.stats.Candidates = len(st.cands)
	st.stats.ProductNodes = st.prod.NumNodes()

	// Tours per type, aligned with the matcher's key order, resolved
	// once per candidate, with the per-(pair, key) message budgets of
	// the bounded variant beside them.
	byType := make(map[graph.TypeID][]*compiledTour)
	for _, t := range m.KeyedTypes() {
		for _, ck := range m.KeysFor(t) {
			byType[t] = append(byType[t], compileTour(ck))
		}
	}
	st.tours = make([][]*compiledTour, len(st.cands))
	st.budgets = make([][]atomic.Int64, len(st.cands))
	for i, pr := range st.cands {
		st.tours[i] = byType[g.TypeOf(graph.NodeID(pr.A))]
		st.budgets[i] = make([]atomic.Int64, len(st.tours[i]))
	}

	// Dependency index over the paired candidates (dep edges).
	st.depIdx = m.BuildDependencyIndexParallel(st.cands, cfg.P)
	if cfg.CountProductEdges {
		st.stats.ProductEdges = st.prod.EdgeCount()
	}

	st.eng = vertexcentric.New[*message](cfg.P, st.handle)

	// Seed: initial messages for every key at every paired candidate.
	for i := range st.cands {
		st.seed(i, false, st.eng.Send)
	}
	st.stats.Runs = 1
	st.stats.Messages += st.eng.Run()

	// Backstop: verify quiescence reached the fixpoint; re-seed if not.
	for {
		missed := st.sweep()
		if missed == 0 {
			break
		}
		st.stats.BackstopFound += missed
		st.stats.Runs++
		st.stats.Messages += st.eng.Run()
	}

	st.stats.MaxQueueDepth = st.eng.MaxQueueDepth()
	res := &Result{Eq: st.tr.Relation(), Stats: *st.stats}
	res.Pairs = res.Eq.Pairs(m.KeyedEntities())
	res.Stats.Wall = time.Since(start)
	return res, nil
}

// seed sends the initial messages m_Q(e1, e2) for the keys defined on
// candidate i: all of them at start-up (EvalVC part (1)), the recursive
// ones only for the increment messages of part (6) — no other key can
// newly fire after a union.
func (st *engineState) seed(i int, recursiveOnly bool, send func(int, *message)) {
	pr := st.cands[i]
	e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
	if st.tr.Same(pr.A, pr.B) {
		return
	}
	origin, ok := st.prod.ID(opair{e1, e2})
	if !ok {
		return
	}
	for ki, ct := range st.tours[i] {
		if !ct.ck.Matchable() || recursiveOnly && !ct.ck.Key.Recursive {
			continue
		}
		// Self-loop triples on x have no tour step: verify them here.
		if slices.ContainsFunc(ct.xSelfLoops, func(p graph.PredID) bool {
			return !st.m.G.HasTriple(e1, p, e1) || !st.m.G.HasTriple(e2, p, e2)
		}) {
			continue
		}
		slots := make([]opair, ct.ck.PatternNodeCount())
		for s := range slots {
			slots[s] = unset
		}
		slots[ct.ck.XIndex()] = opair{e1, e2}
		st.budgets[i][ki].Add(1)
		send(origin, &message{candIdx: i, keyIdx: ki, pos: 0, slots: slots, counted: true})
	}
}

// handle is the vertex program: EvalVC parts (2)–(7).
func (st *engineState) handle(vertex int, msg *message, ctx *vertexcentric.Context[*message]) {
	st.deliver(vertex, msg, func(to int, m *message) { ctx.Send(to, m) })
}

// deliver processes an arrival; send forwards continuations (engine
// send for forks, or recursive local calls in bounded mode). Budget
// accounting: the processed message dies unless exactly one
// continuation is sent; each extra continuation is a new copy.
func (st *engineState) deliver(vertex int, msg *message, send func(int, *message)) {
	pr := st.cands[msg.candIdx]
	// (2) Early cancellation: the pair is already identified.
	if st.tr.Same(pr.A, pr.B) {
		st.release(msg)
		return
	}
	ct := st.tours[msg.candIdx][msg.keyIdx]
	here := st.prod.Pair(vertex)

	// Bind or verify the pattern node this arrival targets.
	if msg.pos > 0 {
		step := ct.steps[msg.pos-1]
		if msg.slots[step.To] == unset {
			if !st.feasible(ct.ck, step.To, here, msg.slots) {
				st.release(msg)
				return
			}
			msg.slots[step.To] = here
		} else if msg.slots[step.To] != here {
			// A direct send must land on the recorded binding.
			st.release(msg)
			return
		}
	}

	// (3) Verification: tour complete means fully instantiated.
	if msg.pos == len(ct.steps) {
		st.identify(msg.candIdx, send)
		st.release(msg)
		return
	}

	// (5) Guided propagation along the next tour step.
	step := ct.steps[msg.pos]
	from := msg.slots[step.From]
	if bound := msg.slots[step.To]; bound != unset {
		// Return hop: send the message straight back to the binding.
		// The budget count transfers from msg to its continuation.
		next := &message{candIdx: msg.candIdx, keyIdx: msg.keyIdx, pos: msg.pos + 1,
			slots: msg.slots, counted: msg.counted}
		if id, ok := st.prod.ID(bound); ok {
			send(id, next)
			return
		}
		st.release(msg)
		return
	}

	// Fork one copy per compatible neighbor, most promising first when
	// prioritization is on; respect the budget in bounded mode.
	_, pred, _ := ct.ck.TripleAt(step.Triple)
	type target struct {
		id    int
		op    opair
		score int
	}
	var targets []target
	st.prod.neighbors(from.A, from.B, pred, step.Forward, func(op opair, id int) {
		sc := 0
		if st.cfg.Variant == Opt {
			sc = st.potential(ct.ck, step.To, op, msg.slots)
		}
		targets = append(targets, target{id: id, op: op, score: sc})
	})
	if len(targets) == 0 {
		st.release(msg)
		return
	}
	if st.cfg.Variant == Opt {
		// Prioritized propagation: highest potential first.
		for i := 0; i < len(targets); i++ {
			best := i
			for j := i + 1; j < len(targets); j++ {
				if targets[j].score > targets[best].score {
					best = j
				}
			}
			targets[i], targets[best] = targets[best], targets[i]
		}
	}

	budget := &st.budgets[msg.candIdx][msg.keyIdx]
	for _, tg := range targets {
		cp := &message{candIdx: msg.candIdx, keyIdx: msg.keyIdx, pos: msg.pos + 1, slots: cloneSlots(msg.slots)}
		mayFork := st.cfg.Variant == Base
		if st.cfg.Variant == Opt && budget.Load() < int64(st.k) {
			// Fork while under budget (the check-then-add may briefly
			// overshoot k under contention; the bound is advisory, as a
			// distributed K_Q counter's would be).
			mayFork = true
		}
		if mayFork {
			budget.Add(1)
			cp.counted = true
			send(tg.id, cp)
			continue
		}
		// In-place exploration: recurse synchronously, reusing deliver
		// with a local trampoline so no engine message is created.
		atomic.AddInt64(&st.stats.LocalSteps, 1)
		st.localDeliver(tg.id, cp)
		if st.tr.Same(pr.A, pr.B) {
			break // early termination: someone identified the pair
		}
	}
	st.release(msg)
}

// localDeliver explores synchronously (the bounded variant's non-fork
// path). Continuations stay local.
func (st *engineState) localDeliver(vertex int, msg *message) {
	st.deliver(vertex, msg, func(to int, m *message) {
		atomic.AddInt64(&st.stats.LocalSteps, 1)
		st.localDeliver(to, m)
	})
}

// release retires one in-flight copy of the message's (pair, key); it
// is a no-op for uncounted in-place copies.
func (st *engineState) release(msg *message) {
	if msg.counted {
		st.budgets[msg.candIdx][msg.keyIdx].Add(-1)
	}
}

// identify marks the pair identified, computes the affected class
// members and triggers increment messages at dependent pairs
// (EvalVC parts (6) and (7); transitive closure lives in the tracker's
// union-find).
func (st *engineState) identify(candIdx int, send func(int, *message)) {
	pr := st.cands[candIdx]
	affected, changed := st.tr.Union(pr.A, pr.B)
	if !changed {
		return
	}
	atomic.AddInt64(&st.stats.Identified, 1)
	for _, di := range st.depIdx.Active(slices.Values(affected)) {
		if st.tr.Same(st.cands[di].A, st.cands[di].B) {
			continue
		}
		atomic.AddInt64(&st.stats.Increments, 1)
		st.seed(di, true, send)
	}
}

// feasible checks the EvalVC feasibility conditions for binding pattern
// node q of key ck to the pair (here.A, here.B): injectivity per side,
// kind/equality constraints (entity variables consult the live Eq), and
// guided expansion against already-bound nodes.
func (st *engineState) feasible(ck *match.CompiledKey, q int, here opair, slots []opair) bool {
	g := st.m.G
	a, b := here.A, here.B
	for _, s := range slots {
		if s == unset {
			continue
		}
		if s.A == a || s.B == b {
			return false // injectivity within each side
		}
	}
	kind, typ, constID := ck.NodeInfo(q)
	switch kind {
	case pattern.Designated:
		return false // x never re-binds
	case pattern.EntityVar:
		if !g.IsEntity(a) || !g.IsEntity(b) || g.TypeOf(a) != typ || g.TypeOf(b) != typ {
			return false
		}
		if !st.tr.Same(int32(a), int32(b)) {
			return false
		}
	case pattern.Wildcard:
		if !g.IsEntity(a) || !g.IsEntity(b) || g.TypeOf(a) != typ || g.TypeOf(b) != typ {
			return false
		}
	case pattern.ValueVar:
		if !g.IsValue(a) || !g.IsValue(b) || !st.valueEq(g.Label(a), g.Label(b)) {
			return false
		}
	case pattern.Const:
		if !g.IsValue(a) || !g.IsValue(b) {
			return false
		}
		cv := g.Label(constID)
		if !st.valueEq(g.Label(a), cv) || !st.valueEq(g.Label(b), cv) {
			return false
		}
	}
	// Guided expansion: triples between q and bound nodes must exist.
	for _, ti := range ck.IncidentTriples(q) {
		s, p, o := ck.TripleAt(ti)
		if s == q && o == q {
			if !g.HasTriple(a, p, a) || !g.HasTriple(b, p, b) {
				return false
			}
			continue
		}
		if s == q {
			if ob := slots[o]; ob != unset {
				if !g.HasTriple(a, p, ob.A) || !g.HasTriple(b, p, ob.B) {
					return false
				}
			}
		}
		if o == q {
			if sb := slots[s]; sb != unset {
				if !g.HasTriple(sb.A, p, a) || !g.HasTriple(sb.B, p, b) {
					return false
				}
			}
		}
	}
	return true
}

func (st *engineState) valueEq(a, b string) bool {
	if st.cfg.Match.ValueEq == nil {
		return a == b
	}
	return st.cfg.Match.ValueEq(a, b)
}

// potential estimates how promising a neighbor pair is for completing
// the instantiation (§5.2 prioritized propagation): the number of
// still-unbound pattern triples incident to the target node whose
// predicate both sides of the pair can follow.
func (st *engineState) potential(ck *match.CompiledKey, q int, op opair, slots []opair) int {
	g := st.m.G
	score := 0
	for _, ti := range ck.IncidentTriples(q) {
		s, p, o := ck.TripleAt(ti)
		var other int
		outgoing := false
		if s == q {
			other, outgoing = o, true
		} else {
			other = s
		}
		if other == q || slots[other] != unset {
			continue
		}
		if hasPred(g, op.A, p, outgoing) && hasPred(g, op.B, p, outgoing) {
			score++
		}
	}
	return score
}

func hasPred(g *graph.Graph, n graph.NodeID, p graph.PredID, outgoing bool) bool {
	edges := g.Out(n)
	if !outgoing {
		edges = g.In(n)
	}
	for _, e := range edges {
		if e.Pred == p {
			return true
		}
	}
	return false
}

// sweep is the driver's correctness backstop: after quiescence, verify
// sequentially that no unidentified candidate has become identifiable;
// any stragglers are identified and their dependents reseeded.
func (st *engineState) sweep() int {
	missed := 0
	for i, pr := range st.cands {
		if st.tr.Same(pr.A, pr.B) {
			continue
		}
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		if ok, _, _ := st.m.Identified(e1, e2, st.tr); ok {
			missed++
			st.identify(i, st.eng.Send)
		}
	}
	return missed
}

func cloneSlots(s []opair) []opair {
	c := make([]opair, len(s))
	copy(c, s)
	return c
}
