package emvc

import (
	"fmt"
	"slices"

	"graphkeys/internal/engine"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// Variant selects EMVC or EMOptVC.
type Variant int

const (
	// Base is EMVC of §5.1: every propagation step forks a message copy
	// per compatible neighbor.
	Base Variant = iota
	// Opt is EMOptVC of §5.2: bounded messages (at most K in-flight
	// copies per pair and key; further alternatives are explored in
	// place without forking) and prioritized propagation
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
}

// Stats reports the work a run performed.
type Stats struct {
	// Candidates is the number of paired candidate pairs seeded.
	Candidates int
	// ProductNodes is |Vp| — the pairs of the tuples the pairing
	// relations hold, which are the ones reachable from a candidate's
	// (e1, e2, x).
	ProductNodes int
	// Messages is the number of messages delivered; LocalSteps counts
	// in-place (non-forking) exploration steps of the bounded variant;
	// Increments counts dependency-triggered re-check seeds.
	Messages, LocalSteps, Increments int64
	// Identified counts direct identifications.
	Identified int64
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

// envelope is a message addressed to a Gp vertex.
type envelope struct {
	vertex int
	msg    *message
}

// candState is one candidate pair's share of a run. A message's forks
// and return hops stay with its candidate, so in a superstep the one
// item that delivers a candidate's inbox owns its candState outright.
type candState struct {
	inbox, outbox []envelope
	budgets       []int // per key: in-flight copies
	done          bool  // a tour completed; committed at the barrier
	localSteps    int64
}

type engineState struct {
	m      *match.Matcher
	prod   *Product
	cands  []eqrel.Pair
	tours  [][]*compiledTour // per candidate: the tours of its type's keys
	cs     []candState
	rel    *eqrel.Eq    // unioned only by the driver, between supersteps
	eq     eqrel.Reader // rel's view, the one the workers read
	depIdx *match.DependencyIndex
	cfg    Config
	k      int
	stats  Stats
}

// Run computes chase(G, Σ) in the vertex-centric model.
func Run(g *graph.Graph, set *keys.Set, cfg Config) (*Result, error) {
	m, err := match.New(g, set, cfg.Match)
	if err != nil {
		return nil, err
	}
	st := &engineState{m: m, cfg: cfg, rel: eqrel.New(g.NumNodes())}
	st.eq = st.rel.Reader()
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
	st.cs = make([]candState, len(st.cands))
	for i, pr := range st.cands {
		st.tours[i] = byType[g.TypeOf(graph.NodeID(pr.A))]
		st.cs[i].budgets = make([]int, len(st.tours[i]))
	}

	// Dependency index over the paired candidates (dep edges).
	st.depIdx = m.BuildDependencyIndexParallel(st.cands, cfg.P)

	// Seed initial messages for every key at every paired candidate,
	// then deliver until none is in flight: the increment messages
	// identify sends after each merge carry the run to the fixpoint.
	for i := range st.cands {
		st.seed(i, false)
	}
	st.supersteps()

	for i := range st.cs {
		st.stats.LocalSteps += st.cs[i].localSteps
	}
	res := &Result{Eq: st.rel, Stats: st.stats}
	res.Pairs = res.Eq.Pairs(m.KeyedEntities())
	return res, nil
}

// supersteps delivers messages until none is in flight. A superstep
// moves every message one hop: item j of its engine.Parallel delivers
// the inbox of active[j], the candidates with mail in ascending order,
// and the sends go to that candidate's outbox, the next superstep's
// inbox. No writer runs during a superstep, so every item reads the
// relation as the last barrier left it. At the barrier the candidates
// whose tours completed commit in ascending order, so every count is
// the same at every p.
func (st *engineState) supersteps() {
	for {
		var active []int
		for i := range st.cs {
			if n := len(st.cs[i].inbox); n > 0 {
				active = append(active, i)
				st.stats.Messages += int64(n)
			}
		}
		if len(active) == 0 {
			return
		}
		engine.Parallel(st.m.Opts.Eng, st.cfg.P, len(active), func(j int) {
			c := &st.cs[active[j]]
			for _, env := range c.inbox {
				st.deliver(env.vertex, env.msg, func(to int, m *message) {
					c.outbox = append(c.outbox, envelope{to, m})
				})
			}
			clear(c.inbox)
			c.inbox, c.outbox = c.outbox, c.inbox[:0]
		})
		for _, i := range active {
			if st.cs[i].done {
				st.identify(i)
			}
		}
	}
}

// seed sends the initial messages m_Q(e1, e2) for the keys defined on
// candidate i: all of them at start-up (EvalVC part (1)), the recursive
// ones only for the increment messages of part (6) — no other key can
// newly fire after a union.
func (st *engineState) seed(i int, recursiveOnly bool) {
	pr := st.cands[i]
	e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
	if st.eq.Same(pr.A, pr.B) {
		return
	}
	origin, ok := st.prod.ID(opair{A: e1, B: e2})
	if !ok {
		return
	}
	c := &st.cs[i]
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
		slots := slices.Repeat([]opair{unset}, ct.ck.PatternNodeCount())
		slots[ct.ck.XIndex()] = opair{A: e1, B: e2}
		c.budgets[ki]++
		c.inbox = append(c.inbox, envelope{origin, &message{candIdx: i, keyIdx: ki, pos: 0, slots: slots, counted: true}})
	}
}

// deliver processes an arrival, EvalVC parts (2)–(7); send forwards
// continuations (to the outbox for forks and return hops, or recursive
// local calls in bounded mode). Budget accounting: the processed
// message dies unless exactly one continuation is sent; each extra
// continuation is a new copy.
func (st *engineState) deliver(vertex int, msg *message, send func(int, *message)) {
	pr := st.cands[msg.candIdx]
	c := &st.cs[msg.candIdx]
	// (2) Early cancellation: the pair is already identified.
	if c.done || st.eq.Same(pr.A, pr.B) {
		st.release(msg)
		return
	}
	ct := st.tours[msg.candIdx][msg.keyIdx]
	here := st.prod.Pair(vertex)

	// Bind or verify the pattern node this arrival targets.
	if msg.pos > 0 {
		step := ct.steps[msg.pos-1]
		if msg.slots[step.To] == unset {
			// EvalVC binds under EvalMR's feasibility conditions.
			if !st.m.Feasible(ct.ck, msg.slots, step.To, here.A, here.B, st.eq) {
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
		c.done = true
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

	budget := &c.budgets[msg.keyIdx]
	for _, tg := range targets {
		cp := &message{candIdx: msg.candIdx, keyIdx: msg.keyIdx, pos: msg.pos + 1, slots: cloneSlots(msg.slots)}
		if st.cfg.Variant == Base || *budget < st.k {
			*budget++
			cp.counted = true
			send(tg.id, cp)
			continue
		}
		// In-place exploration: recurse synchronously, reusing deliver
		// with a local trampoline so no message is created.
		c.localSteps++
		st.localDeliver(tg.id, cp)
		if c.done {
			break // early termination: the tour completed in place
		}
	}
	st.release(msg)
}

// localDeliver explores synchronously (the bounded variant's non-fork
// path). Continuations stay local.
func (st *engineState) localDeliver(vertex int, msg *message) {
	st.deliver(vertex, msg, func(to int, m *message) {
		st.cs[m.candIdx].localSteps++
		st.localDeliver(to, m)
	})
}

// release retires one in-flight copy of the message's (pair, key); it
// is a no-op for uncounted in-place copies.
func (st *engineState) release(msg *message) {
	if msg.counted {
		st.cs[msg.candIdx].budgets[msg.keyIdx]--
	}
}

// identify marks the pair identified, computes the affected class
// members and seeds increment messages at dependent pairs (EvalVC
// parts (6) and (7); transitive closure lives in the relation's
// union-find). Only the driver calls it, between supersteps.
func (st *engineState) identify(candIdx int) {
	pr := st.cands[candIdx]
	if !st.rel.Union(pr.A, pr.B) {
		return
	}
	st.stats.Identified++
	for _, di := range st.depIdx.Active(st.rel.Members(pr.A)) {
		if st.eq.Same(st.cands[di].A, st.cands[di].B) {
			continue
		}
		st.stats.Increments++
		st.seed(di, true)
	}
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

func cloneSlots(s []opair) []opair {
	c := make([]opair, len(s))
	copy(c, s)
	return c
}
