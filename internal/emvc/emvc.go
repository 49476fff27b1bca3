package emvc

import (
	"cmp"
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

// message is one EvalVC message m_Q(e1, e2), a value: a partial
// instantiation of the pattern nodes of key (an index into the tours
// of candidate cand's type) with Gp pairs, addressed to Gp vertex
// vertex and positioned before tour step pos. Its slot vector is
// slots[off:off+|Q|] of the arena of the buffer it sits in. counted
// marks copies charged against the (pair, key) budget K_Q; in-place
// exploration copies of the bounded variant are not counted.
//
// A slot vector belongs to its message alone. deliver binds into it in
// place and a return hop hands it to its continuation, so every fork
// gets a copy of its own: in its worker's outbox arena, or pushed on
// its worker's stack for in-place exploration. An arena is reset only
// when no live message points into it: the inbox's once the next
// superstep's is gathered, a worker's outbox once gather copied it out,
// a stack range once the exploration that pushed it returns.
type message struct {
	cand, key, vertex, pos, off int32
	counted                     bool
}

// target is one neighbor a message may fork to, with its §5.2
// potential.
type target struct {
	op        opair
	id, score int32
}

// candState is one candidate pair's share of a run. A message's forks
// and return hops stay with its candidate, so in a superstep the one
// worker that delivers a candidate's inbox owns its candState and
// budgets outright; between supersteps only the driver touches them.
type candState struct {
	lo, hi int32 // its inbox this superstep: in[lo:hi]
	budget int32 // budgets[budget+k] counts key k's in-flight copies
	done   bool  // a tour completed; committed at the barrier
}

// worker is one chunk of a superstep's candidates: its sends, grouped
// by candidate in ascending order with their slots in outSlots, and the
// scratch of in-place exploration and forking — stacks whose every
// push is popped when the call that pushed it returns.
type worker struct {
	out        []message
	outSlots   []opair
	stack      []opair
	targets    []target
	localSteps int64
}

type engineState struct {
	m       *match.Matcher
	prod    *Product
	cands   []eqrel.Pair
	tours   [][]*compiledTour // per candidate: the tours of its type's keys
	cs      []candState
	budgets []int32
	eq      *eqrel.Eq // unioned only by the driver, between supersteps; read by the workers
	depIdx  *match.DependencyIndex
	cfg     Config
	k       int
	stats   Stats

	// in is a superstep's inbox, grouped by candidate in ascending
	// order, with its slots in inSlots; active lists the candidates
	// with mail. seeds are the messages the driver sent since, with
	// their slots in seedSlots.
	in        []message
	inSlots   []opair
	active    []int32
	seeds     []message
	seedSlots []opair
	// workers[:chunks] delivered the last superstep; a superstep has at
	// most as many chunks as there are workers.
	workers []worker
	chunks  int
	// members and deps are identify's scratch.
	members []int32
	deps    []int
}

// Run computes chase(G, Σ) in the vertex-centric model.
func Run(g *graph.Graph, set *keys.Set, cfg Config) (*Result, error) {
	m, err := match.New(g, set, cfg.Match)
	if err != nil {
		return nil, err
	}
	st := &engineState{m: m, cfg: cfg, eq: eqrel.New(g.NumNodes())}
	st.k = cfg.K
	if st.k <= 0 {
		st.k = 4
	}

	// Product graph from the pairing relations (Proposition 9), seeded
	// from L — collected on the workers (match.Candidates) rather than
	// consumed lazily: the product graph needs all of L to build its
	// vertices.
	cands := m.Candidates(cfg.P)
	st.prod, st.cands = buildProduct(m, cands, cfg.P)
	st.stats.Candidates = len(st.cands)
	st.stats.ProductNodes = st.prod.NumNodes()

	// Tours per type, aligned with the matcher's key order, resolved
	// once per candidate, with the per-(pair, key) message budgets of
	// the bounded variant in one array beside them.
	byType := make(map[graph.TypeID][]*compiledTour)
	for _, t := range m.KeyedTypes() {
		for _, ck := range m.KeysFor(t) {
			byType[t] = append(byType[t], compileTour(ck))
		}
	}
	st.tours = make([][]*compiledTour, len(st.cands))
	st.cs = make([]candState, len(st.cands))
	n := 0
	for i, pr := range st.cands {
		st.tours[i] = byType[g.TypeOf(graph.NodeID(pr.A))]
		st.cs[i].budget = int32(n)
		n += len(st.tours[i])
	}
	st.budgets = make([]int32, n)
	st.workers = make([]worker, engine.Chunks(cfg.P, len(st.cands)))

	// Dependency index over the paired candidates (dep edges).
	st.depIdx = m.BuildDependencyIndexParallel(st.cands, cfg.P)

	// Seed initial messages for every key at every paired candidate,
	// then deliver until none is in flight: the increment messages
	// identify sends after each merge carry the run to the fixpoint.
	for i := range st.cands {
		st.seed(int32(i), false)
	}
	st.supersteps()

	for i := range st.workers {
		st.stats.LocalSteps += st.workers[i].localSteps
	}
	res := &Result{Eq: st.eq, Stats: st.stats}
	res.Pairs = res.Eq.Pairs()
	return res, nil
}

// supersteps delivers messages until none is in flight. A superstep
// moves every message one hop: the candidates with mail, in ascending
// order, split into consecutive chunks, and item c of its
// engine.Parallel delivers chunk c's inboxes on workers[c], whose
// outbox gather makes part of the next superstep's inbox. No writer
// runs during a superstep, so every item reads the relation as the last
// barrier left it. At the barrier the candidates whose tours completed
// commit in ascending order, so every count is the same at every p.
func (st *engineState) supersteps() {
	for st.gather(); len(st.in) > 0; st.gather() {
		st.stats.Messages += int64(len(st.in))
		st.chunks = engine.Chunks(st.cfg.P, len(st.active))
		engine.Parallel(st.m.Opts.Eng, st.cfg.P, st.chunks, func(c int) {
			w := &st.workers[c]
			w.out, w.outSlots = w.out[:0], w.outSlots[:0]
			lo, hi := engine.ChunkRange(c, st.chunks, len(st.active))
			for _, i := range st.active[lo:hi] {
				for _, msg := range st.in[st.cs[i].lo:st.cs[i].hi] {
					st.deliver(w, msg, st.slots(st.inSlots, msg), false)
				}
			}
		})
		for _, i := range st.active {
			if st.cs[i].done {
				st.identify(i)
			}
		}
	}
}

// gather makes the next superstep's inbox out of the last one's sends,
// which the workers hold grouped by candidate in ascending order, each
// candidate's followed by the seeds the driver sent it, in the order it
// sent them. Every message and its slots are copied into in and
// inSlots, whose previous messages are all delivered.
func (st *engineState) gather() {
	n, slots := len(st.seeds), len(st.seedSlots)
	for _, w := range st.workers[:st.chunks] {
		n, slots = n+len(w.out), slots+len(w.outSlots)
	}
	st.in, st.inSlots = slices.Grow(st.in[:0], n), slices.Grow(st.inSlots[:0], slots)
	st.active = st.active[:0]
	slices.SortStableFunc(st.seeds, func(a, b message) int { return cmp.Compare(a.cand, b.cand) })
	seeds := st.seeds
	for _, w := range st.workers[:st.chunks] {
		for _, msg := range w.out {
			for ; len(seeds) > 0 && seeds[0].cand < msg.cand; seeds = seeds[1:] {
				st.put(seeds[0], st.seedSlots)
			}
			st.put(msg, w.outSlots)
		}
	}
	for _, msg := range seeds {
		st.put(msg, st.seedSlots)
	}
	st.seeds, st.seedSlots = st.seeds[:0], st.seedSlots[:0]
}

// put appends msg, its slots read from arena, to the inbox.
func (st *engineState) put(msg message, arena []opair) {
	c := &st.cs[msg.cand]
	if n := len(st.active); n == 0 || st.active[n-1] != msg.cand {
		st.active = append(st.active, msg.cand)
		c.lo = int32(len(st.in))
	}
	slots := st.slots(arena, msg)
	msg.off = int32(len(st.inSlots))
	st.inSlots = append(st.inSlots, slots...)
	st.in = append(st.in, msg)
	c.hi = int32(len(st.in))
}

// slots is msg's slot vector in arena.
func (st *engineState) slots(arena []opair, msg message) []opair {
	end := int(msg.off) + st.tours[msg.cand][msg.key].ck.PatternNodeCount()
	return arena[msg.off:end:end]
}

// seed sends the initial messages m_Q(e1, e2) for the keys defined on
// candidate i: all of them at start-up (EvalVC part (1)), the recursive
// ones only for the increment messages of part (6) — no other key can
// newly fire after a union.
func (st *engineState) seed(i int32, recursiveOnly bool) {
	pr := st.cands[i]
	e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
	if st.eq.Same(pr.A, pr.B) {
		return
	}
	origin, ok := st.prod.ID(opair{A: e1, B: e2})
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
		off := len(st.seedSlots)
		for range ct.ck.PatternNodeCount() {
			st.seedSlots = append(st.seedSlots, unset)
		}
		st.seedSlots[off+ct.ck.XIndex()] = opair{A: e1, B: e2}
		st.budgets[st.cs[i].budget+int32(ki)]++
		st.seeds = append(st.seeds, message{cand: i, key: int32(ki), vertex: int32(origin), off: int32(off), counted: true})
	}
}

// deliver processes the arrival of msg, whose slot vector is slots,
// EvalVC parts (2)–(7). Its continuations go to the worker's outbox,
// or, when local (the bounded variant's in-place exploration), straight
// into deliver on the same goroutine (send). Budget accounting: the
// processed message dies unless exactly one continuation is sent; each
// extra continuation is a new copy.
func (st *engineState) deliver(w *worker, msg message, slots []opair, local bool) {
	pr := st.cands[msg.cand]
	c := &st.cs[msg.cand]
	// (2) Early cancellation: the pair is already identified.
	if c.done || st.eq.Same(pr.A, pr.B) {
		st.release(msg)
		return
	}
	ct := st.tours[msg.cand][msg.key]
	here := st.prod.Pair(int(msg.vertex))

	// Bind or verify the pattern node this arrival targets.
	if msg.pos > 0 {
		step := ct.steps[msg.pos-1]
		if slots[step.To] == unset {
			// EvalVC binds under EvalMR's feasibility conditions.
			if !st.m.Feasible(ct.ck, slots, step.To, here.A, here.B, st.eq) {
				st.release(msg)
				return
			}
			slots[step.To] = here
		} else if slots[step.To] != here {
			// A direct send must land on the recorded binding.
			st.release(msg)
			return
		}
	}

	// (3) Verification: tour complete means fully instantiated.
	if int(msg.pos) == len(ct.steps) {
		c.done = true
		st.release(msg)
		return
	}

	// (5) Guided propagation along the next tour step.
	step := ct.steps[msg.pos]
	from := slots[step.From]
	next := msg
	next.pos++
	if bound := slots[step.To]; bound != unset {
		// Return hop: send the message straight back to the binding,
		// with its slots. The budget count transfers from msg to its
		// continuation.
		if id, ok := st.prod.ID(bound); ok {
			next.vertex = int32(id)
			st.send(w, next, slots, local)
			return
		}
		st.release(msg)
		return
	}

	// Fork one copy per compatible neighbor, most promising first when
	// prioritization is on; respect the budget in bounded mode.
	_, pred, _ := ct.ck.TripleAt(step.Triple)
	lo := len(w.targets)
	w.targets = st.prod.appendNeighbors(w.targets, from.A, from.B, pred, step.Forward)
	hi := len(w.targets)
	if hi == lo {
		st.release(msg)
		return
	}
	if st.cfg.Variant == Opt {
		// Prioritized propagation: highest potential first.
		targets := w.targets[lo:hi]
		for i := range targets {
			targets[i].score = int32(st.potential(ct.ck, step.To, targets[i].op, slots))
		}
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

	budget := &st.budgets[c.budget+msg.key]
	for t := lo; t < hi; t++ {
		cp := next
		cp.vertex, cp.counted = w.targets[t].id, st.cfg.Variant == Base || int(*budget) < st.k
		if cp.counted {
			*budget++
			if !local {
				st.send(w, cp, slots, false) // the outbox's copy is the fork's own
				continue
			}
		}
		// In place (counted when the message itself is explored in
		// place, else uncounted): deliver recurses on a copy pushed on
		// the stack, so no message is created.
		top := len(w.stack)
		w.stack = append(w.stack, slots...)
		st.send(w, cp, w.stack[top:len(w.stack):len(w.stack)], true)
		w.stack = w.stack[:top]
		if !cp.counted && c.done {
			break // early termination: the tour completed in place
		}
	}
	w.targets = w.targets[:lo]
	st.release(msg)
}

// send passes a continuation on. Into the outbox its slots are copied,
// to the worker's arena; locally it is delivered at once on slots,
// which stay the caller's once it returns.
func (st *engineState) send(w *worker, msg message, slots []opair, local bool) {
	if local {
		w.localSteps++
		st.deliver(w, msg, slots, true)
		return
	}
	msg.off = int32(len(w.outSlots))
	w.outSlots = append(w.outSlots, slots...)
	w.out = append(w.out, msg)
}

// release retires one in-flight copy of the message's (pair, key); it
// is a no-op for uncounted in-place copies.
func (st *engineState) release(msg message) {
	if msg.counted {
		st.budgets[st.cs[msg.cand].budget+msg.key]--
	}
}

// identify marks the pair identified, computes the affected class
// members and seeds increment messages at dependent pairs (EvalVC
// parts (6) and (7); transitive closure lives in the relation's
// union-find). Only the driver calls it, between supersteps.
func (st *engineState) identify(i int32) {
	pr := st.cands[i]
	if !st.eq.Union(pr.A, pr.B) {
		return
	}
	st.stats.Identified++
	st.members = st.members[:0]
	for x := range st.eq.Members(pr.A) {
		st.members = append(st.members, x)
	}
	st.deps = st.depIdx.Active(st.members, st.deps[:0])
	for _, di := range st.deps {
		if st.eq.Same(st.cands[di].A, st.cands[di].B) {
			continue
		}
		st.stats.Increments++
		st.seed(int32(di), true)
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
