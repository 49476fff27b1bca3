package graph

import (
	"errors"
	"fmt"
)

// This file is the planned write path, the only way a delta reaches the
// tables. A mutation does not walk the raw op list of a Delta against
// the store one op at a time; it is first *planned* — validated,
// normalized and coalesced, resolved to node IDs — and the plan is then
// *lowered*: its surviving effects are written to the tables in
// normalized-record order.
//
// # One writer
//
// Every delta, accepted or rejected, durable or not, takes the same
// steps, all under the graph's writer mutex (ApplyDeltaLogged):
//
//	plan -> log hook -> lower
//
// Deltas apply one at a time, in the order their callers take the
// mutex. A plan reads a graph no other writer can change under it, so
// lowering stays purely mechanical (no re-checks, no failure paths)
// and the normalized record stays exact: replaying it against the same
// pre-state reproduces the same post-state, byte for byte. Nodes are
// allocated at lowering, after the hook accepted the record, in record
// order: a sequential replay of the log allocates the same IDs, and a
// hook that refuses leaves nothing behind — not a node, not a name.
// Durability is the hook owner's: a durable matcher adds each record
// to an open WAL group and commits the group once per batch, after the
// batch lowered (graphkeys.Matcher.ApplyBatch).
//
// Readers never take the writer mutex: keeping them off the graph while
// a delta applies is the caller's part (see the package comment).

// DeltaLog receives the normalized (net-effect) op list of a planned
// delta before it is applied, under the writer mutex: records handed to
// consecutive calls are in exactly the order the deltas apply in.
// Returning an error aborts the delta before any mutation: this is the
// write-ahead hook the WAL hangs off.
type DeltaLog func(norm []DeltaOp) error

// DeltaCommit is the durability wait of a log that makes each record
// durable alone (wal.Store.Begin hands one back); inc.Engine.SetLog
// runs it inside the hook, before the delta lowers.
type DeltaCommit func() error

// ErrInvalidDelta is matched (errors.Is) by the error of a delta that
// failed validation; a log failure does not match it.
var ErrInvalidDelta = errors.New("graph: invalid delta")

// invalidDelta keeps a validation error's text and matches ErrInvalidDelta.
type invalidDelta struct{ error }

func (invalidDelta) Is(target error) bool { return target == ErrInvalidDelta }

// planRef names a node during planning: a concrete NodeID for nodes
// that exist, or a pending allocation for nodes the delta creates.
// Distinct incarnations of the same external ID (remove + re-add in one
// delta) get distinct refs, so triple keys never conflate them.
type planRef struct {
	n    NodeID
	pend *pendNode
}

// pendNode is a node the delta will create if its incarnation survives
// coalescing. n stays NoNode until lowering allocates the node.
type pendNode struct {
	kind     Kind
	label    string
	typeName string
	live     bool
	n        NodeID
}

// tKey identifies one logical triple during planning, at whatever
// resolution level its endpoints have (predicates stay names until
// lowering, so planning never interns on behalf of ops that may
// coalesce away).
type tKey struct {
	s    planRef
	pred string
	o    planRef
}

// tState tracks the net effect on one triple across the delta's ops.
type tState struct {
	initial   bool // present in the graph before the delta
	current   bool // present after the ops processed so far
	adderOp   int  // op index of the last absent->present transition
	removerOp int  // op index of the last present->absent transition; -1 when a RemoveEntity expansion caused it
}

// opPlan is what planning decided about one op, which emission reads
// back to keep the op or drop it.
type opPlan struct {
	key     tKey      // a triple op's resolved key…
	ts      *tState   // …and its state; nil for an unknown literal
	pend    *pendNode // the incarnation an OpAddEntity created
	removes bool      // an OpRemoveEntity removed the existing node n…
	n       NodeID
	owned   []tKey // …and owns these expansion removals, in adjacency order
}

// planned is a delta on its way to the tables: the normalized record
// and the emission list from planning, then (after lowerPlanned) the
// DeltaResult.
type planned struct {
	norm   []DeltaOp
	emit   []emitItem
	result DeltaResult
}

// ApplyDelta applies the delta atomically through the planned write
// path: it validates every operation (simulating entity creation and
// removal, so a triple may reference an entity added earlier in the
// same delta, and may not reference one removed earlier) and only then
// mutates the graph. On error the graph is untouched — not a node, not
// an interned name.
//
// Ops are normalized before application: duplicate adds, removals of
// absent triples, and add/remove pairs of the same triple inside one
// delta coalesce to their net effect, which is what DeltaResult
// reports (a delta whose ops cancel out reports Empty). Concurrent
// ApplyDelta callers serialize on the writer mutex, and each sees every
// delta applied before it; no reader may run beside them (see the
// package comment).
func (g *Graph) ApplyDelta(d *Delta) (*DeltaResult, error) {
	return g.ApplyDeltaLogged(d, nil)
}

// ApplyDeltaLogged is ApplyDelta with a write-ahead hook: log (when
// non-nil) receives the normalized op list after validation and
// coalescing but before any mutation. If log errors, the delta is
// aborted and the graph is untouched. Deltas that coalesce to a no-op
// are not logged.
//
// The whole delta — plan, log and lowering — runs under the writer
// mutex (see the file comment). sync.Mutex turns FIFO after a waiter
// has been blocked for a millisecond, so a writer behind a stream of
// others is not starved.
func (g *Graph) ApplyDeltaLogged(d *Delta, log DeltaLog) (*DeltaResult, error) {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	tPlan := g.ob.PlanNanos.Start()
	p, err := g.planDelta(d)
	g.ob.PlanNanos.ObserveSince(tPlan)
	if err != nil {
		return nil, invalidDelta{err}
	}
	if len(p.norm) == 0 {
		g.ob.NoopDeltas.Inc()
		return &p.result, nil
	}
	if log != nil {
		if err := log(p.norm); err != nil {
			return nil, fmt.Errorf("graph: delta log: %w", err)
		}
	}
	tLower := g.ob.LowerNanos.Start()
	g.lowerPlanned(p)
	g.ob.LowerNanos.ObserveSince(tLower)
	g.ob.Deltas.Inc()
	return &p.result, nil
}

// planDelta validates the delta and coalesces it into its net effect
// in one walk, simulating the entity-level state (creations and
// removals) op by op — so a triple may reference an entity added
// earlier in the delta and may not reference one removed earlier.
// Caller holds the writer mutex, so every read is of the graph the plan
// will apply to. Nothing is mutated: interning predicates and
// allocating nodes are deferred to lowering, which is what makes
// atomicity possible.
func (g *Graph) planDelta(d *Delta) (*planned, error) {
	type entState struct {
		ref  planRef
		live bool
	}
	ents := make(map[string]entState)
	vals := make(map[string]planRef)
	trips := make(map[tKey]*tState)
	entOf := func(id string) entState {
		if st, ok := ents[id]; ok {
			return st
		}
		st := entState{ref: planRef{n: NoNode}}
		if n, ok := g.Entity(id); ok {
			st = entState{ref: planRef{n: n}, live: true}
		}
		ents[id] = st
		return st
	}
	valOf := func(lit string, create bool) (planRef, bool) {
		if r, ok := vals[lit]; ok {
			return r, true
		}
		if v, ok := g.Value(lit); ok {
			r := planRef{n: v}
			vals[lit] = r
			return r, true
		}
		if !create {
			return planRef{n: NoNode}, false
		}
		r := planRef{n: NoNode, pend: &pendNode{kind: ValueKind, label: lit, n: NoNode}}
		vals[lit] = r
		return r, true
	}
	present := func(k tKey) bool {
		if k.s.pend != nil || k.o.pend != nil {
			return false
		}
		pid, ok := g.PredByName(k.pred)
		return ok && g.HasTriple(k.s.n, pid, k.o.n)
	}
	stateOf := func(k tKey) *tState {
		if ts, ok := trips[k]; ok {
			return ts
		}
		p := present(k)
		ts := &tState{initial: p, current: p, adderOp: -1, removerOp: -1}
		trips[k] = ts
		return ts
	}
	plans := make([]opPlan, len(d.ops))
	// cancelRef cancels in-delta triple additions touching r. For an
	// existing node every initial-present incident triple was already
	// flipped by the adjacency expansion, so only initial-absent
	// (net-no-op) entries can still be current here — nothing to own.
	cancelRef := func(r planRef) {
		for k, ts := range trips {
			if ts.current && (k.s == r || k.o == r) {
				ts.current = false
				ts.removerOp = -1
			}
		}
	}

	for i, op := range d.ops {
		switch op.Kind {
		case OpAddEntity:
			if st := entOf(op.ID); st.live {
				// Exists, in the graph or created earlier in this delta:
				// a no-op if the type agrees.
				var have string
				if st.ref.pend != nil {
					have = st.ref.pend.typeName
				} else {
					have = g.TypeName(g.nodes[st.ref.n].typ)
				}
				if have != op.TypeName {
					return nil, fmt.Errorf("graph: delta op %d: entity %q redeclared with type %q (was %q)",
						i, op.ID, op.TypeName, have)
				}
				continue
			}
			// Fresh, or re-adding an ID removed earlier in this delta
			// (which creates a new node, so any type is fine).
			p := &pendNode{kind: EntityKind, label: op.ID, typeName: op.TypeName, live: true, n: NoNode}
			ents[op.ID] = entState{ref: planRef{n: NoNode, pend: p}, live: true}
			plans[i].pend = p
		case OpRemoveEntity:
			st := entOf(op.ID)
			if !st.live {
				continue
			}
			ents[op.ID] = entState{ref: planRef{n: NoNode}}
			if st.ref.pend != nil {
				// In-delta incarnation: cancel it and its triples.
				st.ref.pend.live = false
				cancelRef(st.ref)
				continue
			}
			n := st.ref.n
			pl := &plans[i]
			pl.removes, pl.n = true, n
			// Expand over the pre-delta incident triples (out then in;
			// a self-loop dedups through the state map)…
			for _, e := range g.out[n] {
				k := tKey{s: planRef{n: n}, pred: g.PredName(e.Pred), o: planRef{n: e.To}}
				if ts := stateOf(k); ts.current {
					ts.current = false
					ts.removerOp = -1
					pl.owned = append(pl.owned, k)
				}
			}
			for _, e := range g.in[n] {
				k := tKey{s: planRef{n: e.To}, pred: g.PredName(e.Pred), o: planRef{n: n}}
				if ts := stateOf(k); ts.current {
					ts.current = false
					ts.removerOp = -1
					pl.owned = append(pl.owned, k)
				}
			}
			// …and over triples this delta added onto the node.
			cancelRef(planRef{n: n})
		case OpAddTriple, OpRemoveTriple:
			add := op.Kind == OpAddTriple
			s := entOf(op.Subject)
			if !s.live {
				return nil, fmt.Errorf("graph: delta op %d: unknown subject entity %q", i, op.Subject)
			}
			var o planRef
			known := true
			if op.ObjectIsValue {
				o, known = valOf(op.Object, add)
			} else if ost := entOf(op.Object); ost.live {
				o = ost.ref
			} else {
				return nil, fmt.Errorf("graph: delta op %d: unknown object entity %q", i, op.Object)
			}
			if op.Pred == "" {
				return nil, fmt.Errorf("graph: delta op %d: empty predicate", i)
			}
			if !known {
				continue // removal of an unknown literal: nothing to remove
			}
			k := tKey{s: s.ref, pred: op.Pred, o: o}
			ts := stateOf(k)
			plans[i].key, plans[i].ts = k, ts
			if ts.current != add {
				ts.current = add
				if add {
					ts.adderOp = i
				} else {
					ts.removerOp = i
				}
			}
		default:
			return nil, fmt.Errorf("graph: delta op %d: unknown kind %d", i, op.Kind)
		}
	}

	// Emission: walk the ops again and keep exactly those whose effect
	// survived — the normalized record, in original op order, plus the
	// lowering worklist that mirrors it.
	p := &planned{}
	for i, op := range d.ops {
		pl := &plans[i]
		var it emitItem
		switch ts := pl.ts; {
		case op.Kind == OpAddEntity && pl.pend != nil && pl.pend.live:
			it = emitItem{kind: eAlloc, pend: pl.pend}
		case op.Kind == OpRemoveEntity && pl.removes:
			it = emitItem{kind: eTombstone, n: pl.n, keys: pl.owned}
		case op.Kind == OpAddTriple && ts != nil && !ts.initial && ts.current && ts.adderOp == i:
			it = emitItem{kind: eAddTriple, key: pl.key}
		case op.Kind == OpRemoveTriple && ts != nil && ts.initial && !ts.current && ts.removerOp == i:
			it = emitItem{kind: eRemTriple, key: pl.key}
		default:
			continue
		}
		p.norm = append(p.norm, op)
		p.emit = append(p.emit, it)
	}
	return p, nil
}

// emitItem is one surviving effect of a planned delta, in normalized
// order, still at planning resolution (lowerPlanned resolves it).
type emitItem struct {
	kind uint8
	pend *pendNode
	n    NodeID
	key  tKey
	keys []tKey // eTombstone: the expansion removals this entity owns
}

const (
	eAlloc uint8 = iota
	eTombstone
	eAddTriple
	eRemTriple
)

// lowerPlanned makes the plan's surviving nodes real — allocates them in
// normalized-record order (entity creations at their eAlloc, value
// literals at the first surviving triple that references them) and
// enters them in the directory — interns its predicate names, writes
// the emission list to the tables in that order and builds the
// DeltaResult. Caller holds the writer mutex.
func (g *Graph) lowerPlanned(p *planned) {
	for _, it := range p.emit {
		switch it.kind {
		case eAlloc:
			it.pend.n = g.newNode(node{kind: EntityKind, typ: TypeID(g.types.Intern(it.pend.typeName)), label: it.pend.label})
			p.result.AddedEntities = append(p.result.AddedEntities, it.pend.n)
		case eTombstone:
			for _, k := range it.keys {
				g.lowerTriple(p, k, false)
			}
			// The directory is plan-authoritative in both directions:
			// entries appear at eAlloc lowering, and a tombstone's slot
			// stops matching here, so a remove + re-add of the same
			// external ID in one delta finds the re-added incarnation.
			nd := &g.nodes[it.n]
			nd.dead = true
			g.byType[nd.typ] = removeOne(g.byType[nd.typ], it.n)
			p.result.RemovedEntities = append(p.result.RemovedEntities, it.n)
		case eAddTriple:
			g.lowerTriple(p, it.key, true)
		case eRemTriple:
			g.lowerTriple(p, it.key, false)
		}
	}
}

// lowerTriple writes one net triple add or removal to the tables.
func (g *Graph) lowerTriple(p *planned, k tKey, add bool) {
	s := k.s.n
	if k.s.pend != nil {
		s = k.s.pend.n
	}
	var pid PredID
	if add {
		pid = PredID(g.preds.Intern(k.pred))
	} else {
		pid, _ = g.PredByName(k.pred)
	}
	o := k.o.n
	if pn := k.o.pend; pn != nil {
		if pn.kind == ValueKind && pn.n == NoNode {
			pn.n = g.newNode(node{kind: ValueKind, label: pn.label})
		}
		o = pn.n
	}
	tr := Triple{S: s, P: pid, O: o}
	if !add {
		g.removeTriple(s, pid, o)
		p.result.RemovedTriples = append(p.result.RemovedTriples, tr)
		return
	}
	g.addTriple(s, pid, o)
	p.result.AddedTriples = append(p.result.AddedTriples, tr)
}
