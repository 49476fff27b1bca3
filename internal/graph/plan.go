package graph

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"graphkeys/internal/engine"
)

// This file is the planned write path, the only way a delta reaches the
// shards. A mutation does not walk the raw op list of a Delta against
// the store one op at a time under a global writer lock; it is first
// *planned* — validated, normalized and coalesced, resolved to node
// IDs — and the plan is then *executed* as per-shard micro-op lists
// against the shards it touches, concurrently with the execution of any
// other plan touching disjoint shards.
//
// # One path
//
// Every delta, accepted or rejected, durable or not, takes the same
// steps (ApplyDeltaLogged, commitPlanned):
//
//	plan -> admit + revalidate -> log hook -> reserve -> register flight
//	     -> release the plan mutex -> commit wait (if the hook returned
//	     one) -> lower -> unreserve -> execute -> retire flight
//
// Planning is OPTIMISTIC: validation, coalescing, and every presence/
// adjacency read-decision run with no lock held at all, against the
// live shards — each directory resolution and each shard read is
// recorded in a read footprint (name -> node, shard -> epoch; see
// footprint below). The plan mutex is then taken only to admit and
// revalidate: admission waits until no in-flight execution overlaps the
// plan's shard footprint and none of the names it resolved as absent
// has a pending reservation; revalidation re-checks the recorded
// resolutions and shard epochs. A hit means every read the plan was
// built from still holds — the plan is exactly what a plan made under
// the mutex would produce — so the short mutex hold shrinks to a
// handful of map lookups and epoch compares. A rejection is reported
// the same way: the error of a plan whose footprint revalidates was
// computed from reads that still hold, so it is the error a serial
// application would give. A miss discards the plan and replans.
//
// # Exclusive plans
//
// After maxReplans misses the SAME plan function runs exclusively: the
// delta takes the plan mutex, admits the full shard mask — admission is
// FIFO, so it cannot be starved, and no flight means no pending name
// either, since reservations are dropped before their flight retires —
// and plans while holding the mutex. Nothing is in flight, nothing can
// be admitted and the loaders below hold the same mutex, so no read can
// go stale: the plan is exact by construction, needs no revalidation,
// and joins the same commit tail. That bounds the work a writer on a
// hot shard can lose to chasing epochs; it is not a second planner.
//
// # Allocation: name-level reservation
//
// A delta that creates nodes reserves them under the plan mutex before
// releasing it: dead (invisible) slots appended in plan order, plus
// pending-name entries mapping the not-yet-lowered names to their
// reserved IDs. Two allocating writers therefore conflict only when
// they allocate (or resolved-as-absent read) the SAME name — not
// whenever both allocate anything — so allocating writers group-commit
// and execute concurrently. Reservation order is plan order is WAL log
// order, which is what keeps node IDs deterministic under replay; a
// reservation whose commit fails stays a dead hole no name resolves
// to (the name-level text format renders it invisibly).
//
// Lowering and execution take no global lock at all: the plan's shard
// footprint is registered as an in-flight mask, the plan mutex is
// released, and the micro-op lists apply under their own shard's write
// lock — fanned out via engine.Parallel when the plan spans several
// shards. Readers keep the shard-local contract they have always had;
// writers whose footprints are disjoint run fully concurrently; writers
// that overlap serialize through admission in plan order.
//
// # Why revalidated presence decisions are safe
//
// Admission excludes any concurrent execution over the plan's shards,
// the loaders (AddEntity, AddValue, AddTriple in graph.go) hold the
// plan mutex for their whole write, and every shard mutation bumps that
// shard's epoch under its write lock — so a revalidation pass proves
// the plan's reads never went stale, and they cannot go stale
// afterwards: the flight mask covers every shard the reads depended on
// until execution retires it. That is what lets the executor stay
// purely mechanical (no re-checks, no failure paths) and the normalized
// record stay exact: replaying it against the same pre-state reproduces
// the same post-state, byte for byte.

// DeltaLog receives the normalized (net-effect) op list of a planned
// delta before it is applied, while plan order is still held — records
// handed to consecutive calls are in exactly the order the deltas
// serialize in. Returning an error aborts the delta before any
// mutation: this is the write-ahead hook the WAL hangs off.
//
// The returned DeltaCommit, when non-nil, is the delta's durability
// wait: the write path calls it AFTER releasing the plan mutex and
// before any mutation, so concurrent planners overlap their fsyncs
// (the WAL's group commit — one fsync covers every record buffered
// while the leader flushed). If the commit errors the delta aborts
// with the graph untouched at name level (reserved slots stay dead
// holes). A nil commit means the hook already made the record durable
// (or does not need to): the wait is skipped, nothing else changes.
type DeltaLog func(norm []DeltaOp) (DeltaCommit, error)

// DeltaCommit blocks until the logged record is durable per the log's
// policy, reporting the flush error if it is not.
type DeltaCommit func() error

// maxReplans bounds how many times a delta replans after a failed
// revalidation before it plans exclusively, so a writer on a hot shard
// makes progress instead of chasing epochs.
const maxReplans = 3

// allShards is the admission mask of an exclusive plan.
const allShards = ^uint32(0)

// planner is the admission state of the write path: which shard
// footprints are currently executing, which planners are waiting, and
// which names are reserved by deltas that have not lowered yet.
type planner struct {
	mu   sync.Mutex
	cond *sync.Cond
	// flights maps an in-flight token to the shard mask its execution
	// may write; union is the OR of all of them.
	flights map[int64]uint32
	union   uint32
	nextTok int64
	// waitQ holds the tickets of planners blocked in admission, in
	// arrival order. Admission is strict FIFO among waiters: once a
	// planner has started waiting, later arrivals queue behind it even
	// when their own footprints are clear, so a wide-footprint delta
	// (e.g. removing a high-degree hub) cannot be starved by a
	// sustained stream of narrow ones.
	waitQ      []int64
	nextTicket int64

	// Pending-name tables: names whose nodes are reserved (IDs
	// assigned, slots dead) but not yet lowered into the directory. A
	// planner whose footprint resolved one of these names as absent
	// must wait — proceeding would either double-allocate the name or
	// commit a record planned against a state the log already
	// contradicts. Entries are removed (and cond broadcast) when the
	// owning delta lowers or aborts. Entity IDs and value literals are
	// separate namespaces, hence two tables.
	pendEnts map[string]NodeID
	pendVals map[string]NodeID
}

func (g *Graph) initPlanner() {
	g.pl.cond = sync.NewCond(&g.pl.mu)
	g.pl.flights = make(map[int64]uint32)
	g.pl.pendEnts = make(map[string]NodeID)
	g.pl.pendVals = make(map[string]NodeID)
}

func shardBit(i int) uint32 { return 1 << uint(i) }

// admit blocks, with pl.mu held, until maskFn's footprint is clear of
// every in-flight execution, free (when non-nil) reports no pending-
// name conflict, AND this planner is not behind an earlier waiter.
// maskFn and free are re-evaluated after every wake-up (name
// resolutions shift while waiting); the final mask is returned. Fast
// path: with no conflict and no waiters, admit never blocks.
func (g *Graph) admit(maskFn func() uint32, free func() bool) uint32 {
	queued := false
	var ticket int64
	for {
		mask := maskFn()
		if g.pl.union&mask == 0 && (free == nil || free()) &&
			(len(g.pl.waitQ) == 0 || (queued && g.pl.waitQ[0] == ticket)) {
			if queued {
				g.pl.waitQ = g.pl.waitQ[1:]
				// The next waiter may be admissible right now.
				g.pl.cond.Broadcast()
			}
			return mask
		}
		if !queued {
			ticket = g.pl.nextTicket
			g.pl.nextTicket++
			g.pl.waitQ = append(g.pl.waitQ, ticket)
			queued = true
		}
		g.pl.cond.Wait()
	}
}

// registerFlight marks mask as executing and returns its token.
// Caller holds pl.mu.
func (g *Graph) registerFlight(mask uint32) int64 {
	tok := g.pl.nextTok
	g.pl.nextTok++
	g.pl.flights[tok] = mask
	g.pl.union |= mask
	return tok
}

// completeFlight retires a flight and wakes waiting planners. It takes
// pl.mu itself; the caller must have released every shard lock first.
func (g *Graph) completeFlight(tok int64) {
	g.pl.mu.Lock()
	delete(g.pl.flights, tok)
	var u uint32
	for _, m := range g.pl.flights {
		u |= m
	}
	g.pl.union = u
	g.pl.cond.Broadcast()
	g.pl.mu.Unlock()
}

// footprint records every read an optimistic plan depended on, so the
// whole plan can be revalidated in O(reads) under the plan mutex:
//
//   - ents/vals pin the directory resolutions (NoNode = resolved as
//     absent). A name whose resolution changed — appeared, vanished, or
//     re-resolved to a different node — invalidates the plan.
//   - epochs pins the first-observed mutation epoch of every shard a
//     presence or adjacency read touched. Any mutation of that shard
//     since bumps the epoch and invalidates the plan.
//   - mask accumulates the shard bits of every resolved node plus the
//     neighborhoods of removed entities: the admission footprint.
//
// stale flips when two reads of the same shard observed different
// epochs mid-plan: the plan is internally inconsistent and is
// discarded without even attempting admission.
type footprint struct {
	ents   map[string]NodeID
	vals   map[string]NodeID
	epochs map[int]uint64
	mask   uint32
	stale  bool
}

func newFootprint() *footprint {
	return &footprint{
		ents:   make(map[string]NodeID),
		vals:   make(map[string]NodeID),
		epochs: make(map[int]uint64),
	}
}

// observe records a shard epoch, flagging the footprint stale if the
// shard was read before at a different epoch.
func (fp *footprint) observe(si int, e uint64) {
	if prev, ok := fp.epochs[si]; ok {
		if prev != e {
			fp.stale = true
		}
		return
	}
	fp.epochs[si] = e
}

// fpEnt resolves an external entity ID against the directory, recording
// the resolution (and the node's shard) in the footprint.
func (g *Graph) fpEnt(fp *footprint, id string) (NodeID, bool) {
	if n, ok := fp.ents[id]; ok {
		return n, n != NoNode
	}
	g.dir.mu.RLock()
	n, ok := g.dir.entByID[id]
	g.dir.mu.RUnlock()
	if !ok {
		n = NoNode
	} else {
		fp.mask |= shardBit(shardIndex(n))
	}
	fp.ents[id] = n
	return n, ok
}

// fpVal is fpEnt for value literals.
func (g *Graph) fpVal(fp *footprint, lit string) (NodeID, bool) {
	if n, ok := fp.vals[lit]; ok {
		return n, n != NoNode
	}
	g.dir.mu.RLock()
	n, ok := g.dir.valByLit[lit]
	g.dir.mu.RUnlock()
	if !ok {
		n = NoNode
	} else {
		fp.mask |= shardBit(shardIndex(n))
	}
	fp.vals[lit] = n
	return n, ok
}

// fpPresent reports whether the triple (s, pred, o) is in G, recording
// the subject shard's epoch. The epoch is read twice, around the
// predicate resolution (which lives in the directory's lock domain, not
// the shard's): if a writer interned the predicate and flipped the
// triple between the two reads, the epochs differ and the plan is
// flagged stale — without the double read, a presence probe on the
// predicate-missing branch could record a post-mutation epoch for a
// pre-mutation answer and revalidate a wrong plan.
func (g *Graph) fpPresent(fp *footprint, s NodeID, pred string, o NodeID) bool {
	sh := g.shardOf(s)
	sh.mu.RLock()
	e1 := sh.epoch.Load()
	sh.mu.RUnlock()
	pid, ok := g.PredByName(pred)
	var present bool
	sh.mu.RLock()
	e2 := sh.epoch.Load()
	if ok {
		_, present = sh.triples[tripleKey{s, pid, o}]
	}
	sh.mu.RUnlock()
	if e1 != e2 {
		fp.stale = true
	}
	fp.observe(shardIndex(s), e1)
	return present
}

// fpEdges reads n's adjacency (for RemoveEntity expansion), recording
// n's shard epoch and widening the footprint mask over the neighbors —
// the removal writes their shards too.
func (g *Graph) fpEdges(fp *footprint, n NodeID) (out, in []Edge) {
	sh := g.shardOf(n)
	l := localIndex(n)
	sh.mu.RLock()
	e := sh.epoch.Load()
	out, in = sh.out[l], sh.in[l]
	sh.mu.RUnlock()
	fp.observe(shardIndex(n), e)
	for _, ed := range out {
		fp.mask |= shardBit(shardIndex(ed.To))
	}
	for _, ed := range in {
		fp.mask |= shardBit(shardIndex(ed.To))
	}
	return out, in
}

// revalidate reports whether every read the footprint recorded still
// holds. Caller holds pl.mu with the footprint's mask admitted and its
// absent names free of pending reservations: a pass here means the
// optimistic plan is exactly what a plan made under the mutex would
// decide now, and nothing can invalidate it before its flight retires
// (the mask covers every shard the reads depended on, the loaders hold
// the plan mutex, and concurrent lowerings write only shards of their
// own disjoint flights).
func (g *Graph) revalidate(fp *footprint) bool {
	if fp.stale {
		return false
	}
	g.dir.mu.RLock()
	ok := true
	for id, n := range fp.ents {
		cur, found := g.dir.entByID[id]
		if !found {
			cur = NoNode
		}
		if cur != n {
			ok = false
			break
		}
	}
	if ok {
		for lit, n := range fp.vals {
			cur, found := g.dir.valByLit[lit]
			if !found {
				cur = NoNode
			}
			if cur != n {
				ok = false
				break
			}
		}
	}
	g.dir.mu.RUnlock()
	if !ok {
		return false
	}
	for si, e := range fp.epochs {
		if g.shards[si].epoch.Load() != e {
			return false
		}
	}
	return true
}

// namesFree reports whether none of the names the footprint resolved
// as absent carries a pending reservation. Caller holds pl.mu.
func (g *Graph) namesFree(fp *footprint) bool {
	for id, n := range fp.ents {
		if n == NoNode {
			if _, pend := g.pl.pendEnts[id]; pend {
				return false
			}
		}
	}
	for lit, n := range fp.vals {
		if n == NoNode {
			if _, pend := g.pl.pendVals[lit]; pend {
				return false
			}
		}
	}
	return true
}

// planRef names a node during planning: a concrete NodeID for nodes
// that exist, or a pending allocation for nodes the delta creates.
// Distinct incarnations of the same external ID (remove + re-add in one
// delta) get distinct refs, so triple keys never conflate them.
type planRef struct {
	n    NodeID
	pend *pendNode
}

// pendNode is a node the delta will create if its incarnation survives
// coalescing. n is assigned at reservation; published flips when the
// directory entry for a value node lands.
type pendNode struct {
	kind      Kind
	label     string
	typeName  string
	typ       TypeID // interned at reservation
	live      bool
	published bool
	n         NodeID
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

// shardOp is one mechanical mutation of one shard, produced by
// lowering a planned delta. Executors apply these under the shard lock
// with no decisions left to make.
type shardOp struct {
	kind uint8
	n    NodeID // local node the op touches (subject, object, or tombstone)
	e    Edge
	pk   postKey
}

const (
	sAddKey uint8 = iota // triples[{n, e.Pred, e.To}] insert (n is the subject)
	sDelKey
	sOutAdd // out[n] append e
	sOutDel
	sInAdd // in[n] append e
	sInDel
	sPostAdd // posting pk gains n (sorted insert)
	sPostDel
	sDead // tombstone n
)

// planned is a delta on its way to the shards: the normalized record
// and the emission list from planning, then (after lowerPlanned)
// everything the executor needs, and nothing it has to think about.
type planned struct {
	perShard  map[int][]shardOp
	norm      []DeltaOp
	emit      []emitItem
	result    DeltaResult
	tripDelta int64
	// nAlloc is how many nodes the plan allocates (see allocCount).
	nAlloc int
	// pids memoizes predicate name -> interned ID across the plan's
	// lowering, so a high-degree RemoveEntity resolves each distinct
	// predicate once instead of once per incident triple.
	pids map[string]PredID
}

// add appends one micro-op to shard si's list.
func (p *planned) add(si int, op shardOp) {
	p.perShard[si] = append(p.perShard[si], op)
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
// reports (a delta whose ops cancel out reports Empty). ApplyDelta is
// safe for concurrent use: deltas whose shard footprints are disjoint
// apply concurrently, overlapping ones serialize in plan order.
func (g *Graph) ApplyDelta(d *Delta) (*DeltaResult, error) {
	return g.ApplyDeltaLogged(d, nil)
}

// ApplyDeltaLogged is ApplyDelta with a write-ahead hook: log (when
// non-nil) receives the normalized op list after validation and
// coalescing but before any mutation, in plan order. If log (or the
// durability commit it returns) errors, the delta is aborted; a commit
// failure can leave reserved dead slots behind (holes in the dense ID
// space no name resolves to), but never a name, a triple, or any state
// a reader or a replay can observe. Deltas that coalesce to a no-op
// are not logged.
//
// The delta is planned optimistically (no lock) and the plan — or its
// rejection — admitted by footprint revalidation; after maxReplans
// misses it is planned exclusively instead. See the file comment. The
// durability wait runs with the plan mutex RELEASED: the plan's nodes
// are reserved and its exact shard footprint registered as in-flight
// first, so disjoint planners — including other allocating ones — keep
// planning and buffering their own records meanwhile, and one group
// fsync covers them all.
func (g *Graph) ApplyDeltaLogged(d *Delta, log DeltaLog) (*DeltaResult, error) {
	ob := g.ob.Load()
	for attempt := 0; attempt <= maxReplans; attempt++ {
		fp := newFootprint()
		tPlan := ob.planNanos().Start()
		p, perr := g.planDelta(d, fp)
		ob.planNanos().ObserveSince(tPlan)
		if fp.stale {
			// Torn reads: the plan, or its rejection, may be an artifact.
			ob.planRetries().Inc()
			continue
		}
		namesWaited := false
		tAdmit := ob.admissionWait().Start()
		g.pl.mu.Lock()
		// Re-evaluated per wake-up: the allocation base shifts as other
		// planners reserve.
		mask := g.admit(func() uint32 { return g.flightMask(fp, p) }, func() bool {
			if g.namesFree(fp) {
				return true
			}
			namesWaited = true
			return false
		})
		ob.admissionWait().ObserveSince(tAdmit)
		if namesWaited {
			ob.pendingNameWaits().Inc()
		}
		if !g.revalidate(fp) {
			g.pl.mu.Unlock()
			ob.planRetries().Inc()
			continue
		}
		if perr != nil {
			// The reads the rejection was computed from still hold (a
			// concurrent delta did not create the entity this one
			// failed to find), so it is the serial answer.
			g.pl.mu.Unlock()
			return nil, perr
		}
		ob.optimisticPlans().Inc()
		return g.commitPlanned(p, mask, log, ob, ob.planHold().Start())
	}
	return g.applyExclusive(d, log, ob)
}

// applyExclusive is the write path of a delta that exhausted its
// replans: the same plan, made while nothing is in flight and nothing
// can be admitted, so every read is stable and the footprint serves
// only as the plan's shard mask.
func (g *Graph) applyExclusive(d *Delta, log DeltaLog, ob *Obs) (*DeltaResult, error) {
	fp := newFootprint()
	tAdmit := ob.admissionWait().Start()
	g.pl.mu.Lock()
	g.admit(func() uint32 { return allShards }, nil)
	ob.admissionWait().ObserveSince(tAdmit)
	tHold := ob.planHold().Start()
	tPlan := ob.planNanos().Start()
	p, perr := g.planDelta(d, fp)
	ob.planNanos().ObserveSince(tPlan)
	if perr != nil {
		g.pl.mu.Unlock()
		return nil, perr
	}
	ob.planFallbacks().Inc()
	return g.commitPlanned(p, g.flightMask(fp, p), log, ob, tHold)
}

// flightMask is every shard the plan can write: the shards its
// footprint touched plus the exact shards of the nodes it will reserve
// — [nNodes, nNodes+nAlloc) is exact under pl.mu, which the caller
// holds, because reservation is serialized by it. A rejected plan
// (p == nil) reserves nothing.
func (g *Graph) flightMask(fp *footprint, p *planned) uint32 {
	m := fp.mask
	if p != nil {
		base := int(g.nNodes.Load())
		for i := 0; i < min(p.nAlloc, ShardCount); i++ {
			m |= shardBit(shardIndex(NodeID(base + i)))
		}
	}
	return m
}

// commitPlanned is the one commit tail, from the log hook to
// completion: reserve the plan's nodes and names, register the flight,
// release the plan mutex (which the CALLER locked, with mask admitted
// and the plan exact), overlap the durability wait — if the hook
// returned one — with other planners, then lower and execute. mask
// must cover every shard the plan can touch, including the reserved
// slots'.
func (g *Graph) commitPlanned(p *planned, mask uint32, log DeltaLog, ob *Obs, tHold time.Time) (*DeltaResult, error) {
	if len(p.norm) == 0 {
		g.pl.mu.Unlock()
		ob.noopDeltas().Inc()
		return &p.result, nil
	}
	var commit DeltaCommit
	if log != nil {
		c, err := log(p.norm)
		if err != nil {
			g.pl.mu.Unlock()
			return nil, fmt.Errorf("graph: delta log: %w", err)
		}
		commit = c
	}
	g.reservePlanned(p)
	tok := g.registerFlight(mask)
	g.pl.mu.Unlock()
	ob.planHold().ObserveSince(tHold)

	if commit != nil {
		tCommit := ob.commitNanos().Start()
		cerr := commit()
		ob.commitNanos().ObserveSince(tCommit)
		if cerr != nil {
			// The reserved slots stay dead holes (no name resolves to
			// them; see reserveNode). Release the names so blocked
			// allocators of the same names proceed.
			g.pl.mu.Lock()
			g.unreservePlanned(p)
			g.pl.mu.Unlock()
			g.completeFlight(tok)
			return nil, fmt.Errorf("graph: delta log: %w", cerr)
		}
	}
	tLower := ob.lowerNanos().Start()
	g.lowerPlanned(p)
	ob.lowerNanos().ObserveSince(tLower)
	// Only now — with the directory entries published — may the
	// pending-name entries go: a waiter that wakes re-resolves the
	// name and finds it.
	g.pl.mu.Lock()
	g.unreservePlanned(p)
	g.pl.mu.Unlock()
	g.executePlanned(p)
	g.completeFlight(tok)
	ob.deltas().Inc()
	return &p.result, nil
}

// reservePlanned reserves the plan's allocations: dead node slots
// appended in normalized-record order (entity creations at their
// eAlloc, value literals at the first surviving triple that references
// them), plus the pending-name entries that keep other planners off
// the names until lowering publishes them. Caller holds pl.mu;
// reservation order is plan order is log order.
func (g *Graph) reservePlanned(p *planned) {
	for _, it := range p.emit {
		switch it.kind {
		case eAlloc:
			it.pend.typ = g.internType(it.pend.typeName)
			it.pend.n = g.reserveNode(node{kind: EntityKind, typ: it.pend.typ, label: it.pend.label})
			g.pl.pendEnts[it.pend.label] = it.pend.n
		case eAddTriple:
			if pn := it.key.o.pend; pn != nil && pn.kind == ValueKind && pn.n == NoNode {
				pn.n = g.reserveNode(node{kind: ValueKind, label: pn.label})
				g.pl.pendVals[pn.label] = pn.n
			}
		}
	}
}

// unreservePlanned drops the plan's pending-name entries and wakes
// planners blocked on them. Caller holds pl.mu. Each name has exactly
// one owner (namesFree admits no second reservation), so the deletes
// cannot clobber another delta's entries.
func (g *Graph) unreservePlanned(p *planned) {
	for _, it := range p.emit {
		switch it.kind {
		case eAlloc:
			delete(g.pl.pendEnts, it.pend.label)
		case eAddTriple:
			if pn := it.key.o.pend; pn != nil && pn.kind == ValueKind && pn.n != NoNode {
				delete(g.pl.pendVals, pn.label)
			}
		}
	}
	g.pl.cond.Broadcast()
}

// allocCount reports exactly how many nodes lowering this plan will
// allocate: one per surviving entity creation, one per distinct new
// value literal a surviving triple addition interns. The admission
// mask covers exactly that many tentative slots.
func (p *planned) allocCount() int {
	n := 0
	var seen map[*pendNode]bool
	for _, it := range p.emit {
		switch it.kind {
		case eAlloc:
			n++
		case eAddTriple:
			if pn := it.key.o.pend; pn != nil && pn.kind == ValueKind {
				if seen == nil {
					seen = make(map[*pendNode]bool)
				}
				if !seen[pn] {
					seen[pn] = true
					n++
				}
			}
		}
	}
	return n
}

// planDelta validates the delta and coalesces it into its net effect
// in one walk, simulating the entity-level state (creations and
// removals) op by op — so a triple may reference an entity added
// earlier in the delta and may not reference one removed earlier.
// Every read goes through fp, so an acceptance or a rejection computed
// here with no lock held can be revalidated under the plan mutex.
// Nothing is mutated: interning predicates and allocating nodes are
// deferred to reservation and lowering, which is what makes atomicity
// possible.
func (g *Graph) planDelta(d *Delta, fp *footprint) (*planned, error) {
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
		n, ok := g.fpEnt(fp, id)
		st := entState{ref: planRef{n: NoNode}}
		if ok {
			st = entState{ref: planRef{n: n}, live: true}
		}
		ents[id] = st
		return st
	}
	valOf := func(lit string, create bool) (planRef, bool) {
		if r, ok := vals[lit]; ok {
			return r, true
		}
		v, ok := g.fpVal(fp, lit)
		if ok {
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
		return g.fpPresent(fp, k.s.n, k.pred, k.o.n)
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
	predNames := make(map[PredID]string)
	pname := func(p PredID) string {
		if name, ok := predNames[p]; ok {
			return name
		}
		name := g.PredName(p)
		predNames[p] = name
		return name
	}

	created := make(map[int]*pendNode) // AddEntity op index -> incarnation it created
	removedAt := make(map[int]NodeID)  // RemoveEntity op index -> existing node removed
	ownedRems := make(map[int][]tKey)  // RemoveEntity op index -> expansion removals, adjacency order
	opKey := make(map[int]tKey)        // triple op index -> resolved key
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
				// a no-op if the type agrees. The graph-side check needs
				// no epoch: a node's type is immutable for its lifetime,
				// and the footprint pins which node the ID resolved to.
				var have string
				if st.ref.pend != nil {
					have = st.ref.pend.typeName
				} else {
					have = g.TypeName(g.nodeView(st.ref.n).typ)
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
			created[i] = p
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
			removedAt[i] = n
			// Expand over the pre-delta incident triples (out then in;
			// a self-loop dedups through the state map)…
			out, in := g.fpEdges(fp, n)
			for _, e := range out {
				k := tKey{s: planRef{n: n}, pred: pname(e.Pred), o: planRef{n: e.To}}
				if ts := stateOf(k); ts.current {
					ts.current = false
					ts.removerOp = -1
					ownedRems[i] = append(ownedRems[i], k)
				}
			}
			for _, e := range in {
				k := tKey{s: planRef{n: e.To}, pred: pname(e.Pred), o: planRef{n: n}}
				if ts := stateOf(k); ts.current {
					ts.current = false
					ts.removerOp = -1
					ownedRems[i] = append(ownedRems[i], k)
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
			opKey[i] = k
			if ts := stateOf(k); ts.current != add {
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
	p := &planned{perShard: make(map[int][]shardOp), pids: make(map[string]PredID)}
	for i, op := range d.ops {
		switch op.Kind {
		case OpAddEntity:
			if pn := created[i]; pn != nil && pn.live {
				p.norm = append(p.norm, op)
				p.emit = append(p.emit, emitItem{kind: eAlloc, pend: pn})
			}
		case OpRemoveEntity:
			if n, ok := removedAt[i]; ok {
				p.norm = append(p.norm, op)
				p.emit = append(p.emit, emitItem{kind: eTombstone, n: n, keys: ownedRems[i]})
			}
		case OpAddTriple:
			k, ok := opKey[i]
			if !ok {
				continue
			}
			if ts := trips[k]; !ts.initial && ts.current && ts.adderOp == i {
				p.norm = append(p.norm, op)
				p.emit = append(p.emit, emitItem{kind: eAddTriple, key: k})
			}
		case OpRemoveTriple:
			k, ok := opKey[i]
			if !ok {
				continue
			}
			if ts := trips[k]; ts.initial && !ts.current && ts.removerOp == i {
				p.norm = append(p.norm, op)
				p.emit = append(p.emit, emitItem{kind: eRemTriple, key: k})
			}
		}
	}
	p.nAlloc = p.allocCount()
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

// lowerPlanned makes the plan's surviving nodes real — flips live the
// slots reservePlanned put down and publishes their directory entries
// — interns its predicate names, and lowers the emission list into
// per-shard micro-ops and the DeltaResult. It runs with NO plan mutex,
// concurrently with other lowerings: its IDs are fixed and its shards
// flight-covered, and the directory lock serializes the publications
// themselves.
func (g *Graph) lowerPlanned(p *planned) {
	for _, it := range p.emit {
		switch it.kind {
		case eAlloc:
			g.flipNode(it.pend.n)
			g.dir.mu.Lock()
			g.dir.entByID[it.pend.label] = it.pend.n
			g.dir.byTypeInsert(it.pend.typ, it.pend.n)
			g.dir.mu.Unlock()
			p.result.AddedEntities = append(p.result.AddedEntities, it.pend.n)
		case eTombstone:
			for _, k := range it.keys {
				g.lowerTriple(p, k, false)
			}
			// The directory is plan-authoritative in both directions:
			// entries appear at eAlloc lowering and disappear here, so a
			// remove + re-add of the same external ID in one delta
			// leaves the re-added incarnation's entry in place.
			typ, _ := g.EntityType(it.n)
			p.add(shardIndex(it.n), shardOp{kind: sDead, n: it.n})
			g.dir.mu.Lock()
			delete(g.dir.entByID, g.Label(it.n))
			if int(typ) < len(g.dir.byType) {
				g.dir.byType[typ] = removeOne(g.dir.byType[typ], it.n)
			}
			g.dir.mu.Unlock()
			p.result.RemovedEntities = append(p.result.RemovedEntities, it.n)
		case eAddTriple:
			g.lowerTriple(p, it.key, true)
		case eRemTriple:
			g.lowerTriple(p, it.key, false)
		}
	}
	p.tripDelta = int64(len(p.result.AddedTriples) - len(p.result.RemovedTriples))
}

// lowerTriple lowers one net triple add or removal into micro-ops on
// the subject's and object's shards.
func (g *Graph) lowerTriple(p *planned, k tKey, add bool) {
	s := k.s.n
	if k.s.pend != nil {
		s = k.s.pend.n
	}
	pid, cached := p.pids[k.pred]
	if !cached {
		if add {
			pid = g.internPred(k.pred)
		} else {
			pid, _ = g.PredByName(k.pred)
		}
		p.pids[k.pred] = pid
	}
	var o NodeID
	oIsValue := false
	if pn := k.o.pend; pn != nil {
		if pn.kind == ValueKind && !pn.published {
			g.flipNode(pn.n)
			g.dir.mu.Lock()
			g.dir.valByLit[pn.label] = pn.n
			g.dir.mu.Unlock()
			pn.published = true
		}
		o = pn.n
		oIsValue = pn.kind == ValueKind
	} else {
		o = k.o.n
		oIsValue = g.IsValue(o)
	}
	ssi, osi := shardIndex(s), shardIndex(o)
	tr := Triple{S: s, P: pid, O: o}
	if add {
		p.add(ssi, shardOp{kind: sAddKey, n: s, e: Edge{Pred: pid, To: o}})
		p.add(ssi, shardOp{kind: sOutAdd, n: s, e: Edge{Pred: pid, To: o}})
		p.add(osi, shardOp{kind: sInAdd, n: o, e: Edge{Pred: pid, To: s}})
		if oIsValue {
			p.add(osi, shardOp{kind: sPostAdd, n: s, pk: postKey{p: pid, v: o}})
		}
		p.result.AddedTriples = append(p.result.AddedTriples, tr)
	} else {
		p.add(ssi, shardOp{kind: sDelKey, n: s, e: Edge{Pred: pid, To: o}})
		p.add(ssi, shardOp{kind: sOutDel, n: s, e: Edge{Pred: pid, To: o}})
		p.add(osi, shardOp{kind: sInDel, n: o, e: Edge{Pred: pid, To: s}})
		if oIsValue {
			p.add(osi, shardOp{kind: sPostDel, n: s, pk: postKey{p: pid, v: o}})
		}
		p.result.RemovedTriples = append(p.result.RemovedTriples, tr)
	}
}

// executePlanned applies a lowered plan: per-shard micro-op lists in
// parallel (each shard's list under that shard's write lock, so
// readers observe the shard's whole sub-delta atomically), then the
// triple-count adjustment. Directory changes already happened at
// lowering (the directory is plan-authoritative).
func (g *Graph) executePlanned(p *planned) {
	shards := make([]int, 0, len(p.perShard))
	for si := range p.perShard {
		shards = append(shards, si)
	}
	// Disjoint shards make the final state order-independent, but a
	// deterministic application order keeps traces and lock-wait
	// profiles reproducible run to run.
	sort.Ints(shards)
	engine.Parallel(g.ob.Load().eng(), engine.Workers(0), len(shards), func(i int) {
		g.applyShardOps(shards[i], p.perShard[shards[i]])
	})
	g.nTrip.Add(p.tripDelta)
}

// applyShardOps runs one shard's micro-ops under its write lock. Every
// slice mutation keeps the handed-out-snapshot contract: removals copy
// (removeOne / postRemove), insertions append or copy (postInsert).
// The shard's epoch is bumped in the same critical section, so any
// optimistic footprint that read this shard before the mutation fails
// its revalidation.
func (g *Graph) applyShardOps(si int, ops []shardOp) {
	sh := &g.shards[si]
	ob := g.ob.Load()
	tLock := ob.shardLockWait().Start()
	sh.mu.Lock()
	ob.shardLockWait().ObserveSince(tLock)
	ob.shardMutations().At(si).Add(int64(len(ops)))
	defer sh.mu.Unlock()
	sh.epoch.Add(1)
	for _, op := range ops {
		switch op.kind {
		case sAddKey:
			sh.triples[tripleKey{op.n, op.e.Pred, op.e.To}] = struct{}{}
		case sDelKey:
			delete(sh.triples, tripleKey{op.n, op.e.Pred, op.e.To})
		case sOutAdd:
			sh.out[localIndex(op.n)] = append(sh.out[localIndex(op.n)], op.e)
		case sOutDel:
			sh.out[localIndex(op.n)] = removeOne(sh.out[localIndex(op.n)], op.e)
		case sInAdd:
			sh.in[localIndex(op.n)] = append(sh.in[localIndex(op.n)], op.e)
		case sInDel:
			sh.in[localIndex(op.n)] = removeOne(sh.in[localIndex(op.n)], op.e)
		case sPostAdd:
			postInsert(sh, op.pk.p, op.pk.v, op.n)
			ob.postingLen().Observe(int64(len(sh.post[op.pk])))
		case sPostDel:
			postRemove(sh, op.pk.p, op.pk.v, op.n)
		case sDead:
			sh.nodes[localIndex(op.n)].dead = true
		}
	}
}
