// Package graph implements the triple-based graph model of "Keys for
// Graphs" (Fan et al., PVLDB 2015), Section 2.1.
//
// A graph is a set of triples (s, p, o) where the subject s is an entity,
// p is a predicate, and the object o is either an entity or a data value.
// Entities carry a type; values are opaque literals. The graph is also a
// directed edge-labeled graph: entities and values are nodes, and each
// triple contributes an edge from s to o labeled p.
//
// Graphs are loaded with AddEntity/AddValue/AddTriple and mutated
// afterwards with ApplyDelta (see delta.go). The store is
// shard-partitioned by node ID (see shard.go) and every mutation of a
// loaded graph goes through the one planned write path (see plan.go):
// a delta is planned with no lock held — validated, coalesced to its
// net effect — admitted under a short planning lock, and then executed
// against only the shards it touches. Writers whose shard footprints
// are disjoint execute concurrently; overlapping writers serialize in
// plan order. The three adders are the loader, not a second write
// path: they append under the planning lock with none of a delta's
// planning, logging or result reporting, which is what lets ParseText
// and the generators build a graph at about a microsecond a triple
// against several for a one-op delta; nothing removes except a delta.
// Readers only lock the shard they touch, so any number of
// readers may run concurrently with the writers — a reader blocks only
// while a writer is writing the very shard it reads. Slices handed out
// by accessors (Out, In, EntitiesOfType, ValueSubjects) are never
// mutated in place, so they remain valid snapshots across later
// mutations.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node (entity or value) within one Graph. IDs are
// dense indexes assigned in insertion order, so they can be used to index
// per-node slices.
type NodeID int32

// PredID identifies an interned predicate name within one Graph.
type PredID int32

// TypeID identifies an interned entity type name within one Graph.
type TypeID int32

// NoNode is returned by lookups that find nothing.
const NoNode NodeID = -1

// Kind distinguishes entity nodes from value nodes.
type Kind uint8

const (
	// EntityKind marks a node that represents an entity with an ID and a type.
	EntityKind Kind = iota
	// ValueKind marks a node that represents a data value.
	ValueKind
)

// Edge is one half of a stored triple: the predicate plus the node at the
// other end. Out-edges of s store (p, o); in-edges of o store (p, s).
type Edge struct {
	Pred PredID
	To   NodeID
}

type node struct {
	kind  Kind
	typ   TypeID // entities only; 0 is a valid TypeID, guarded by kind
	label string // external entity ID, or the value literal
	// dead marks a tombstoned entity (see Delta.RemoveEntity): the slot
	// keeps its dense ID and label, but the node is no longer an entity
	// — it has no type, no edges, and no directory entry.
	dead bool
}

type tripleKey struct {
	s NodeID
	p PredID
	o NodeID
}

// Triple is one stored triple (s, p, o), exported for provenance
// tracking and delta reporting. It is comparable and usable as a map
// key.
type Triple struct {
	S NodeID
	P PredID
	O NodeID
}

// directory holds the name maps shared by all shards. Its mutex
// follows the same discipline as a shard's: the (serialized) writer
// locks it for writing around each update; readers take the read lock.
type directory struct {
	mu       sync.RWMutex
	preds    *Interner
	types    *Interner
	entByID  map[string]NodeID // external entity ID -> node
	valByLit map[string]NodeID // value literal -> node
	byType   [][]NodeID        // TypeID -> entity nodes of that type
}

// byTypeInsert records entity n under type t, keeping each per-type
// list sorted by NodeID. Caller holds dir.mu for writing. Group-commit
// lowerings can publish entities out of dense-ID order (their commits
// finish out of order), and EntitiesOfType's iteration order feeds
// deterministic derivations — sorted insertion makes the list
// independent of lowering order, identical to a serial replay. The
// append fast path keeps the common in-order case O(1); the insert
// path copies, preserving the handed-out-snapshot contract.
func (d *directory) byTypeInsert(t TypeID, n NodeID) {
	for int(t) >= len(d.byType) {
		d.byType = append(d.byType, nil)
	}
	ns := d.byType[t]
	if len(ns) == 0 || ns[len(ns)-1] < n {
		d.byType[t] = append(ns, n)
		return
	}
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= n })
	out := make([]NodeID, 0, len(ns)+1)
	out = append(out, ns[:i]...)
	out = append(out, n)
	d.byType[t] = append(out, ns[i:]...)
}

// Graph is an in-memory triple store, shard-partitioned by node ID for
// concurrent access (see shard.go). The zero value is not usable; call
// New.
type Graph struct {
	// pl is the write-path planner: deltas are serialized by its mutex
	// (short: admission, revalidation, reservation), executions are
	// admission-controlled by shard footprint so disjoint writers run
	// concurrently. Readers never touch it. See plan.go.
	pl planner

	shards [ShardCount]shard
	dir    directory

	nNodes atomic.Int32
	nTrip  atomic.Int64

	// ob is the optional instrument bundle (see obs.go). Loaded once
	// per delta / shard execution; nil means uninstrumented.
	ob atomic.Pointer[Obs]
}

// New returns an empty graph.
func New() *Graph {
	g := &Graph{}
	g.initPlanner()
	g.dir.preds = NewInterner()
	g.dir.types = NewInterner()
	g.dir.entByID = make(map[string]NodeID)
	g.dir.valByLit = make(map[string]NodeID)
	for i := range g.shards {
		//emlint:ignore lockcontract constructor: the graph has not escaped, no reader or writer exists yet
		g.shards[i].triples = make(map[tripleKey]struct{})
		g.shards[i].post = make(map[postKey][]NodeID)
	}
	return g
}

// NumNodes reports the number of nodes (entities plus values),
// including tombstoned entities, which keep their dense IDs.
func (g *Graph) NumNodes() int { return int(g.nNodes.Load()) }

// NumTriples reports |G|, the number of triples.
func (g *Graph) NumTriples() int { return int(g.nTrip.Load()) }

// NumEntities reports the number of live entity nodes.
func (g *Graph) NumEntities() int {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	n := 0
	for _, ns := range g.dir.byType {
		n += len(ns)
	}
	return n
}

// AddEntity returns the node for the entity with the given external ID,
// creating it with the given type if it does not exist. Adding the same
// ID twice with different types is an error.
func (g *Graph) AddEntity(id, typeName string) (NodeID, error) {
	g.pl.mu.Lock()
	defer g.pl.mu.Unlock()
	var n NodeID
	var exists bool
	// If the entity exists, an in-flight execution over its shard may
	// be removing it: admit the shard before trusting the lookup (the
	// lookup re-runs after every wait). If the ID is pending — reserved
	// by a delta that has not lowered yet — wait for it to resolve one
	// way or the other rather than double-allocate it.
	g.admit(func() uint32 {
		g.dir.mu.RLock()
		n, exists = g.dir.entByID[id]
		g.dir.mu.RUnlock()
		if exists {
			return shardBit(shardIndex(n))
		}
		return 0
	}, func() bool {
		_, pend := g.pl.pendEnts[id]
		return !pend
	})
	if exists {
		nd := g.nodeView(n)
		if have := g.TypeName(nd.typ); have != typeName {
			return NoNode, fmt.Errorf("graph: entity %q redeclared with type %q (was %q)",
				id, typeName, have)
		}
		return n, nil
	}
	t := g.internType(typeName)
	n = g.allocNode(node{kind: EntityKind, typ: t, label: id})
	g.dir.mu.Lock()
	g.dir.entByID[id] = n
	g.dir.byTypeInsert(t, n)
	g.dir.mu.Unlock()
	return n, nil
}

// MustAddEntity is AddEntity for programmatic construction where the
// caller guarantees type consistency; it panics on error.
func (g *Graph) MustAddEntity(id, typeName string) NodeID {
	n, err := g.AddEntity(id, typeName)
	if err != nil {
		panic(err)
	}
	return n
}

// AddValue returns the node for the given value literal, creating it if
// needed. Equal literals share one node (value equality, §2.1).
//
// Values are never removed, so an existing literal needs no admission;
// a new one only touches its fresh slot, which no in-flight execution
// can reference — unless the literal is pending (reserved by a delta
// that has not lowered yet), in which case wait for the reservation to
// resolve rather than double-allocate it.
func (g *Graph) AddValue(lit string) NodeID {
	g.pl.mu.Lock()
	defer g.pl.mu.Unlock()
	for {
		g.dir.mu.RLock()
		n, ok := g.dir.valByLit[lit]
		g.dir.mu.RUnlock()
		if ok {
			return n
		}
		if _, pend := g.pl.pendVals[lit]; !pend {
			break
		}
		g.pl.cond.Wait()
	}
	n := g.allocNode(node{kind: ValueKind, label: lit})
	g.dir.mu.Lock()
	g.dir.valByLit[lit] = n
	g.dir.mu.Unlock()
	return n
}

// AddTriple records the triple (s, p, o). The subject must be an entity
// node. Duplicate triples are ignored.
func (g *Graph) AddTriple(s NodeID, pred string, o NodeID) error {
	g.pl.mu.Lock()
	defer g.pl.mu.Unlock()
	// Admit both endpoint shards (node IDs are stable, so the mask
	// cannot shift while waiting): no in-flight execution touches them
	// below.
	mask := shardBit(shardIndex(s)) | shardBit(shardIndex(o))
	g.admit(func() uint32 { return mask }, nil)
	if !g.valid(s) || !g.valid(o) {
		return fmt.Errorf("graph: AddTriple with unknown node (s=%d, o=%d)", s, o)
	}
	ssh, osh := g.shardOf(s), g.shardOf(o)
	snd := ssh.nodes[localIndex(s)]
	if snd.kind != EntityKind || snd.dead {
		return fmt.Errorf("graph: triple subject %q is not a live entity", snd.label)
	}
	p := g.internPred(pred)
	k := tripleKey{s, p, o}
	if _, dup := ssh.triples[k]; dup {
		return nil
	}
	okind := osh.nodes[localIndex(o)].kind
	ssh.mu.Lock()
	ssh.epoch.Add(1)
	ssh.triples[k] = struct{}{}
	ssh.out[localIndex(s)] = append(ssh.out[localIndex(s)], Edge{Pred: p, To: o})
	ssh.mu.Unlock()
	osh.mu.Lock()
	osh.epoch.Add(1)
	osh.in[localIndex(o)] = append(osh.in[localIndex(o)], Edge{Pred: p, To: s})
	if okind == ValueKind {
		postInsert(osh, p, o, s)
	}
	osh.mu.Unlock()
	g.nTrip.Add(1)
	return nil
}

// removeOne returns the slice without the first occurrence of x,
// preserving the order of the remaining elements (so removal does not
// perturb deterministic iteration order elsewhere). It copies instead
// of compacting in place: graph-owned slices previously handed out by
// Out/In/ValueSubjects keep their pre-removal contents, so a caller
// iterating one across a removal never sees shifted or duplicated
// elements.
func removeOne[T comparable](xs []T, x T) []T {
	for i, cur := range xs {
		if cur == x {
			out := make([]T, 0, len(xs)-1)
			out = append(out, xs[:i]...)
			return append(out, xs[i+1:]...)
		}
	}
	return xs
}

// MustAddTriple is AddTriple that panics on error.
func (g *Graph) MustAddTriple(s NodeID, pred string, o NodeID) {
	if err := g.AddTriple(s, pred, o); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < int(g.nNodes.Load()) }

// IsEntity reports whether n is a live entity node.
func (g *Graph) IsEntity(n NodeID) bool {
	if !g.valid(n) {
		return false
	}
	nd := g.nodeView(n)
	return nd.kind == EntityKind && !nd.dead
}

// IsValue reports whether n is a value node.
func (g *Graph) IsValue(n NodeID) bool {
	return g.valid(n) && g.nodeView(n).kind == ValueKind
}

// EntityType returns the type of n if n is a live entity, in one
// shard-lock round trip — the hot-path combination of IsEntity and
// TypeOf (neighborhood scans classify every node they visit).
func (g *Graph) EntityType(n NodeID) (TypeID, bool) {
	if !g.valid(n) {
		return 0, false
	}
	nd := g.nodeView(n)
	if nd.kind != EntityKind || nd.dead {
		return 0, false
	}
	return nd.typ, true
}

// IsEntityOfType reports whether n is a live entity of type t, in one
// shard read.
func (g *Graph) IsEntityOfType(n NodeID, t TypeID) bool {
	nt, ok := g.EntityType(n)
	return ok && nt == t
}

// TypeOf returns the type of entity n. It panics if n is not a live
// entity.
func (g *Graph) TypeOf(n NodeID) TypeID {
	if !g.valid(n) {
		panic(fmt.Sprintf("graph: TypeOf(%d) on non-entity", n))
	}
	nd := g.nodeView(n)
	if nd.kind != EntityKind || nd.dead {
		panic(fmt.Sprintf("graph: TypeOf(%d) on non-entity", n))
	}
	return nd.typ
}

// Label returns the external entity ID of an entity node, or the literal
// of a value node. Tombstoned entities keep their label.
func (g *Graph) Label(n NodeID) string { return g.nodeView(n).label }

// TypeName returns the name of the given type.
func (g *Graph) TypeName(t TypeID) string {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	return g.dir.types.Name(int32(t))
}

// TypeByName returns the TypeID for a type name, if any entity of that
// type exists.
func (g *Graph) TypeByName(name string) (TypeID, bool) {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	id, ok := g.dir.types.Lookup(name)
	return TypeID(id), ok
}

// NumTypes reports the number of distinct entity types.
func (g *Graph) NumTypes() int {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	return g.dir.types.Len()
}

// PredName returns the name of the given predicate.
func (g *Graph) PredName(p PredID) string {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	return g.dir.preds.Name(int32(p))
}

// PredByName returns the PredID for a predicate name, if it occurs in G.
func (g *Graph) PredByName(name string) (PredID, bool) {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	id, ok := g.dir.preds.Lookup(name)
	return PredID(id), ok
}

// NumPreds reports the number of distinct predicates.
func (g *Graph) NumPreds() int {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	return g.dir.preds.Len()
}

// Entity returns the node for the entity with the given external ID.
func (g *Graph) Entity(id string) (NodeID, bool) {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	n, ok := g.dir.entByID[id]
	return n, ok
}

// Value returns the node for the given literal, if present.
func (g *Graph) Value(lit string) (NodeID, bool) {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	n, ok := g.dir.valByLit[lit]
	return n, ok
}

// EntitiesOfType returns all live entity nodes with type t, ascending
// by NodeID whatever order they were lowered or removed in
// (byTypeInsert inserts sorted, removeOne preserves order) — candidate
// generation streams the list as is. The returned slice is owned by the
// graph and must not be modified; it is never mutated in place, so it
// stays a valid snapshot across later mutations.
func (g *Graph) EntitiesOfType(t TypeID) []NodeID {
	g.dir.mu.RLock()
	defer g.dir.mu.RUnlock()
	if int(t) >= len(g.dir.byType) {
		return nil
	}
	return g.dir.byType[t]
}

// Out returns the out-edges of n: for each stored triple (n, p, o) an
// Edge{p, o}. The slice is owned by the graph and must not be modified;
// it is never mutated in place, so a slice obtained before a
// removal keeps its pre-removal contents.
func (g *Graph) Out(n NodeID) []Edge {
	sh := g.shardOf(n)
	sh.mu.RLock()
	e := sh.out[localIndex(n)]
	sh.mu.RUnlock()
	return e
}

// In returns the in-edges of n: for each stored triple (s, p, n) an
// Edge{p, s}. The slice is owned by the graph and must not be modified;
// it is never mutated in place, so a slice obtained before a
// removal keeps its pre-removal contents.
func (g *Graph) In(n NodeID) []Edge {
	sh := g.shardOf(n)
	sh.mu.RLock()
	e := sh.in[localIndex(n)]
	sh.mu.RUnlock()
	return e
}

// HasTriple reports whether the triple (s, p, o) is in G.
func (g *Graph) HasTriple(s NodeID, p PredID, o NodeID) bool {
	sh := g.shardOf(s)
	sh.mu.RLock()
	_, ok := sh.triples[tripleKey{s, p, o}]
	sh.mu.RUnlock()
	return ok
}

// Degree returns the undirected degree of n (out plus in edges).
func (g *Graph) Degree(n NodeID) int {
	sh := g.shardOf(n)
	l := localIndex(n)
	sh.mu.RLock()
	d := len(sh.out[l]) + len(sh.in[l])
	sh.mu.RUnlock()
	return d
}

// EachEntity calls fn for every live entity node, in ID order.
func (g *Graph) EachEntity(fn func(NodeID)) {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		if g.IsEntity(NodeID(i)) {
			fn(NodeID(i))
		}
	}
}

// EachTriple calls fn for every triple (s, p, o) in G, in unspecified
// order.
func (g *Graph) EachTriple(fn func(s NodeID, p PredID, o NodeID)) {
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		s := NodeID(i)
		for _, e := range g.Out(s) {
			fn(s, e.Pred, e.To)
		}
	}
}

// Triples materializes every triple of G, in unspecified order.
func (g *Graph) Triples() []Triple {
	out := make([]Triple, 0, g.NumTriples())
	g.EachTriple(func(s NodeID, p PredID, o NodeID) {
		out = append(out, Triple{S: s, P: p, O: o})
	})
	return out
}
