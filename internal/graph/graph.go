// Package graph implements the triple-based graph model of "Keys for
// Graphs" (Fan et al., PVLDB 2015), Section 2.1.
//
// A graph is a set of triples (s, p, o) where the subject s is an entity,
// p is a predicate, and the object o is either an entity or a data value.
// Entities carry a type; values are opaque literals. The graph is also a
// directed edge-labeled graph: entities and values are nodes, and each
// triple contributes an edge from s to o labeled p.
//
// Graphs are loaded with AddEntity/AddValue/AddTriple (or ParseText)
// and mutated afterwards with ApplyDelta (see delta.go), the one planned
// write path (see plan.go): it validates a delta, coalesces it to its
// net effect and writes the tables directly. The three adders are the
// programmatic loader, not a second write path: they append with none
// of a delta's planning, logging or result reporting, which is what lets
// the generators build a graph at about a microsecond a triple against
// several for a one-op delta; nothing removes except a delta. ParseText
// builds the graph the adders would build from its lines, in two
// passes: it resolves every line to node IDs first, then lays out
// adjacency and postings once at their final sizes (layOut).
//
// No hash table stands beside the tables: the adjacency is the triple
// set, each value node holds its postings, and the name directory is
// one open-addressing table of node IDs (directory.go), not a map.
//
// Concurrency: a Graph is like a Go map. Any number of goroutines may
// read it at once, or one may write it (a delta, an adder, ParseText's
// fill) while nobody reads. Mutators serialize among themselves on the
// graph's one mutex, so concurrent writers are safe, but a reader
// beside a writer is a data race: the caller keeps readers off the
// writer (graphkeys.Matcher's lock does). Slices handed out by accessors
// (Out, In, EntitiesOfType, ValueSubjects) are never mutated in place,
// so they remain valid snapshots across later mutations.
package graph

import (
	"fmt"
	"slices"
	"sync"
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
	// — it has no type, no edges, and its directory slot never matches.
	dead bool
}

// Triple is one stored triple (s, p, o), exported for provenance
// tracking and delta reporting. It is comparable and usable as a map
// key.
type Triple struct {
	S NodeID
	P PredID
	O NodeID
}

// Graph is an in-memory triple store. The zero value is not usable;
// call New. See the package comment for its concurrency contract.
type Graph struct {
	// writeMu serializes every mutation: a delta from plan to the last
	// table write, and each loader call. Readers never touch it.
	writeMu sync.Mutex

	// The tables, indexed by NodeID: each node's record, its out- and
	// in-adjacency and, for a value, its posting lists (see
	// valueindex.go). The adjacency is the triple set, kept factorised;
	// ntriples is its size, |G|.
	nodes    []node
	out      [][]Edge
	in       [][]Edge
	post     [][]posting
	ntriples int

	// The directory: interned predicates and types, the name directory
	// (a live entity by its external ID, a value by its literal; the
	// names are the node records' labels), the per-type entity lists.
	preds  *Interner
	types  *Interner
	dir    directory
	byType [][]NodeID // TypeID -> entity nodes of that type

	// ob is the instrument bundle (see obs.go); the zero value is
	// uninstrumented.
	ob Obs
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{preds: NewInterner(), types: NewInterner(), dir: newDirectory(0)}
}

// NumNodes reports the number of nodes (entities plus values),
// including tombstoned entities, which keep their dense IDs.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumTriples reports |G|, the number of triples.
func (g *Graph) NumTriples() int { return g.ntriples }

// NumEntities reports the number of live entity nodes.
func (g *Graph) NumEntities() int {
	n := 0
	for _, ns := range g.byType {
		n += len(ns)
	}
	return n
}

// AddEntity returns the node for the entity with the given external ID,
// creating it with the given type if it does not exist. Adding the same
// ID twice with different types is an error.
func (g *Graph) AddEntity(id, typeName string) (NodeID, error) {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	if n, ok := g.Entity(id); ok {
		if have := g.types.Name(int32(g.nodes[n].typ)); have != typeName {
			return NoNode, fmt.Errorf("graph: entity %q redeclared with type %q (was %q)",
				id, typeName, have)
		}
		return n, nil
	}
	return g.newNode(node{kind: EntityKind, typ: TypeID(g.types.Intern(typeName)), label: id}), nil
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
func (g *Graph) AddValue(lit string) NodeID {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	if n, ok := g.Value(lit); ok {
		return n
	}
	return g.newNode(node{kind: ValueKind, label: lit})
}

// AddTriple records the triple (s, p, o). The subject must be an entity
// node. Duplicate triples are ignored.
func (g *Graph) AddTriple(s NodeID, pred string, o NodeID) error {
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	if !g.valid(s) || !g.valid(o) {
		return fmt.Errorf("graph: AddTriple with unknown node (s=%d, o=%d)", s, o)
	}
	if nd := g.nodes[s]; nd.kind != EntityKind || nd.dead {
		return fmt.Errorf("graph: triple subject %q is not a live entity", nd.label)
	}
	g.addTriple(s, PredID(g.preds.Intern(pred)), o)
	return nil
}

// newNode allocates nd's node with no edges and enters it in the
// directory, where its name is absent.
func (g *Graph) newNode(nd node) NodeID {
	h := g.dir.hash(nd.kind, nd.label)
	i, _ := find(g, nd.kind, nd.label, h)
	return g.addEdgeLists(g.enter(nd, h, i))
}

// addEdgeLists gives n, the node just entered, its empty out-, in- and
// posting lists. ParseText enters every node before any list exists
// and lays the lists out at their final sizes afterwards (layOut).
func (g *Graph) addEdgeLists(n NodeID) NodeID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.post = append(g.post, nil)
	return n
}

// addTriple records (s, p, o), unless present, in both adjacency lists
// and, when o is a value, the posting list of (p, o). Every write keeps
// the handed-out-snapshot contract: adjacency appends, postInsert
// appends or copies.
func (g *Graph) addTriple(s NodeID, p PredID, o NodeID) {
	if g.HasTriple(s, p, o) {
		return
	}
	g.ntriples++
	g.out[s] = append(g.out[s], Edge{Pred: p, To: o})
	g.in[o] = append(g.in[o], Edge{Pred: p, To: s})
	if g.nodes[o].kind == ValueKind {
		g.postInsert(p, o, s)
	}
}

// layOut writes ts, the distinct triples of a graph whose tables hold
// only node records and the directory, to the adjacency lists and
// postings: what addEdgeLists for every node and
// addTriple for each triple in order write, allocated once at the
// final sizes. Every list is cut out of one array with capacity equal
// to its length, so a later append copies it as it copies any full
// list, and a handed-out slice is never written.
func (g *Graph) layOut(ts []Triple) {
	// The tables take the node records' spare capacity, so the nodes a
	// later delta allocates append to all three without a copy.
	g.out, g.in = make([][]Edge, len(g.nodes), cap(g.nodes)), make([][]Edge, len(g.nodes), cap(g.nodes))
	g.ntriples = len(ts)
	outDeg, inDeg := make([]int32, len(g.nodes)), make([]int32, len(g.nodes))
	for _, t := range ts {
		outDeg[t.S]++
		inDeg[t.O]++
	}
	edges := make([]Edge, 2*len(ts))
	off := 0
	cut := func(lists [][]Edge, deg []int32) {
		for n, d := range deg {
			if d > 0 {
				lists[n] = edges[off : off : off+int(d)]
				off += int(d)
			}
		}
	}
	cut(g.out, outDeg)
	cut(g.in, inDeg)
	for _, t := range ts {
		g.out[t.S] = append(g.out[t.S], Edge{Pred: t.P, To: t.O})
		g.in[t.O] = append(g.in[t.O], Edge{Pred: t.P, To: t.S})
	}
	g.layOutPostings()
}

// removeTriple erases the stored triple (s, p, o) from the tables
// addTriple writes, copying every list it shortens.
func (g *Graph) removeTriple(s NodeID, p PredID, o NodeID) {
	g.ntriples--
	g.out[s] = removeOne(g.out[s], Edge{Pred: p, To: o})
	g.in[o] = removeOne(g.in[o], Edge{Pred: p, To: s})
	if g.nodes[o].kind == ValueKind {
		g.postRemove(p, o, s)
	}
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

func (g *Graph) valid(n NodeID) bool { return n >= 0 && int(n) < len(g.nodes) }

// IsEntity reports whether n is a live entity node.
func (g *Graph) IsEntity(n NodeID) bool {
	if !g.valid(n) {
		return false
	}
	nd := &g.nodes[n]
	return nd.kind == EntityKind && !nd.dead
}

// IsValue reports whether n is a value node.
func (g *Graph) IsValue(n NodeID) bool {
	return g.valid(n) && g.nodes[n].kind == ValueKind
}

// EntityType returns the type of n if n is a live entity, in one
// lookup — the hot-path combination of IsEntity and TypeOf
// (neighborhood scans classify every node they visit).
func (g *Graph) EntityType(n NodeID) (TypeID, bool) {
	if !g.valid(n) {
		return 0, false
	}
	nd := &g.nodes[n]
	if nd.kind != EntityKind || nd.dead {
		return 0, false
	}
	return nd.typ, true
}

// IsEntityOfType reports whether n is a live entity of type t, in one
// lookup.
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
	nd := &g.nodes[n]
	if nd.kind != EntityKind || nd.dead {
		panic(fmt.Sprintf("graph: TypeOf(%d) on non-entity", n))
	}
	return nd.typ
}

// Label returns the external entity ID of an entity node, or the literal
// of a value node. Tombstoned entities keep their label.
func (g *Graph) Label(n NodeID) string { return g.nodes[n].label }

// TypeName returns the name of the given type.
func (g *Graph) TypeName(t TypeID) string {
	return g.types.Name(int32(t))
}

// TypeByName returns the TypeID for a type name, if any entity of that
// type exists.
func (g *Graph) TypeByName(name string) (TypeID, bool) {
	id, ok := g.types.Lookup(name)
	return TypeID(id), ok
}

// NumTypes reports the number of distinct entity types.
func (g *Graph) NumTypes() int {
	return g.types.Len()
}

// PredName returns the name of the given predicate.
func (g *Graph) PredName(p PredID) string {
	return g.preds.Name(int32(p))
}

// PredByName returns the PredID for a predicate name, if it occurs in G.
func (g *Graph) PredByName(name string) (PredID, bool) {
	id, ok := g.preds.Lookup(name)
	return PredID(id), ok
}

// NumPreds reports the number of distinct predicates.
func (g *Graph) NumPreds() int {
	return g.preds.Len()
}

// Entity returns the live entity with the given external ID.
func (g *Graph) Entity(id string) (NodeID, bool) { return g.lookup(EntityKind, id) }

// Value returns the node for the given literal, if present.
func (g *Graph) Value(lit string) (NodeID, bool) { return g.lookup(ValueKind, lit) }

// EntitiesOfType returns all live entity nodes with type t, ascending
// by NodeID (enter appends in allocation order, removeOne
// preserves order) — candidate generation streams the list as is. The
// returned slice is owned by the graph and must not be modified; it is
// never mutated in place, so it stays a valid snapshot across later
// mutations.
func (g *Graph) EntitiesOfType(t TypeID) []NodeID {
	if int(t) >= len(g.byType) {
		return nil
	}
	return g.byType[t]
}

// Out returns the out-edges of n: for each stored triple (n, p, o) an
// Edge{p, o}. The slice is owned by the graph and must not be modified;
// it is never mutated in place, so a slice obtained before a
// removal keeps its pre-removal contents.
func (g *Graph) Out(n NodeID) []Edge { return g.out[n] }

// In returns the in-edges of n: for each stored triple (s, p, n) an
// Edge{p, s}. The slice is owned by the graph and must not be modified;
// it is never mutated in place, so a slice obtained before a
// removal keeps its pre-removal contents.
func (g *Graph) In(n NodeID) []Edge { return g.in[n] }

// HasTriple reports whether the triple (s, p, o) is in G. It scans the
// shorter of s's out-list and o's in-list, so it costs O(min(out-degree
// of s, in-degree of o)).
func (g *Graph) HasTriple(s NodeID, p PredID, o NodeID) bool {
	if !g.valid(s) || !g.valid(o) {
		return false
	}
	es, want := g.out[s], Edge{Pred: p, To: o}
	if in := g.in[o]; len(in) < len(es) {
		es, want = in, Edge{Pred: p, To: s}
	}
	return slices.Contains(es, want)
}

// Degree returns the undirected degree of n (out plus in edges).
func (g *Graph) Degree(n NodeID) int { return len(g.out[n]) + len(g.in[n]) }

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
	for s, out := range g.out {
		for _, e := range out {
			fn(NodeID(s), e.Pred, e.To)
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
