package graph

// This file implements batched graph mutations: a Delta is an ordered
// list of add-entity, add-triple, remove-triple and remove-entity
// operations, applied atomically by ApplyDelta. Deltas are the unit of
// change the incremental entity-matching engine (internal/inc)
// maintains chase(G, Σ) under.
//
// Operations reference entities by external ID and values by literal,
// so a Delta can be built without a Graph in hand and applied to any
// graph (or logged and replayed).

// OpKind distinguishes delta operations.
type OpKind uint8

const (
	// OpAddEntity ensures an entity exists (no-op if it already does
	// with the same type).
	OpAddEntity OpKind = iota
	// OpAddTriple inserts a triple (no-op if it is already present).
	OpAddTriple
	// OpRemoveTriple deletes a triple (no-op if it is absent).
	OpRemoveTriple
	// OpRemoveEntity removes an entity: it expands to removing every
	// incident triple (out- and in-edges) and then tombstones the node
	// (no-op if the entity is absent). The dense NodeID is retired, not
	// reused; re-adding the same external ID later creates a fresh
	// node.
	OpRemoveEntity
)

// DeltaOp is one operation of a Delta.
type DeltaOp struct {
	Kind OpKind

	// OpAddEntity / OpRemoveEntity.
	ID       string
	TypeName string // OpAddEntity only

	// OpAddTriple / OpRemoveTriple. Object is an entity ID, or a value
	// literal when ObjectIsValue is set.
	Subject       string
	Pred          string
	Object        string
	ObjectIsValue bool
}

// Delta is an ordered batch of mutations. The zero value is an empty
// delta ready for use; the builder methods return the receiver for
// chaining.
type Delta struct {
	ops []DeltaOp
}

// AddEntity appends an ensure-entity op.
func (d *Delta) AddEntity(id, typeName string) *Delta {
	d.ops = append(d.ops, DeltaOp{Kind: OpAddEntity, ID: id, TypeName: typeName})
	return d
}

// AddTriple appends an add of (subject, pred, object) between entities.
func (d *Delta) AddTriple(subject, pred, object string) *Delta {
	d.ops = append(d.ops, DeltaOp{Kind: OpAddTriple, Subject: subject, Pred: pred, Object: object})
	return d
}

// AddValueTriple appends an add of (subject, pred, literal).
func (d *Delta) AddValueTriple(subject, pred, literal string) *Delta {
	d.ops = append(d.ops, DeltaOp{Kind: OpAddTriple, Subject: subject, Pred: pred, Object: literal, ObjectIsValue: true})
	return d
}

// RemoveTriple appends a removal of (subject, pred, object) between
// entities.
func (d *Delta) RemoveTriple(subject, pred, object string) *Delta {
	d.ops = append(d.ops, DeltaOp{Kind: OpRemoveTriple, Subject: subject, Pred: pred, Object: object})
	return d
}

// RemoveValueTriple appends a removal of (subject, pred, literal).
func (d *Delta) RemoveValueTriple(subject, pred, literal string) *Delta {
	d.ops = append(d.ops, DeltaOp{Kind: OpRemoveTriple, Subject: subject, Pred: pred, Object: literal, ObjectIsValue: true})
	return d
}

// RemoveEntity appends a removal of the entity with the given external
// ID: its incident triples are removed and the node is tombstoned.
// Removing an absent entity is a no-op.
func (d *Delta) RemoveEntity(id string) *Delta {
	d.ops = append(d.ops, DeltaOp{Kind: OpRemoveEntity, ID: id})
	return d
}

// Len reports the number of operations.
func (d *Delta) Len() int { return len(d.ops) }

// Ops returns the operations in application order. The slice is owned
// by the delta.
func (d *Delta) Ops() []DeltaOp { return d.ops }

// NewDeltaOps builds a delta from an op list: the delta reads the
// slice and never writes it (an op appended to the delta goes to a
// copy). It is the inverse of Ops, used to replay logged normalized
// records.
func NewDeltaOps(ops []DeltaOp) *Delta {
	return &Delta{ops: ops[:len(ops):len(ops)]}
}

// DeltaResult reports the effective changes of an applied delta:
// operations that were no-ops (duplicate adds, removals of absent
// triples or entities, re-adds of existing entities) do not appear,
// and neither do ops that cancel inside the delta (an add and a
// remove of the same triple, an entity created and removed again) —
// the planner coalesces the ops to their net effect before applying.
type DeltaResult struct {
	// AddedEntities lists entity nodes created by the delta.
	AddedEntities []NodeID
	// AddedTriples lists triples actually inserted.
	AddedTriples []Triple
	// RemovedTriples lists triples actually deleted, including the
	// incident triples of removed entities.
	RemovedTriples []Triple
	// RemovedEntities lists entity nodes tombstoned by the delta.
	RemovedEntities []NodeID
}

// Empty reports whether the delta changed nothing.
func (r *DeltaResult) Empty() bool {
	return len(r.AddedEntities) == 0 && len(r.AddedTriples) == 0 &&
		len(r.RemovedTriples) == 0 && len(r.RemovedEntities) == 0
}
