package match

import (
	"iter"
	"slices"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
)

// Shapes, ParseShapeGraph and RandomJoinCase hand the hand-written
// shapes, their graph format and the seeded random cases to the
// external test package, whose fuzz target also imports the chase.
var (
	Shapes          = shapes
	ParseShapeGraph = parseShapeGraph
	RandomJoinCase  = randomJoinCase
)

// everyKeyedEntity lists, ascending, every entity of each keyed type
// with a matchable key: candidateEntities without its grouping pass.
func (m *Matcher) everyKeyedEntity() []graph.NodeID {
	var ents []graph.NodeID
	for _, t := range m.KeyedTypes() {
		if m.hasMatchableKey(t) {
			ents = append(ents, m.G.EntitiesOfType(t)...)
		}
	}
	slices.Sort(ents)
	return ents
}

// keyedEntities lists every entity of each keyed type.
func (m *Matcher) keyedEntities() []int32 {
	var ents []int32
	for _, t := range m.KeyedTypes() {
		for _, e := range m.G.EntitiesOfType(t) {
			ents = append(ents, int32(e))
		}
	}
	return ents
}

// unfilteredStream is L generated by rows over everyKeyedEntity.
func (m *Matcher) unfilteredStream() iter.Seq[eqrel.Pair] {
	return func(yield func(eqrel.Pair) bool) { m.rows(m.everyKeyedEntity(), yield) }
}
