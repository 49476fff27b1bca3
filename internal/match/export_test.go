package match

// Shapes, ParseShapeGraph and RandomJoinCase hand the hand-written
// shapes, their graph format and the seeded random cases to the
// external test package, whose fuzz target also imports the chase.
var (
	Shapes          = shapes
	ParseShapeGraph = parseShapeGraph
	RandomJoinCase  = randomJoinCase
)
