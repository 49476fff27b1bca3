package match

// Shapes and ParseShapeGraph hand the hand-written shapes and their
// graph format to the external test package, whose fuzz target also
// imports the chase.
var (
	Shapes          = shapes
	ParseShapeGraph = parseShapeGraph
)
