// Fixtures for the readonly analyzer: derivation
// packages (this one's path ends in internal/chase) must not call the
// graph's mutation entry points.
package chase

import "internal/graph"

// Engines derive; reads are fine.
func expand(g *graph.Graph, frontier []int32) []int32 {
	var next []int32
	for _, n := range frontier {
		next = append(next, g.Out(n)...)
	}
	return next
}

func repairInPlace(g *graph.Graph, d *graph.Delta) error {
	return g.ApplyDelta(d) // want "read-only engine package"
}

func addDerived(g *graph.Graph) {
	g.MustAddTriple(1, 2, 3) // want "read-only engine package"
}
