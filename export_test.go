package graphkeys

// HasValueTriple reports whether g holds the triple (subject,
// predicate, value) with a literal object, read from the graph's own
// tables (graph.Graph.HasTriple), for the tests outside the package.
func HasValueTriple(g *Graph, subject EntityID, predicate, value string) bool {
	s, sok := g.g.Entity(subject)
	p, pok := g.g.PredByName(predicate)
	v, vok := g.g.Value(value)
	return sok && pok && vok && g.g.HasTriple(s, p, v)
}

// LogRecords decodes the records of a matcher directory's log, as
// FuzzApplyBatchEqualsSerial compares them, for the tests outside the
// package.
var LogRecords = logRecords

// CrashCopy copies a matcher directory as a kill -9 would leave it, for
// the benchmarks outside the package.
var CrashCopy = crashCopy
