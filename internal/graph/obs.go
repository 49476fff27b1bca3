package graph

import (
	"graphkeys/internal/obs"
)

// Obs is the write path's instrument bundle. A Graph holds it by value:
// its zero value, with every handle nil, is an uninstrumented graph,
// and every handle method is a no-op on nil. Instrumentation never
// participates in control flow — see the obs package comment.
type Obs struct {
	// PostingLen observes the length of a value-index posting list
	// right after an insertion.
	PostingLen *obs.Histogram
	// Deltas counts deltas that mutated the graph; NoopDeltas counts
	// deltas whose ops coalesced away.
	Deltas     *obs.Counter
	NoopDeltas *obs.Counter

	// Phase wall-time split of the write path (see plan.go): PlanNanos
	// is one planning pass (validate + coalesce); LowerNanos is
	// allocation and lowering.
	PlanNanos  *obs.Histogram
	LowerNanos *obs.Histogram
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry and installs it. A nil registry installs nothing.
// It is a mutator: it waits for a delta already applying.
func (g *Graph) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	g.writeMu.Lock()
	defer g.writeMu.Unlock()
	g.ob = Obs{
		PostingLen: r.Histogram("graph.posting_len", "value-index posting list length after insert", obs.SizeBuckets()),
		Deltas:     r.Counter("graph.deltas", "deltas that mutated the graph"),
		NoopDeltas: r.Counter("graph.deltas_noop", "deltas whose ops coalesced to nothing"),

		PlanNanos:  r.Histogram("graph.plan_ns", "one planning pass of a delta", obs.DurationBuckets()),
		LowerNanos: r.Histogram("graph.lower_ns", "allocation and lowering of a delta", obs.DurationBuckets()),
	}
}
