package engine

import (
	"graphkeys/internal/obs"
)

// Obs is the substrate's instrument bundle, threaded explicitly through
// Parallel by the layer that owns the registry, so two Matchers (two
// registries) in one process never share counters. Parallel swaps a nil
// *Obs for the zero bundle, whose handles are all nil, and every handle
// method no-ops on nil.
type Obs struct {
	// ParallelCalls counts Parallel invocations; ParallelItems counts
	// the items they fanned out (ParallelItems/ParallelCalls is the
	// mean fan-out).
	ParallelCalls *obs.Counter
	ParallelItems *obs.Counter
	// ActiveWorkers tracks the goroutines currently running a Parallel
	// call's items, the caller included — a live utilization gauge for
	// this bundle's owner.
	ActiveWorkers *obs.Gauge
}

// NewObs builds an Obs wired to conventionally named instruments of the
// registry. Instruments are get-or-create by name, so several NewObs
// calls against the same registry share the underlying counters. A nil
// registry yields nil (uninstrumented).
func NewObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	return &Obs{
		ParallelCalls: r.Counter("engine.parallel_calls", "Parallel invocations"),
		ParallelItems: r.Counter("engine.parallel_items", "items fanned out by Parallel"),
		ActiveWorkers: r.Gauge("engine.active_workers", "goroutines currently running Parallel items"),
	}
}
