package inc

import "graphkeys/internal/obs"

// Obs is the repair pass's instrument bundle: the Stats fields as
// live counters (ticking while a pass runs, where Stats only appears
// after it), plus the shape of the chase phase. New swaps a nil
// Options.Obs for the zero bundle, whose handles are all nil, so an
// engine's bundle is never nil and every handle method no-ops on nil.
type Obs struct {
	// Suspects, Region, Checked and Identified mirror the Stats fields
	// cumulatively across all passes.
	Suspects   *obs.Counter
	Region     *obs.Counter
	Checked    *obs.Counter
	Identified *obs.Counter
	// Merged counts deltas merged into maintenance passes; Repairs
	// counts the passes themselves (Merged/Repairs is the coalescing
	// the batched write path achieved).
	Merged  *obs.Counter
	Repairs *obs.Counter
	// ReplaySteps counts the logged steps invalidation re-validated
	// (the steps of the classes a removal could reach); TouchedClasses
	// counts the classes passes reset or merged — together the part of
	// a pass's bookkeeping that scales with the delta.
	ReplaySteps    *obs.Counter
	TouchedClasses *obs.Counter
	// WorklistDepth observes, once per pass that has seeds, how many
	// distinct pairs the pass seeds its worklist with.
	WorklistDepth *obs.Histogram
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry (nil registry, nil Obs) — hand it to Options.Obs.
func RegisterObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	return &Obs{
		Suspects:       r.Counter("inc.suspects", "chase steps invalidated by removals"),
		Region:         r.Counter("inc.region", "entities in affected regions"),
		Checked:        r.Counter("inc.checked", "candidate-pair checks run"),
		Identified:     r.Counter("inc.identified", "chase steps (re-)derived"),
		Merged:         r.Counter("inc.merged", "deltas merged into maintenance passes"),
		Repairs:        r.Counter("inc.repairs", "maintenance passes run"),
		ReplaySteps:    r.Counter("inc.replay_steps", "logged steps re-validated by invalidation"),
		TouchedClasses: r.Counter("inc.touched_classes", "equivalence classes reset or merged by passes"),
		WorklistDepth:  r.Histogram("inc.worklist_depth", "seed pairs per maintenance pass", obs.SizeBuckets()),
	}
}
