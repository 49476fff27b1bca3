package graph

import (
	"graphkeys/internal/engine"
	"graphkeys/internal/obs"
)

// Obs is the write path's instrument bundle. Every handle may be nil
// (they no-op); a graph with no observer set pays one atomic load per
// delta and nothing else. Instrumentation never participates in
// control flow — see the obs package comment.
type Obs struct {
	// AdmissionWait is nanoseconds a delta spent blocked in admission —
	// acquiring the plan mutex plus waiting for in-flight executions
	// overlapping its shard footprint to retire.
	AdmissionWait *obs.Histogram
	// PlanHold is nanoseconds the plan mutex was held per delta, from
	// admission to the release that starts the durability wait or the
	// execution.
	PlanHold *obs.Histogram
	// ShardLockWait is nanoseconds an executor spent acquiring one
	// shard's write lock.
	ShardLockWait *obs.Histogram
	// ShardMutations counts micro-ops applied, labeled by shard index.
	ShardMutations *obs.CounterVec
	// PostingLen observes the length of a value-index posting list
	// right after an insertion.
	PostingLen *obs.Histogram
	// Deltas counts deltas that mutated the graph; NoopDeltas counts
	// deltas whose ops coalesced away.
	Deltas     *obs.Counter
	NoopDeltas *obs.Counter

	// Phase wall-time split of the write path (see plan.go): PlanNanos
	// is one planning pass (validate + coalesce; no lock held unless the
	// plan is exclusive); LowerNanos is the off-mutex lowering;
	// CommitNanos is the durability (group fsync) wait of a delta whose
	// log hook returned one. Admission + revalidation time is
	// AdmissionWait + PlanHold.
	PlanNanos   *obs.Histogram
	LowerNanos  *obs.Histogram
	CommitNanos *obs.Histogram
	// PlanRetries counts optimistic plans discarded by a stale footprint
	// or a failed revalidation; PlanFallbacks counts deltas that
	// exhausted their replans and were planned exclusively, under the
	// plan mutex with nothing in flight; OptimisticPlans counts plans
	// that admitted by revalidation. An accepted delta is one or the
	// other, a rejected one neither. PendingNameWaits counts admissions
	// that blocked on another delta's pending name reservation.
	PlanRetries      *obs.Counter
	PlanFallbacks    *obs.Counter
	OptimisticPlans  *obs.Counter
	PendingNameWaits *obs.Counter

	// Eng is the execution substrate's bundle, accounted to the shard
	// fan-out of executePlanned; per-graph so coexisting graphs (two
	// matchers in one process) keep their pool metrics apart.
	Eng *engine.Obs
}

// Nil-safe field access, so instrumentation sites read handles off a
// possibly-nil *Obs without branching.
func (o *Obs) admissionWait() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.AdmissionWait })
}
func (o *Obs) planHold() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.PlanHold })
}
func (o *Obs) shardLockWait() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.ShardLockWait })
}
func (o *Obs) postingLen() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.PostingLen })
}
func (o *Obs) planNanos() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.PlanNanos })
}
func (o *Obs) lowerNanos() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.LowerNanos })
}
func (o *Obs) commitNanos() *obs.Histogram {
	return histOf(o, func(o *Obs) *obs.Histogram { return o.CommitNanos })
}

func histOf(o *Obs, f func(*Obs) *obs.Histogram) *obs.Histogram {
	if o == nil {
		return nil
	}
	return f(o)
}

func (o *Obs) shardMutations() *obs.CounterVec {
	if o == nil {
		return nil
	}
	return o.ShardMutations
}

func (o *Obs) deltas() *obs.Counter {
	if o == nil {
		return nil
	}
	return o.Deltas
}

func (o *Obs) noopDeltas() *obs.Counter {
	if o == nil {
		return nil
	}
	return o.NoopDeltas
}

func ctrOf(o *Obs, f func(*Obs) *obs.Counter) *obs.Counter {
	if o == nil {
		return nil
	}
	return f(o)
}

func (o *Obs) planRetries() *obs.Counter {
	return ctrOf(o, func(o *Obs) *obs.Counter { return o.PlanRetries })
}
func (o *Obs) planFallbacks() *obs.Counter {
	return ctrOf(o, func(o *Obs) *obs.Counter { return o.PlanFallbacks })
}
func (o *Obs) optimisticPlans() *obs.Counter {
	return ctrOf(o, func(o *Obs) *obs.Counter { return o.OptimisticPlans })
}
func (o *Obs) pendingNameWaits() *obs.Counter {
	return ctrOf(o, func(o *Obs) *obs.Counter { return o.PendingNameWaits })
}

func (o *Obs) eng() *engine.Obs {
	if o == nil {
		return nil
	}
	return o.Eng
}

// SetObserver installs (or, with nil, removes) the write path's
// instruments. Safe to call concurrently with writers; in-flight
// deltas may record against the previous observer.
func (g *Graph) SetObserver(o *Obs) {
	g.ob.Store(o)
}

// RegisterObs builds an Obs wired to conventionally named instruments
// of the registry and installs it. A nil registry installs nothing.
func (g *Graph) RegisterObs(r *obs.Registry) {
	if r == nil {
		return
	}
	g.SetObserver(&Obs{
		AdmissionWait:  r.Histogram("graph.admission_wait_ns", "time a delta waited for plan-mutex admission", obs.DurationBuckets()),
		PlanHold:       r.Histogram("graph.plan_hold_ns", "time the plan mutex was held per delta", obs.DurationBuckets()),
		ShardLockWait:  r.Histogram("graph.shard_lock_wait_ns", "time an executor waited for a shard write lock", obs.DurationBuckets()),
		ShardMutations: r.CounterVec("graph.shard_mutations", "micro-ops applied, by shard", "shard", ShardCount),
		PostingLen:     r.Histogram("graph.posting_len", "value-index posting list length after insert", obs.SizeBuckets()),
		Deltas:         r.Counter("graph.deltas", "deltas that mutated the graph"),
		NoopDeltas:     r.Counter("graph.deltas_noop", "deltas whose ops coalesced to nothing"),

		PlanNanos:        r.Histogram("graph.plan_ns", "one planning pass (no lock held unless exclusive)", obs.DurationBuckets()),
		LowerNanos:       r.Histogram("graph.lower_ns", "off-mutex lowering of a delta", obs.DurationBuckets()),
		CommitNanos:      r.Histogram("graph.commit_wait_ns", "durability (group fsync) wait per delta", obs.DurationBuckets()),
		PlanRetries:      r.Counter("graph.plan_retries", "optimistic plans discarded by stale footprint or failed revalidation"),
		PlanFallbacks:    r.Counter("graph.plan_fallbacks", "deltas planned exclusively (plan mutex held, nothing in flight) after exhausting their optimistic replans"),
		OptimisticPlans:  r.Counter("graph.plans_optimistic", "deltas admitted by footprint revalidation"),
		PendingNameWaits: r.Counter("graph.pending_name_waits", "admissions that blocked on a pending name reservation"),

		Eng: engine.NewObs(r),
	})
}
