package graphkeys

import (
	"fmt"
	"net/http"

	"graphkeys/internal/engine"
	"graphkeys/internal/graph"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

// This file is the Matcher's observability surface. Every Matcher
// carries its own metrics registry and phase tracer, threaded through
// each layer it drives — the graph's planned write path, the WAL (durable matchers), the incremental repair pass, and the
// engine substrate — plus its own ApplyBatch instruments.
// Instrumentation is pure observation: it never changes what the
// matcher computes (the differential tests in internal/inc pin the
// engine-level half of that guarantee).
//
// Three ways out: Metrics() for an in-process snapshot,
// MetricsHandler() to serve Prometheus text / JSON over HTTP
// (internal/serve mounts it beside its own routes, which cmd/emserve
// serves with pprof), and Explain() for per-pair provenance.

// Metrics is a point-in-time snapshot of a Matcher's instruments:
// counter and gauge values plus histogram summaries (count, sum,
// min/max, p50/p99, buckets), keyed by metric name. See the README's
// Observability section for the catalog.
type Metrics = obs.Snapshot

// Metrics snapshots the matcher's instruments. Safe to call
// concurrently with Applies; counters tick live while a repair runs.
func (m *Matcher) Metrics() Metrics {
	return m.reg.Snapshot()
}

// Registry exposes the matcher's metrics registry so embedding layers
// (e.g. a server wrapping the matcher) can add their own instruments
// to the same catalog — one scrape covers the whole process.
func (m *Matcher) Registry() *obs.Registry {
	return m.reg
}

// MetricsHandler returns an HTTP handler serving the matcher's
// instruments: Prometheus text exposition at /metrics, a JSON
// snapshot at /vars, and the tracer's recent phase spans at /events.
// Mount it wherever (and whether) the process chooses — the matcher
// itself never opens a port.
func (m *Matcher) MetricsHandler() http.Handler {
	return obs.Handler(m.reg, m.trace)
}

// Explanation is the witness chain for an identified pair: the chase
// steps that derive A ~ B, in an order where every step's Requires
// pairs are connected by earlier steps. Two equal IDs explain as an
// empty chain.
type Explanation struct {
	A, B  EntityID
	Steps []ExplainStep
}

// ExplainStep is one chase step of a witness chain: which key fired
// on which pair, what prior identifications the witness bound entity
// variables against, which graph triples it consumed, and when the
// step was derived.
type ExplainStep struct {
	// A and B are the pair this step identified.
	A, B EntityID
	// Key is the name of the key that fired.
	Key string
	// Seq is the repair generation the step was derived at: 0 for the
	// initial full chase, n for the n-th maintenance pass since — a
	// step with Seq > 0 was (re-)derived by that pass, e.g. after a
	// removal destroyed its previous witness. A pass that at least
	// doubled the graph re-derives everything, so every step then
	// carries its generation (as a reopen stamps every step 0).
	Seq uint64
	// Requires are the prior identifications the witness depended on
	// (entity-variable bindings of a recursive key); empty for
	// value-only keys.
	Requires []Pair
	// Uses are the graph triples the witness consumed — the
	// provenance the removal repair tracks.
	Uses []ExplainTriple
}

// ExplainTriple is one graph triple of a witness, at name level.
type ExplainTriple struct {
	Subject       EntityID
	Predicate     string
	Object        string // entity ID, or the literal when ObjectIsValue
	ObjectIsValue bool
}

// Explain returns the witness chain for why a and b are currently
// identified, walking the live step log's provenance — no re-chase
// runs. It errors when the pair is not identified or either entity is
// unknown. Unlike the package-level Explain (which re-runs the
// sequential chase from scratch), this reports the steps the
// incremental engine actually holds, including at which maintenance
// pass each was derived.
func (m *Matcher) Explain(a, b EntityID) (*Explanation, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	na, ok := m.g.g.Entity(a)
	if !ok {
		return nil, fmt.Errorf("graphkeys: unknown entity %q", a)
	}
	nb, ok := m.g.g.Entity(b)
	if !ok {
		return nil, fmt.Errorf("graphkeys: unknown entity %q", b)
	}
	idxs, err := m.eng.Explain(na, nb)
	if err != nil {
		return nil, err
	}
	steps := m.eng.Steps()
	seqs := m.eng.StepSeqs()
	ex := &Explanation{A: a, B: b}
	for _, i := range idxs {
		st := steps[i]
		es := ExplainStep{
			A:   m.g.g.Label(graph.NodeID(st.Pair.A)),
			B:   m.g.g.Label(graph.NodeID(st.Pair.B)),
			Key: st.Key,
			Seq: seqs[i],
		}
		for _, r := range st.Requires {
			es.Requires = append(es.Requires, Pair{
				A: m.g.g.Label(graph.NodeID(r.A)),
				B: m.g.g.Label(graph.NodeID(r.B)),
			})
		}
		for _, tr := range st.Uses {
			es.Uses = append(es.Uses, ExplainTriple{
				Subject:       m.g.g.Label(tr.S),
				Predicate:     m.g.g.PredName(tr.P),
				Object:        m.g.g.Label(tr.O),
				ObjectIsValue: m.g.g.IsValue(tr.O),
			})
		}
		ex.Steps = append(ex.Steps, es)
	}
	return ex, nil
}

// Target returns the explained pair.
func (e *Explanation) Target() Pair { return Pair{A: e.A, B: e.B} }

// registerObs builds the matcher's registry, tracer and per-layer
// instruments and threads them through the layers the matcher owns.
// The engine substrate's and candidate pipeline's bundles are handles
// held on the Matcher and passed down through match.Options — never
// process globals — so N coexisting Matchers each keep their own
// engine.* and match.* series (the serving layer runs exactly that
// shape).
func (m *Matcher) registerObs() {
	m.reg = obs.NewRegistry()
	m.trace = obs.NewTracer(256)
	m.obBatch = m.reg.Histogram("matcher.apply_batch_ns", "ApplyBatch latency", obs.DurationBuckets())
	m.obBatchSize = m.reg.Histogram("matcher.batch_size", "deltas per ApplyBatch", obs.SizeBuckets())
	m.obEng = engine.NewObs(m.reg)
	m.obMatch = match.NewObs(m.reg)
}
