// Package chase implements the entity matching problem of "Keys for
// Graphs" (§3.1) as a sequential reference algorithm: the revised chase
// that repeatedly applies keys as rules until the equivalence relation
// Eq reaches its fixpoint, chase(G, Σ).
//
// This implementation is the ground truth the parallel engines (EMMR and
// EMVC families) are tested against: by the Church–Rosser property
// (Proposition 1) every terminal chasing sequence has the same result,
// so any correct engine must produce exactly the same pair set.
//
// The package also materializes proof graphs (the witnesses behind
// Theorem 2's NP upper bound): DAGs of chase steps justifying an
// identification, independently verifiable in polynomial time.
package chase

import (
	"iter"
	"slices"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// Step is one chase step Eq ⇒(e1,e2) Eq′: the pair identified, the key
// that identified it, and the recursive-entity-variable prerequisites
// that were in Eq at the time. Uses records the graph triples the
// witness match consumed on either side — the triple-level provenance
// the incremental engine (internal/inc) invalidates identifications by
// when triples are removed.
type Step struct {
	Pair     eqrel.Pair
	Key      string
	Requires []eqrel.Pair
	Uses     []graph.Triple
}

// Result is the outcome of a terminal chasing sequence.
type Result struct {
	// Eq is chase(G, Σ) as an equivalence relation over node IDs.
	Eq *eqrel.Eq
	// Pairs is chase(G, Σ) materialized: all non-trivial identified
	// entity pairs (including those implied by transitivity), sorted.
	Pairs []eqrel.Pair
	// Steps is the chasing sequence actually taken, in order.
	Steps []Step
	// Candidates is the size of the candidate set L used.
	Candidates int
	// IsoSteps counts guided-search steps across all checks, the
	// sequential analogue of the engines' work counters.
	IsoSteps int
}

// Identified reports whether (G, Σ) ⊨ (e1, e2) in this result.
func (r *Result) Identified(e1, e2 graph.NodeID) bool {
	return r.Eq.Same(int32(e1), int32(e2))
}

// Options configures a chase run.
type Options struct {
	// Match passes through matching options; Match.FullSweep makes the
	// candidate stream the full C(n, 2) per-type sweep.
	Match match.Options
	// Parallelism selects the parallel driver (see parallel.go) when
	// >= 2: candidate checks fan out across that many workers, and
	// identifications merge through a lock-protected Eq with a
	// dependency worklist driving recursive re-checks. By the
	// Church–Rosser property (Proposition 1) the result is identical
	// to the sequential chase. Values <= 1 run the sequential
	// reference algorithm.
	Parallelism int
	// Order optionally permutes the (collected) candidate list before
	// the first sweep; it exists so tests can exercise the
	// Church–Rosser property by applying keys in different orders. It
	// must be a permutation. It is a sequential-chase testing hook and
	// is ignored by the parallel driver.
	Order func(pairs []eqrel.Pair)
	// UsePairing filters the candidate set by the pairing necessary
	// condition before chasing; results must be identical.
	UsePairing bool
}

// Run computes chase(G, Σ) off the candidate stream
// (match.CandidateStream): key checks start while candidate generation
// is still running, and the candidate list L is never materialized —
// only the pairs whose first check failed are retained for the
// fixpoint iteration. With Options.Parallelism >= 2 the checks fan out
// across engine.Parallel workers (see parallel.go); the fixpoint is the
// same either way.
func Run(g *graph.Graph, set *keys.Set, opts Options) (*Result, error) {
	m, err := match.New(g, set, opts.Match)
	if err != nil {
		return nil, err
	}
	stream := m.CandidateStream()
	if opts.UsePairing {
		stream = m.FilterStream(stream)
	}
	if opts.Parallelism >= 2 {
		return runParallel(m, stream, opts), nil
	}
	if opts.Order != nil {
		cands := slices.Collect(stream)
		opts.Order(cands)
		stream = slices.Values(cands)
	}
	return runSequential(m, stream, opts), nil
}

// runSequential is the sequential driver: it sweeps the candidates
// until a sweep identifies nothing new; each check consults the Eq
// computed so far, so recursively defined keys fire as soon as their
// prerequisites are in. Sweep 1 consumes the stream; later sweeps run
// over the pairs whose check failed, in the same order. Same(A, B) is
// monotone under the chase (unions are never undone), so a pair
// identified or transitively merged in one sweep would be skipped by
// every later sweep over all of L — dropping it changes no check.
func runSequential(m *match.Matcher, stream iter.Seq[eqrel.Pair], opts Options) *Result {
	res := &Result{Eq: eqrel.New(m.G.NumNodes())}
	// sweep checks every pair not yet in Eq, commits the
	// identifications, and appends the pairs whose check failed to
	// failed.
	sweep := func(pairs iter.Seq[eqrel.Pair], failed []eqrel.Pair) (seen int, _ []eqrel.Pair, changed bool) {
		for pr := range pairs {
			seen++
			if res.Eq.Same(pr.A, pr.B) {
				continue
			}
			ok, key, reqs, uses, steps := identify(m, graph.NodeID(pr.A), graph.NodeID(pr.B), res.Eq)
			res.IsoSteps += steps
			if !ok {
				failed = append(failed, pr)
				continue
			}
			res.Eq.Union(pr.A, pr.B)
			res.Steps = append(res.Steps, Step{Pair: pr, Key: key, Requires: reqs, Uses: uses})
			changed = true
		}
		return seen, failed, changed
	}
	var failed []eqrel.Pair
	var changed bool
	res.Candidates, failed, changed = sweep(stream, nil)
	for changed {
		// Filter in place: the sweep writes failed[j] only after
		// reading failed[i] for some i >= j.
		_, failed, changed = sweep(slices.Values(failed), failed[:0])
	}
	res.Pairs = res.Eq.Pairs(m.KeyedEntities())
	return res
}

// identify runs one chase-step check — the guided search over G, first
// identifying key wins — returning the identifying key name, the witness
// prerequisites, and the triple provenance of the witness.
func identify(m *match.Matcher, e1, e2 graph.NodeID, eq match.EqView) (ok bool, key string, reqs []eqrel.Pair, uses []graph.Triple, steps int) {
	for _, ck := range m.KeysFor(m.G.TypeOf(e1)) {
		got, req, used, s := m.IdentifiedByKeyProvenance(ck, e1, e2, eq)
		steps += s
		if got {
			return true, ck.Key.Name, req, used, steps
		}
	}
	return false, "", nil, nil, steps
}

// Violation is a witness that G ⊭ Q(x): two distinct entities whose
// matches of Q coincide under plain node identity.
type Violation struct {
	Pair eqrel.Pair
	Key  string
}

// Violations checks key satisfaction (§2.2): it returns, for every key,
// the pairs of distinct entities identified by that key alone under the
// node-identity relation Eq0. An empty result means G ⊨ Σ.
func Violations(g *graph.Graph, set *keys.Set, opts match.Options) ([]Violation, error) {
	m, err := match.New(g, set, opts)
	if err != nil {
		return nil, err
	}
	var out []Violation
	id := match.Identity()
	for pr := range m.CandidateStream() {
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		t := m.G.TypeOf(e1)
		for _, ck := range m.KeysFor(t) {
			ok, _ := m.IdentifiedByKey(ck, e1, e2, nil, nil, id)
			if ok {
				out = append(out, Violation{Pair: pr, Key: ck.Key.Name})
			}
		}
	}
	return out, nil
}
