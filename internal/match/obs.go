package match

import (
	"graphkeys/internal/obs"
)

// Obs is the candidate pipeline's instrument bundle, carried on
// Options (Options.Obs) by the Matcher that owns the registry, so each
// owner's counts stay in its own registry. New swaps a nil Options.Obs
// for the zero bundle, whose handles are all nil: a Matcher's bundle is
// never nil, and every handle method no-ops on nil.
type Obs struct {
	// CandidatesStreamed counts candidate pairs yielded by the
	// streaming pipeline (CandidateStream), before the pairing filter.
	CandidatesStreamed *obs.Counter
	// PostingsScanned counts the member lists — posting lists, and
	// leaf paths walked back from a value — pulled into candidate
	// joins; a constant leaf counts once, when it is probed. Early
	// termination shows up here: a rejected constant probe stops the
	// join before any value-variable leaf's lists are pulled.
	PostingsScanned *obs.Counter
	// PairingCalls counts ComputePairing calls that built a relation;
	// PairingSeeded the tuples they seeded from (e1, e2, x),
	// PairingSurviving the tuples left in the relations of paired
	// calls, and PairingChecks the support checks: one per seeded tuple
	// plus one per supporter a dying tuple takes away.
	PairingCalls, PairingSeeded, PairingSurviving, PairingChecks *obs.Counter
}

// NewObs builds an Obs wired to conventionally named instruments of
// the registry. Instruments are get-or-create by name, so several
// NewObs calls against the same registry share the underlying
// counters. A nil registry yields nil (uninstrumented).
func NewObs(r *obs.Registry) *Obs {
	if r == nil {
		return nil
	}
	return &Obs{
		CandidatesStreamed: r.Counter("match.candidates_streamed", "candidate pairs yielded by the streaming pipeline"),
		PostingsScanned:    r.Counter("match.postings_scanned", "posting lists and walked-back leaf paths pulled into candidate joins"),
		PairingCalls:       r.Counter("match.pairing_calls", "pairing relations computed (candidate, key) past the quick filter"),
		PairingSeeded:      r.Counter("match.pairing_tuples_seeded", "pairing tuples reached from (e1, e2, x) before pruning"),
		PairingSurviving:   r.Counter("match.pairing_tuples_surviving", "pairing tuples left in the relations of paired calls"),
		PairingChecks:      r.Counter("match.pairing_support_checks", "pairing support checks: tuples seeded plus supporters lost to a death"),
	}
}
