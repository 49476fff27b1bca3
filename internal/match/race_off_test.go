//go:build !race

package match

// raceEnabled reports whether this binary was built with the race
// detector, under which TestCandidatesEqualStream leaves out the
// ledger inputs' sweep rows.
const raceEnabled = false
