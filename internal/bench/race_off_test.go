//go:build !race

package bench

// raceEnabled reports whether this binary was built with the race
// detector, which multiplies the cost of every atomic and so makes
// instrumentation-overhead budgets meaningless.
const raceEnabled = false
