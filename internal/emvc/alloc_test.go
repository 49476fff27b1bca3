// The race detector's sync.Pool drops puts at random, so the matcher's
// pooled pairing scratch is rebuilt and allocations are not the run's.

//go:build !race

package emvc

import (
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/gen"
)

// TestAllocsWithinChase holds EMOptVC to allocating per run, not per
// message: on the google-chains ledger input its allocations stay
// within 3× those of the sequential chase. Messages are values in
// reused buffers, and forks and in-place exploration copy their slots
// into reused arenas and stacks; the run delivers 11 085 messages and
// explores 4 053 hops in place, so one object per hop alone would be
// about 4× the chase's.
func TestAllocsWithinChase(t *testing.T) {
	w := googleChains(t)
	seq := testing.AllocsPerRun(3, func() {
		if _, err := chase.Run(w.Graph, w.Keys, chase.Options{}); err != nil {
			t.Fatal(err)
		}
	})
	var res *Result
	vc := testing.AllocsPerRun(3, func() { res = run(t, w.Graph, w.Keys, Config{P: 2, Variant: Opt}) })
	t.Logf("EMOptVC %.0f allocations per run (%d messages, %d local steps), chase.Run %.0f", vc, res.Stats.Messages, res.Stats.LocalSteps, seq)
	if vc > 3*seq {
		t.Errorf("EMOptVC allocates %.0f objects per run, over 3× chase.Run's %.0f", vc, seq)
	}
}

// googleChains is the google-chains benchmark input at seed 1: the
// Google flavour at scale 16 plus two recursive chains of 384 entities
// per type.
func googleChains(tb testing.TB) *gen.Workload {
	tb.Helper()
	w, err := gen.Google(gen.FlavorConfig{Seed: 1, Scale: 16})
	if err != nil {
		tb.Fatal(err)
	}
	err = gen.PlantChains(w, gen.SyntheticConfig{
		Seed: 14, TypeGroups: 2, EntitiesPerType: 384,
		DupFraction: 0.2, NearMissFraction: 0.3, Chain: 2, Radius: 2,
		Labels: 6000, NoiseEdgesPerEntity: 1,
	}, "c_")
	if err != nil {
		tb.Fatal(err)
	}
	return w
}
