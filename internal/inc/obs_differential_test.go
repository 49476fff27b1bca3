package inc

import (
	"reflect"
	"testing"

	"graphkeys/internal/obs"
	"graphkeys/internal/testutil"
)

// TestObsDifferential pins the observability guarantee: enabling
// metrics and phase tracing changes nothing the engine computes. The
// same mutation sequence runs bare and fully instrumented, at p = 1
// and p = 4, without recursive keys and with them — graph text, pairs,
// step log and stats must be byte-identical.
func TestObsDifferential(t *testing.T) {
	const rounds = 6
	configs := []struct {
		name string
		cfg  testutil.Config
	}{
		{"components", testutil.Config{Seed: 21, Groups: 6, PerGroup: 8, EntityChurn: true, Coalesce: true}},
		{"rounds-recursive", testutil.Config{Seed: 22, Groups: 4, PerGroup: 8, Bands: true, EntityChurn: true}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []int{1, 4} {
				gen := testutil.New(tc.cfg)
				bare := runRepairSequence(t, gen, Options{Parallelism: p}, rounds)

				reg := obs.NewRegistry()
				tr := obs.NewTracer(64)
				instr := runRepairSequence(t, gen, Options{
					Parallelism: p,
					Obs:         RegisterObs(reg),
					Trace:       tr,
				}, rounds)

				if instr.graphText != bare.graphText {
					t.Fatalf("p=%d: instrumented graph text diverges", p)
				}
				if instr.pairs != bare.pairs {
					t.Fatalf("p=%d: instrumented pairs diverge:\ngot:  %s\nwant: %s", p, instr.pairs, bare.pairs)
				}
				if instr.steps != bare.steps {
					t.Fatalf("p=%d: instrumented step log diverges:\ngot:\n%s\nwant:\n%s", p, instr.steps, bare.steps)
				}
				if !reflect.DeepEqual(instr.stats, bare.stats) {
					t.Fatalf("p=%d: instrumented stats diverge:\ngot:  %+v\nwant: %+v", p, instr.stats, bare.stats)
				}

				// And the instruments must actually have observed the run:
				// silence here would mean the hooks are disconnected.
				snap := reg.Snapshot()
				if snap.Counters["inc.repairs"] == 0 {
					t.Fatalf("p=%d: inc.repairs never incremented", p)
				}
				if snap.Counters["inc.checked"] == 0 {
					t.Fatalf("p=%d: inc.checked never incremented", p)
				}
				if snap.Counters["inc.replay_steps"] < snap.Counters["inc.suspects"] || snap.Counters["inc.suspects"] == 0 {
					t.Fatalf("p=%d: inc.replay_steps = %d does not cover the %d steps invalidation dropped",
						p, snap.Counters["inc.replay_steps"], snap.Counters["inc.suspects"])
				}
				if snap.Counters["inc.touched_classes"] == 0 {
					t.Fatalf("p=%d: inc.touched_classes never incremented", p)
				}

				// A bundle with every handle unset must behave like no
				// bundle at all.
				unset := runRepairSequence(t, gen, Options{Parallelism: p, Obs: &Obs{}}, rounds)
				if unset.steps != bare.steps || unset.pairs != bare.pairs || !reflect.DeepEqual(unset.stats, bare.stats) {
					t.Fatalf("p=%d: an Obs bundle of nil handles changed the repair", p)
				}
				var merged int
				for _, st := range instr.stats {
					merged += st.Merged
				}
				if got := snap.Counters["inc.merged"]; got != int64(merged) {
					t.Fatalf("p=%d: inc.merged = %d, want %d (sum of Stats.Merged)", p, got, merged)
				}
				if len(tr.Recent()) == 0 {
					t.Fatalf("p=%d: tracer recorded no phase spans", p)
				}
			}
		})
	}
}
