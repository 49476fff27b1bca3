package graph

import (
	"fmt"
	"testing"

	"graphkeys/internal/obs"
)

// BenchmarkPlanPhases splits the write path's wall time across its
// phases — plan, then allocate and lower — so a regression in
// one phase localizes instead of hiding in the aggregate. The same histograms feed the benchmark ledger's
// graph.*_us_mean metrics (benchmark/decl.go).
func BenchmarkPlanPhases(b *testing.B) {
	g := New()
	reg := obs.NewRegistry()
	g.RegisterObs(reg)
	hook := func([]DeltaOp) error { return nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := fmt.Sprintf("e%d", i)
		d := (&Delta{}).
			AddEntity(id, "T").
			AddValueTriple(id, "p", fmt.Sprintf("v%d", i))
		if _, err := g.ApplyDeltaLogged(d, hook); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := reg.Snapshot()
	for name, metric := range map[string]string{
		"graph.plan_ns":  "plan-ns/op",
		"graph.lower_ns": "lower-ns/op",
	} {
		b.ReportMetric(snap.Histograms[name].Mean(), metric)
	}
}
