package graph

import (
	"fmt"
	"testing"

	"graphkeys/internal/obs"
)

// BenchmarkInternLookup measures the read-mostly intern fast path: the
// name directories see a handful of distinct predicates and millions
// of lookups, so the hit path costs an RLock (shared, scalable) rather
// than serializing every lookup through the directory write lock.
func BenchmarkInternLookup(b *testing.B) {
	g := New()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("pred%d", i)
		g.internPred(names[i])
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			g.internPred(names[i&63])
			i++
		}
	})
}

// BenchmarkPlanPhases splits the write path's wall time across its
// phases — plan, commit wait, allocate and lower — so a regression in
// one phase localizes instead of hiding in the aggregate. The same histograms feed the benchmark ledger's
// graph.*_us_mean metrics (benchmark/decl.go).
func BenchmarkPlanPhases(b *testing.B) {
	g := New()
	reg := obs.NewRegistry()
	g.RegisterObs(reg)
	hook := func([]DeltaOp) (DeltaCommit, error) {
		return func() error { return nil }, nil
	}
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
		"graph.plan_ns":        "plan-ns/op",
		"graph.lower_ns":       "lower-ns/op",
		"graph.commit_wait_ns": "commit-ns/op",
	} {
		b.ReportMetric(snap.Histograms[name].Mean(), metric)
	}
}
