package chase

import (
	"fmt"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/match"
)

// BenchmarkParallelChaseHubs runs the chase where the dependency
// rounds carry the cost: one populous recursive chain (three levels of
// 1 200 entities, radius 2) whose near misses and not yet identifiable
// duplicates fail round one — 600 pairs, where the candidate set once
// held every pair meeting in a shared child or noise value and 13 683
// failed. Beside ns/op it reports the failed pairs the dependency index
// is built over and the entity→side entries it holds: entries grow with
// the sides, not with the pairs, and with what the sides' x→y walks
// reach, not with their d-neighbors.
func BenchmarkParallelChaseHubs(b *testing.B) {
	cfg := gen.DefaultSynthetic()
	cfg.TypeGroups, cfg.EntitiesPerType, cfg.NearMissFraction = 1, 1200, 0.3
	w, err := gen.Synthetic(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := match.New(w.Graph, w.Keys, match.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var failed []eqrel.Pair
	for pr := range m.CandidateStream() {
		if ok, _, _, _, _ := identify(m, graph.NodeID(pr.A), graph.NodeID(pr.B), match.Identity()); !ok {
			failed = append(failed, pr)
		}
	}
	entries := m.BuildDependencyIndexParallel(failed, 1).Entries()
	for _, p := range []int{1, 2} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(w.Graph, w.Keys, Options{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) != len(w.Expected) {
					b.Fatalf("identified %d pairs, planted %d", len(res.Pairs), len(w.Expected))
				}
			}
			b.ReportMetric(float64(len(failed)), "failed")
			b.ReportMetric(float64(len(w.Expected)), "identified")
			b.ReportMetric(float64(entries), "dep-entries")
		})
	}
}
