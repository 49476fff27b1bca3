package match

import (
	"testing"

	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/obs"
)

// BenchmarkComputePairing computes the pairing relation of every
// (candidate, key) call that passes QuickPaired on the input of the
// repository benchmark's dbpedia-chains workload at seed 1: a
// DBpedia-flavoured graph plus two populous recursive chains (three
// levels of 1 200 entities each, radius 2). The leaf-path join leaves
// 2 392 calls, all paired (one in twelve of 28 704 was, off the
// candidates of any shared value). One op is one pass over all calls;
// beside ns/op it reports
// the calls and, per call, the tuples seeded, the tuples that survive
// in paired relations and the support checks.
func BenchmarkComputePairing(b *testing.B) {
	w, err := gen.DBpedia(gen.FlavorConfig{Seed: 1, Scale: 8})
	if err != nil {
		b.Fatal(err)
	}
	cfg := gen.DefaultSynthetic()
	cfg.Seed, cfg.TypeGroups, cfg.EntitiesPerType, cfg.NearMissFraction = 14, 2, 1200, 0.3
	if err := gen.PlantChains(w, cfg, "c_"); err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	m, err := New(w.Graph, w.Keys, Options{Obs: NewObs(reg)})
	if err != nil {
		b.Fatal(err)
	}
	type call struct {
		ck     *CompiledKey
		e1, e2 graph.NodeID
	}
	var calls []call
	for pr := range m.CandidateStream() {
		e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
		for _, ck := range m.KeysFor(w.Graph.TypeOf(e1)) {
			if m.QuickPaired(ck, e1, e2) {
				calls = append(calls, call{ck, e1, e2})
			}
		}
	}
	before := reg.Snapshot().Counters
	paired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paired = 0
		for _, c := range calls {
			if m.ComputePairing(c.ck, c.e1, c.e2, m.Neighborhood(c.e1), m.Neighborhood(c.e2)).Paired() {
				paired++
			}
		}
	}
	b.StopTimer()
	after := reg.Snapshot().Counters
	perCall := func(name string) float64 {
		return float64(after[name]-before[name]) / float64(b.N*len(calls))
	}
	b.ReportMetric(float64(len(calls)), "calls")
	b.ReportMetric(float64(paired), "paired")
	b.ReportMetric(perCall("match.pairing_tuples_seeded"), "seeded/call")
	b.ReportMetric(perCall("match.pairing_tuples_surviving"), "surviving/call")
	b.ReportMetric(perCall("match.pairing_support_checks"), "checks/call")
}
