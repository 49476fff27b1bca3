package emvc

import (
	"slices"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

// BenchmarkBuildProduct builds the product graph over the candidate
// set of the repository benchmark's dbpedia-chains input at seed 1 (see
// match.BenchmarkComputePairing), where every candidate the leaf-path
// join leaves is paired. Beside ns/op it reports the candidates in and paired,
// |Vp|, and per pairing call the tuples seeded, the tuples surviving in
// paired relations and the support checks.
func BenchmarkBuildProduct(b *testing.B) {
	w := ledgerInput(b)
	reg := obs.NewRegistry()
	m, err := match.New(w.Graph, w.Keys, match.Options{Obs: match.NewObs(reg)})
	if err != nil {
		b.Fatal(err)
	}
	cands := slices.Collect(m.CandidateStream())
	before := reg.Snapshot().Counters
	var prod *Product
	var paired []eqrel.Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, paired = buildProduct(m, cands, 1)
	}
	b.StopTimer()
	after := reg.Snapshot().Counters
	calls := float64(after["match.pairing_calls"] - before["match.pairing_calls"])
	perCall := func(name string) float64 { return float64(after[name]-before[name]) / calls }
	b.ReportMetric(float64(len(cands)), "candidates")
	b.ReportMetric(float64(len(paired)), "paired")
	b.ReportMetric(float64(prod.NumNodes()), "product-nodes")
	b.ReportMetric(perCall("match.pairing_tuples_seeded"), "seeded/call")
	b.ReportMetric(perCall("match.pairing_tuples_surviving"), "surviving/call")
	b.ReportMetric(perCall("match.pairing_support_checks"), "checks/call")
}

// ledgerInput is the dbpedia-chains benchmark input at seed 1.
func ledgerInput(tb testing.TB) *gen.Workload {
	tb.Helper()
	w, err := gen.DBpedia(gen.FlavorConfig{Seed: 1, Scale: 8})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := gen.DefaultSynthetic()
	cfg.Seed, cfg.TypeGroups, cfg.EntitiesPerType, cfg.NearMissFraction = 14, 2, 1200, 0.3
	if err := gen.PlantChains(w, cfg, "c_"); err != nil {
		tb.Fatal(err)
	}
	return w
}
