// Benchmarks regenerating the experimental study of "Keys for Graphs"
// (§6): one benchmark per figure panel of Fig. 8 plus Table 2 and the
// optimization ablations. Each sub-benchmark fixes one x-axis point of
// the corresponding panel and one algorithm, so `go test -bench=.`
// produces the full series. cmd/embench prints the same experiments as
// formatted tables (see the Benchmarks section of README.md).
package graphkeys_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"graphkeys"
	"graphkeys/internal/bench"
	"graphkeys/internal/chase"
	"graphkeys/internal/emvc"
	"graphkeys/internal/engine"
	"graphkeys/internal/gen"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

// benchScale keeps a single iteration in the low-millisecond range so
// the full suite stays runnable; scale up via cmd/embench for larger
// runs.
const benchScale = 0.35

var (
	workloadMu    sync.Mutex
	workloadCache = map[string]*gen.Workload{}
)

// workload builds (and caches) the workload for a dataset and key
// parameters.
func workload(b *testing.B, ds bench.Dataset, scale float64, c, d int) *gen.Workload {
	b.Helper()
	key := fmt.Sprintf("%v-%v-%d-%d", ds, scale, c, d)
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[key]; ok {
		return w
	}
	w, err := bench.Build(ds, bench.BuildConfig{Seed: 1, Scale: scale, C: c, D: d})
	if err != nil {
		b.Fatal(err)
	}
	workloadCache[key] = w
	return w
}

// runAlgo runs one algorithm once; RunAlgo validates the result.
func runAlgo(b *testing.B, w *gen.Workload, a bench.Algo, p int) {
	b.Helper()
	if _, err := bench.RunAlgo(w, a, p); err != nil {
		b.Fatal(err)
	}
}

// exp1 is the Fig. 8(a)/(e)/(i) shape: all algorithms, varying p.
func exp1(b *testing.B, ds bench.Dataset) {
	w := workload(b, ds, benchScale, 2, 2)
	algos := []bench.Algo{bench.AlgoEMMR, bench.AlgoEMOptMR, bench.AlgoEMVC, bench.AlgoEMOptVC}
	for _, p := range []int{4, 8, 12, 16, 20} {
		for _, a := range algos {
			b.Run(fmt.Sprintf("p%02d/%v", p, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runAlgo(b, w, a, p)
				}
			})
		}
	}
}

// exp2 is the Fig. 8(b)/(f)/(j) shape: varying the scale factor, p=4.
func exp2(b *testing.B, ds bench.Dataset) {
	for _, s := range []float64{0.2, 0.6, 1.0} {
		w := workload(b, ds, s*benchScale, 2, 2)
		for _, a := range []bench.Algo{bench.AlgoEMOptMR, bench.AlgoEMOptVC} {
			b.Run(fmt.Sprintf("scale%.1f/%v", s, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runAlgo(b, w, a, 4)
				}
			})
		}
	}
}

// exp3c is the Fig. 8(c)/(g)/(k) shape: varying the dependency chain c.
func exp3c(b *testing.B, ds bench.Dataset) {
	for _, c := range []int{1, 3, 5} {
		w := workload(b, ds, benchScale, c, 2)
		for _, a := range []bench.Algo{bench.AlgoEMOptMR, bench.AlgoEMOptVC} {
			b.Run(fmt.Sprintf("c%d/%v", c, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runAlgo(b, w, a, 4)
				}
			})
		}
	}
}

// exp3d is the Fig. 8(d)/(h)/(l) shape: varying the key radius d.
func exp3d(b *testing.B, ds bench.Dataset) {
	for _, d := range []int{1, 2, 3} {
		w := workload(b, ds, benchScale, 2, d)
		for _, a := range []bench.Algo{bench.AlgoEMOptMR, bench.AlgoEMOptVC} {
			b.Run(fmt.Sprintf("d%d/%v", d, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					runAlgo(b, w, a, 4)
				}
			})
		}
	}
}

func BenchmarkFig8aVaryPGoogle(b *testing.B)    { exp1(b, bench.GoogleDS) }
func BenchmarkFig8bVaryGGoogle(b *testing.B)    { exp2(b, bench.GoogleDS) }
func BenchmarkFig8cVaryCGoogle(b *testing.B)    { exp3c(b, bench.GoogleDS) }
func BenchmarkFig8dVaryDGoogle(b *testing.B)    { exp3d(b, bench.GoogleDS) }
func BenchmarkFig8eVaryPDBpedia(b *testing.B)   { exp1(b, bench.DBpediaDS) }
func BenchmarkFig8fVaryGDBpedia(b *testing.B)   { exp2(b, bench.DBpediaDS) }
func BenchmarkFig8gVaryCDBpedia(b *testing.B)   { exp3c(b, bench.DBpediaDS) }
func BenchmarkFig8hVaryDDBpedia(b *testing.B)   { exp3d(b, bench.DBpediaDS) }
func BenchmarkFig8iVaryPSynthetic(b *testing.B) { exp1(b, bench.SyntheticDS) }
func BenchmarkFig8jVaryGSynthetic(b *testing.B) { exp2(b, bench.SyntheticDS) }
func BenchmarkFig8kVaryCSynthetic(b *testing.B) { exp3c(b, bench.SyntheticDS) }
func BenchmarkFig8lVaryDSynthetic(b *testing.B) { exp3d(b, bench.SyntheticDS) }

// BenchmarkTable2Candidates reproduces Table 2: the optimized
// algorithms per dataset; candidate and confirmed counts are reported
// as benchmark metrics.
func BenchmarkTable2Candidates(b *testing.B) {
	for _, ds := range []bench.Dataset{bench.GoogleDS, bench.DBpediaDS, bench.SyntheticDS} {
		w := workload(b, ds, benchScale, 2, 2)
		for _, a := range []bench.Algo{bench.AlgoEMOptVC, bench.AlgoEMOptMR} {
			b.Run(fmt.Sprintf("%v/%v", ds, a), func(b *testing.B) {
				var cands, confirmed int
				for i := 0; i < b.N; i++ {
					m, err := bench.RunAlgo(w, a, 4)
					if err != nil {
						b.Fatal(err)
					}
					cands, confirmed = m.Candidates, m.Pairs
				}
				b.ReportMetric(float64(cands), "candidates")
				b.ReportMetric(float64(confirmed), "confirmed")
			})
		}
	}
}

// BenchmarkAblationGuidedVsVF2 measures the EvalMR guided search with
// early termination against the VF2 enumerate-all baseline (the EMMR
// vs EMVF2MR comparison of §6).
func BenchmarkAblationGuidedVsVF2(b *testing.B) {
	w := workload(b, bench.SyntheticDS, benchScale, 2, 2)
	for _, a := range []bench.Algo{bench.AlgoEMMR, bench.AlgoEMVF2MR} {
		b.Run(a.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, w, a, 4)
			}
		})
	}
}

// BenchmarkAblationPairing measures the §4.2 optimizations (EMOptMR vs
// EMMR).
func BenchmarkAblationPairing(b *testing.B) {
	w := workload(b, bench.SyntheticDS, benchScale, 2, 2)
	for _, a := range []bench.Algo{bench.AlgoEMMR, bench.AlgoEMOptMR} {
		b.Run(a.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, w, a, 4)
			}
		})
	}
}

// BenchmarkAblationBoundedMessages measures bounded messages and
// prioritized propagation (EMOptVC vs EMVC, §5.2).
func BenchmarkAblationBoundedMessages(b *testing.B) {
	w := workload(b, bench.SyntheticDS, benchScale, 2, 2)
	for _, a := range []bench.Algo{bench.AlgoEMVC, bench.AlgoEMOptVC} {
		b.Run(a.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runAlgo(b, w, a, 4)
			}
		})
	}
}

// ledgerInputs are benchmark/'s two inputs at seed 1 (benchmark/
// entrypoints.go, genWorkload): dbpedia-chains is the DBpedia flavour at
// scale 8 plus two recursive chains of 1 200 entities per type,
// google-chains the Google flavour at scale 16 plus chains of 384.
var ledgerInputs = []struct {
	name    string
	flavor  func(gen.FlavorConfig) (*gen.Workload, error)
	scale   float64
	perType int
}{
	{"dbpedia-chains", gen.DBpedia, 8, 1200},
	{"google-chains", gen.Google, 16, 384},
}

// ledgerInput generates input i of ledgerInputs and returns it with its
// graph in the text format emserve reads.
func ledgerInput(b *testing.B, i int) (*gen.Workload, []byte) {
	b.Helper()
	in := ledgerInputs[i]
	w, err := in.flavor(gen.FlavorConfig{Seed: 1, Scale: in.scale})
	if err != nil {
		b.Fatal(err)
	}
	err = gen.PlantChains(w, gen.SyntheticConfig{
		Seed: 14, TypeGroups: 2, EntitiesPerType: in.perType,
		DupFraction: 0.2, NearMissFraction: 0.3, Chain: 2, Radius: 2,
		Labels: 6000, NoiseEdgesPerEntity: 1,
	}, "c_")
	if err != nil {
		b.Fatal(err)
	}
	var text bytes.Buffer
	if err := w.Graph.WriteText(&text); err != nil {
		b.Fatal(err)
	}
	return w, text.Bytes()
}

// BenchmarkMatchLedgerInputs times one Match on benchmark/'s two inputs
// with each engine its batch stage runs: Chase (match_s), ParallelChase
// (match_parallel_s) and VertexCentricOpt (match_vcopt_s), at the
// default worker count as there. Beside ns/op and allocations it
// reports the candidates and the d-neighbours one run of the engine
// builds, counted by an instrumented run of the same engine on the same
// input outside the timer.
func BenchmarkMatchLedgerInputs(b *testing.B) {
	p := engine.Workers(0)
	engines := []struct {
		engine graphkeys.Engine
		// counted runs the engine on the generated input with mo.
		counted func(w *gen.Workload, mo match.Options) (pairs int, err error)
	}{
		{graphkeys.Chase, func(w *gen.Workload, mo match.Options) (int, error) {
			res, err := chase.Run(w.Graph, w.Keys, chase.Options{Match: mo})
			if err != nil {
				return 0, err
			}
			return len(res.Pairs), nil
		}},
		{graphkeys.ParallelChase, func(w *gen.Workload, mo match.Options) (int, error) {
			res, err := chase.Run(w.Graph, w.Keys, chase.Options{Match: mo, Parallelism: p})
			if err != nil {
				return 0, err
			}
			return len(res.Pairs), nil
		}},
		{graphkeys.VertexCentricOpt, func(w *gen.Workload, mo match.Options) (int, error) {
			res, err := emvc.Run(w.Graph, w.Keys, emvc.Config{P: p, Variant: emvc.Opt, Match: mo})
			if err != nil {
				return 0, err
			}
			return len(res.Pairs), nil
		}},
	}
	for i, in := range ledgerInputs {
		w, text := ledgerInput(b, i)
		seq, err := chase.Run(w.Graph, w.Keys, chase.Options{})
		if err != nil {
			b.Fatal(err)
		}
		g, err := graphkeys.LoadGraph(bytes.NewReader(text))
		if err != nil {
			b.Fatal(err)
		}
		ks, err := graphkeys.ParseKeys(w.Keys.Format())
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range engines {
			b.Run(in.name+"/"+eng.engine.String(), func(b *testing.B) {
				reg := obs.NewRegistry()
				pairs, err := eng.counted(w, match.Options{Obs: match.NewObs(reg)})
				if err != nil {
					b.Fatal(err)
				}
				if pairs != len(seq.Pairs) {
					b.Fatalf("the instrumented run found %d pairs, the chase %d", pairs, len(seq.Pairs))
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: eng.engine})
					if err != nil {
						b.Fatal(err)
					}
					if len(res.Matches) != len(seq.Pairs) {
						b.Fatalf("Match found %d pairs, the chase of the generated graph %d", len(res.Matches), len(seq.Pairs))
					}
				}
				b.ReportMetric(float64(seq.Candidates), "candidates")
				b.ReportMetric(float64(reg.Snapshot().Counters["match.neighborhoods_built"]), "nbhds-built/op")
			})
		}
	}
}

// BenchmarkColdStart times the three ways a durable matcher comes to
// hold a whole graph, on the ledger's inputs under DurabilityFsync:
// seed is what emserve pays on a fresh directory (graph text → LoadGraph
// → SeedMatcher, serving at seq 1), reopen is OpenMatcher on a directory
// seeded that way, and bulk-delta is the whole graph applied as one
// delta to an empty durable matcher — what a bulk /apply pays, one
// planned and logged op per entity and triple (reported as ops).
// Beside them, snapshot is one Matcher.Snapshot of a seeded matcher:
// the time it holds the matcher's lock.
func BenchmarkColdStart(b *testing.B) {
	opts := graphkeys.Options{Durability: graphkeys.DurabilityFsync}
	for i, in := range ledgerInputs {
		w, text := ledgerInput(b, i)
		ks, err := graphkeys.ParseKeys(w.Keys.Format())
		if err != nil {
			b.Fatal(err)
		}
		load := func(b *testing.B) *graphkeys.Graph {
			g, err := graphkeys.LoadGraph(bytes.NewReader(text))
			if err != nil {
				b.Fatal(err)
			}
			return g
		}
		// run times start once per iteration, each on its own directory,
		// and closes the matcher outside the timer.
		run := func(b *testing.B, start func(dir string) (*graphkeys.Matcher, error)) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				b.StartTimer()
				m, err := start(dir)
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if m.Seq() != 1 || m.Graph().NumTriples() != w.Graph.NumTriples() {
					b.Fatalf("started at seq %d with %d triples, want 1 and %d", m.Seq(), m.Graph().NumTriples(), w.Graph.NumTriples())
				}
				if err := m.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.Run(in.name+"/seed", func(b *testing.B) {
			run(b, func(dir string) (*graphkeys.Matcher, error) {
				return graphkeys.SeedMatcher(dir, load(b), ks, opts)
			})
		})
		b.Run(in.name+"/reopen", func(b *testing.B) {
			seeded := b.TempDir()
			m, err := graphkeys.SeedMatcher(seeded, load(b), ks, opts)
			if err != nil {
				b.Fatal(err)
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			run(b, func(string) (*graphkeys.Matcher, error) {
				return graphkeys.OpenMatcher(seeded, ks, opts)
			})
		})
		b.Run(in.name+"/snapshot", func(b *testing.B) {
			m, err := graphkeys.SeedMatcher(b.TempDir(), load(b), ks, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := m.Snapshot(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(in.name+"/bulk-delta", func(b *testing.B) {
			g, whole := load(b), graphkeys.NewDelta()
			g.EachEntity(func(id graphkeys.EntityID, typeName string) { whole.AddEntity(id, typeName) })
			g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
				if isValue {
					whole.AddValueTriple(s, p, o)
				} else {
					whole.AddEntityTriple(s, p, o)
				}
			})
			run(b, func(dir string) (*graphkeys.Matcher, error) {
				m, err := graphkeys.OpenMatcher(dir, ks, opts)
				if err != nil {
					return nil, err
				}
				_, _, err = m.Apply(whole)
				return m, err
			})
			b.ReportMetric(float64(whole.Len()), "ops")
		})
	}
}
