package inc

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphkeys/internal/chase"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
)

// benchWorkload builds a synthetic graph big enough that whole-graph
// re-chase costs (matcher construction, candidate generation, candidate
// checks) dominate, plus a cycle of small fixed-size deltas — the
// steady-state workload of a mutating store, where a write touches a
// handful of triples regardless of how big the graph has grown.
func benchWorkload(tb testing.TB, batch int) (*gen.Workload, []*graph.Delta) {
	tb.Helper()
	cfg := gen.DefaultSynthetic()
	cfg.TypeGroups = 3
	cfg.EntitiesPerType = 200
	w, err := gen.Synthetic(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// Deltas: remove a random small batch, then re-add it, repeatedly.
	rng := rand.New(rand.NewSource(42))
	trs := w.Graph.Triples()
	var deltas []*graph.Delta
	for cycle := 0; cycle < 4; cycle++ {
		recs := make([]tripleRec, 0, batch)
		for i := 0; i < batch; i++ {
			recs = append(recs, recordTriple(w.Graph, trs[rng.Intn(len(trs))]))
		}
		rem, add := &graph.Delta{}, &graph.Delta{}
		for _, r := range recs {
			r.removeOp(rem)
			r.addOp(add)
		}
		deltas = append(deltas, rem, add)
	}
	return w, deltas
}

// BenchmarkIncrementalApply measures maintaining the fixpoint through
// small deltas (a dozen triples each).
func BenchmarkIncrementalApply(b *testing.B) {
	w, deltas := benchWorkload(b, 12)
	e, err := New(w.Graph, w.Keys, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Apply(deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullRechase measures the from-scratch alternative: after
// each delta, recompute chase(G, Σ) with the sequential engine.
func BenchmarkFullRechase(b *testing.B) {
	w, deltas := benchWorkload(b, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Graph.ApplyDelta(deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
		if _, err := chase.Run(w.Graph, w.Keys, chase.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSeedApply measures the cold start of a durable matcher: the
// whole graph as one delta onto an empty engine, the pass that takes
// the rebuild path of repair. It reports the pass's checks against the
// candidates of a sequential chase of the same graph (1 when the pass
// is one chase).
func BenchmarkSeedApply(b *testing.B) {
	w, _ := benchWorkload(b, 0)
	seed := deltaOf(graphOps(w.Graph, rand.New(rand.NewSource(1))))
	full, err := chase.Run(w.Graph, w.Keys, chase.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(graph.New(), w.Keys, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := e.Apply(seed); err != nil {
			b.Fatal(err)
		}
		st = e.LastStats()
	}
	b.ReportMetric(float64(st.Checked)/float64(full.Candidates), "checks/candidate")
}

// TestIncrementalSpeedup is the acceptance check behind the benchmarks:
// on a small-delta workload (a dozen triples per delta), incremental
// maintenance must beat full re-chase by at least 5x. The measured
// margin is far larger; 5x keeps the test robust on noisy CI machines.
// (Before value-indexed candidate generation the full re-chase was
// quadratic in the per-type population and the margin was larger
// still; the baseline here is the improved, indexed chase.)
func TestIncrementalSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	w, deltas := benchWorkload(t, 12)
	e, err := New(w.Graph, w.Keys, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave: for each delta, time Apply, then time the full
	// re-chase on the identical mutated graph (also verifying results).
	var incTime, fullTime time.Duration
	for _, d := range deltas {
		start := time.Now()
		if _, _, err := e.Apply(d); err != nil {
			t.Fatal(err)
		}
		incTime += time.Since(start)

		start = time.Now()
		res, err := chase.Run(w.Graph, w.Keys, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fullTime += time.Since(start)
		if !pairsEqual(e.Pairs(), res.Pairs) {
			t.Fatal("incremental and full re-chase disagree")
		}
	}
	speedup := float64(fullTime) / float64(incTime)
	t.Logf("full re-chase %v, incremental %v: %.1fx speedup over %d deltas (|G| = %d, batch = 12 triples)",
		fullTime, incTime, speedup, len(deltas), w.Graph.NumTriples())
	if speedup < 5 {
		t.Fatalf("incremental maintenance only %.1fx faster than full re-chase, want >= 5x", speedup)
	}
}

// flipWorkload builds the planted-chain workload at the given multiple
// of a fixed per-type population, an engine over it, and a stream of
// single-triple flips: triples picked at even strides from the
// witnesses of the initial chasing sequence, so removing one always
// drops a step and putting it back re-derives it. The stride keeps the
// mix of chain levels the same at every scale.
func flipWorkload(tb testing.TB, scale int) (*Engine, []tripleRec) {
	tb.Helper()
	cfg := gen.DefaultSynthetic()
	cfg.TypeGroups = 2
	cfg.EntitiesPerType = 100 * scale
	cfg.NoiseEdgesPerEntity = 0
	w, err := gen.Synthetic(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(w.Graph, w.Keys, Options{Parallelism: 1})
	if err != nil {
		tb.Fatal(err)
	}
	const flips = 32
	steps := e.Steps()
	if len(steps) < flips {
		tb.Fatalf("only %d steps to pick %d flips from", len(steps), flips)
	}
	recs := make([]tripleRec, flips)
	for i := range recs {
		recs[i] = recordTriple(w.Graph, steps[i*len(steps)/flips].Uses[0])
	}
	return e, recs
}

// applyFlip removes the triple and puts it back: two single-op passes.
func applyFlip(tb testing.TB, e *Engine, rec tripleRec) {
	rem, add := &graph.Delta{}, &graph.Delta{}
	rec.removeOp(rem)
	rec.addOp(add)
	for _, d := range []*graph.Delta{rem, add} {
		if _, _, err := e.Apply(d); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkApplySingleFlip measures one single-op maintenance pass on
// the same workload at two sizes: the cost of a pass should follow the
// delta, not the graph.
func BenchmarkApplySingleFlip(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(strconv.Itoa(scale)+"x", func(b *testing.B) {
			e, recs := flipWorkload(b, scale)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				applyFlip(b, e, recs[(i/2)%len(recs)])
			}
		})
	}
}

// TestApplyCostIndependentOfGraphSize is the clock-free form of the
// benchmark above: the bytes a single-op pass allocates must not grow
// with the graph. The same 64 passes (32 triples removed and put back)
// run on the workload at 1× and 4× entities per type; one untimed cycle
// first lets slices and maps reach their steady capacity.
func TestApplyCostIndependentOfGraphSize(t *testing.T) {
	perApply := func(scale int) float64 {
		e, recs := flipWorkload(t, scale)
		cycle := func() {
			for _, rec := range recs {
				applyFlip(t, e, rec)
			}
		}
		cycle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		checkIndexes(t, e)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(2*len(recs))
	}
	small, large := perApply(1), perApply(4)
	t.Logf("bytes allocated per Apply: %.0f at 1×, %.0f at 4× (%.2f×)", small, large, large/small)
	if large > 1.25*small {
		t.Fatalf("a single-op Apply allocates %.0f B on the 4× graph against %.0f B at 1×: %.2f×, want ≤ 1.25×", large, small, large/small)
	}
}

// BenchmarkBulkPass times one mid-size repair pass — the bulk /apply
// ROADMAP item 10 asks a parallel repair driver to win on — over the two
// inputs of the repository benchmark at seed 1 (the gen parameters of
// the root package's BenchmarkMatchLedgerInputs): the pass re-adds k
// chain value triples, picked in seeded order, that the pass before
// removed (1.2 % and 4.6 % of dbpedia-chains at k = 400 and 1 600),
// at Parallelism 1 and 2. Only the re-adding pass is on the clock.
// Beside ns/op it reports that pass's Stats.Checked, which repeats
// exactly and is the same at both worker counts.
func BenchmarkBulkPass(b *testing.B) {
	for _, in := range []struct {
		name    string
		flavor  func(gen.FlavorConfig) (*gen.Workload, error)
		scale   float64
		perType int
	}{
		{"dbpedia-chains", gen.DBpedia, 8, 1200},
		{"google-chains", gen.Google, 16, 384},
	} {
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
		var chain []tripleRec
		for _, tr := range w.Graph.Triples() {
			if rec := recordTriple(w.Graph, tr); rec.objIsValue && strings.HasPrefix(rec.subj, "c_") {
				chain = append(chain, rec)
			}
		}
		rand.New(rand.NewSource(1)).Shuffle(len(chain), func(i, j int) { chain[i], chain[j] = chain[j], chain[i] })
		for _, k := range []int{64, 400, 1600} {
			rem, add := &graph.Delta{}, &graph.Delta{}
			for _, rec := range chain[:k] {
				rec.removeOp(rem)
				rec.addOp(add)
			}
			for _, p := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/k%d/p%d", in.name, k, p), func(b *testing.B) {
					// Every iteration leaves the graph as it found it, so
					// the sub-benchmarks share one.
					e, err := New(w.Graph, w.Keys, Options{Parallelism: p})
					if err != nil {
						b.Fatal(err)
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						if _, _, err := e.Apply(rem); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
						if _, _, err := e.Apply(add); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(e.LastStats().Checked), "checked/pass")
				})
			}
		}
	}
}
