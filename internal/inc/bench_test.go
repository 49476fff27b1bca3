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
	"graphkeys/internal/keys"
	"graphkeys/internal/obs"
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

// TestIncrementalSpeedup is the acceptance check behind the benchmarks,
// stated in work rather than wall-clock: on a small-delta workload (a
// dozen triples per delta), the incremental passes together must check
// at most a fifth of the candidates that full re-chases of the same
// mutated graphs check, and reach the same pairs. The measured margin is
// about 20×. The wall-clock ratio is logged; BenchmarkIncrementalApply
// and BenchmarkFullRechase time the two sides.
func TestIncrementalSpeedup(t *testing.T) {
	w, deltas := benchWorkload(t, 12)
	e, err := New(w.Graph, w.Keys, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Interleave: for each delta, Apply, then re-chase the identical
	// mutated graph from scratch (also verifying results).
	var checked, candidates int
	var incTime, fullTime time.Duration
	for _, d := range deltas {
		start := time.Now()
		if _, _, err := e.Apply(d); err != nil {
			t.Fatal(err)
		}
		incTime += time.Since(start)
		checked += e.LastStats().Checked

		start = time.Now()
		res, err := chase.Run(w.Graph, w.Keys, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fullTime += time.Since(start)
		candidates += res.Candidates
		if !pairsEqual(e.Eq().Pairs(), res.Pairs) {
			t.Fatal("incremental and full re-chase disagree")
		}
	}
	t.Logf("over %d deltas (|G| = %d, batch = 12 triples): incremental checked %d, full re-chases %d candidates (%.1fx); wall-clock %v vs %v (%.1fx)",
		len(deltas), w.Graph.NumTriples(), checked, candidates, float64(candidates)/float64(max(checked, 1)),
		incTime, fullTime, float64(fullTime)/float64(incTime))
	if 5*checked > candidates {
		t.Fatalf("incremental maintenance checked %d pairs against %d candidates of full re-chases, want at most a fifth", checked, candidates)
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
	e, err := New(w.Graph, w.Keys, Options{})
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

// TestTouchedClassCostsItsSize: a pass that touches a class of k
// entities and leaves it as it was costs O(k), not the k(k−1)/2 pairs
// the class expands to. The pass bookkeeping (touch, then finishPass's
// diff) runs on one class of k entities sharing a key value at k = 64
// and k = 1 024, and the bytes it allocates must grow at most twice as
// fast as k (16×); expanding the pairs grows them by 256×.
func TestTouchedClassCostsItsSize(t *testing.T) {
	perPass := func(k int) float64 {
		g := graph.New()
		for i := 0; i < k; i++ {
			g.MustAddTriple(g.MustAddEntity(fmt.Sprintf("e%d", i), "T"), "p", g.AddValue("shared"))
		}
		set, err := keys.ParseString("key K for T {\n x -p-> v*\n}")
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(g, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		classes := e.Eq().Classes()
		if len(classes) != 1 || len(classes[0]) != k {
			t.Fatalf("k=%d: %d classes, want one of %d", k, len(classes), k)
		}
		root := e.eq.Find(classes[0][0])
		best := uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			e.touch(root)
			added, removed := e.finishPass()
			runtime.ReadMemStats(&after)
			if added != nil || removed != nil {
				t.Fatalf("k=%d: an unchanged class diffs to +%d −%d pairs", k, len(added), len(removed))
			}
			if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < best {
				best = b
			}
		}
		checkIndexes(t, e)
		return float64(best)
	}
	small, large := perPass(64), perPass(1024)
	t.Logf("bytes allocated per touched pass: %.0f at k=64, %.0f at k=1024 (%.1f×)", small, large, large/small)
	if large > 32*small {
		t.Fatalf("touching a class of 1 024 allocates %.0f B against %.0f B for 64: %.1f×, want ≤ 32×", large, small, large/small)
	}
}

// BenchmarkBulkPass times one mid-size repair pass — the bulk /apply
// ROADMAP item 10 asks a parallel repair driver to win on — over the two
// inputs of the repository benchmark at seed 1 (the gen parameters of
// the root package's BenchmarkMatchLedgerInputs): the pass re-adds k
// chain value triples, picked in seeded order, that the pass before
// removed (1.2 % and 4.6 % of dbpedia-chains at k = 400 and 1 600).
// Only the re-adding pass is on the clock. Beside ns/op it reports that
// pass's Stats.Checked, which repeats exactly.
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
			b.Run(fmt.Sprintf("%s/k%d", in.name, k), func(b *testing.B) {
				// Every iteration leaves the graph as it found it, so the
				// sub-benchmarks share one.
				e, err := New(w.Graph, w.Keys, Options{})
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

// classFlipWorkload is the class-size axis of ROADMAP item 41: 2 000
// singleton albums, each with a name and a year of its own, plus one
// class of k albums that share name and year under the key "name and
// year identify an album". It returns an engine over the graph with
// the given instruments and the two deltas of a flip: the first moves
// member 0's year out of the class, the second moves it back.
func classFlipWorkload(tb testing.TB, k int, ob *Obs) (*Engine, [2]*graph.Delta) {
	tb.Helper()
	g := graph.New()
	album := func(id, name, year string) {
		e := g.MustAddEntity(id, "album")
		g.MustAddTriple(e, "name", g.AddValue(name))
		g.MustAddTriple(e, "year", g.AddValue(year))
	}
	for i := 0; i < 2000; i++ {
		album(fmt.Sprintf("s%d", i), fmt.Sprintf("single %d", i), strconv.Itoa(1000+i))
	}
	for i := 0; i < k; i++ {
		album(fmt.Sprintf("c%d", i), "shared", "1999")
	}
	set, err := keys.ParseString("key A for album {\n    x -name-> n*\n    x -year-> y*\n}")
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(g, set, Options{Obs: ob})
	if err != nil {
		tb.Fatal(err)
	}
	out, back := &graph.Delta{}, &graph.Delta{}
	out.RemoveValueTriple("c0", "year", "1999")
	out.AddValueTriple("c0", "year", "2999")
	back.RemoveValueTriple("c0", "year", "2999")
	back.AddValueTriple("c0", "year", "1999")
	return e, [2]*graph.Delta{out, back}
}

// BenchmarkClassFlip times one op on classFlipWorkload at class sizes
// k ∈ {2, 16, 128, 512}: an op moves a member of the class out, the
// next op moves it back. Beside ns/op it reports, per op, the pairs
// the pass seeds its worklist with and the checks it runs.
func BenchmarkClassFlip(b *testing.B) {
	for _, k := range []int{2, 16, 128, 512} {
		b.Run("k"+strconv.Itoa(k), func(b *testing.B) {
			ob := RegisterObs(obs.NewRegistry())
			e, flip := classFlipWorkload(b, k, ob)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Apply(flip[i%2]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if b.N%2 == 1 {
				if _, _, err := e.Apply(flip[1]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(ob.WorklistDepth.Snapshot().Sum)/float64(b.N), "seeds/op")
			b.ReportMetric(float64(ob.Checked.Value())/float64(b.N), "checked/op")
		})
	}
}

// TestClassFlipCostsItsSize is the clock-free guard of the class-size
// axis: at k = 64, the pairs a flip seeds its worklist with
// (inc.worklist_depth) plus the checks it runs (Stats.Checked) stay
// within 4k per op.
func TestClassFlipCostsItsSize(t *testing.T) {
	t.Skip("a flip seeds every pair of the class it splits (ROADMAP item 41): unskip when 41(b) factorises the repair's seeds")
	const k = 64
	ob := RegisterObs(obs.NewRegistry())
	e, flip := classFlipWorkload(t, k, ob)
	for i := 0; i < 8; i++ {
		before := ob.WorklistDepth.Snapshot().Sum
		if _, _, err := e.Apply(flip[i%2]); err != nil {
			t.Fatal(err)
		}
		cost := int(ob.WorklistDepth.Snapshot().Sum-before) + e.LastStats().Checked
		if cost > 4*k {
			t.Fatalf("flip %d in a class of %d: %d seeds plus checks, want ≤ %d", i, k, cost, 4*k)
		}
	}
	if classes := e.Eq().Classes(); len(classes) != 1 || len(classes[0]) != k {
		t.Fatalf("after the flips, %d classes, want the one of %d", len(classes), k)
	}
}
