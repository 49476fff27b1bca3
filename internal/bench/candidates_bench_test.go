package bench

import (
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/gen"
	"graphkeys/internal/match"
)

// candidatesWorkload builds the 1k+ entities-per-type workload the
// value-index acceptance benchmarks run on: one keyed type per chain
// level, radius d, so the full sweep materializes C(1200, 2) ≈ 719k
// pairs per type while the planted duplicates and shared values bound
// the join.
func candidatesWorkload(tb testing.TB, radius int) *gen.Workload {
	tb.Helper()
	cfg := gen.DefaultSynthetic()
	cfg.TypeGroups = 1
	cfg.Chain = 0
	cfg.Radius = radius
	cfg.EntitiesPerType = 1200
	w, err := gen.Synthetic(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// BenchmarkCandidates compares the two stages of the candidate stream:
// the full O(n²) per-type sweep and the leaf-path join, at radius 1
// (the leaf's members are a posting list) and radius 2 (the path is
// walked back from the value).
func BenchmarkCandidates(b *testing.B) {
	for _, bc := range []struct {
		name      string
		radius    int
		fullSweep bool
	}{
		{"sweep/d1", 1, true},
		{"streamed/d1", 1, false},
		{"sweep/d2", 2, true},
		{"streamed/d2", 2, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := candidatesWorkload(b, bc.radius)
			m, err := match.New(w.Graph, w.Keys, match.Options{FullSweep: bc.fullSweep})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				n = 0
				for range m.CandidateStream() {
					n++
				}
			}
			b.ReportMetric(float64(n), "candidates")
		})
	}
}

// BenchmarkChaseCandidates measures the end-to-end effect: the full
// sequential chase over the 1200-entity workload with the O(n²) sweep
// and the joined default.
func BenchmarkChaseCandidates(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts chase.Options
	}{
		{"sweep", chase.Options{Match: match.Options{FullSweep: true}}},
		{"streamed", chase.Options{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := candidatesWorkload(b, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := chase.Run(w.Graph, w.Keys, bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Pairs) != len(w.Expected) {
					b.Fatalf("chase found %d pairs, want %d", len(res.Pairs), len(w.Expected))
				}
			}
		})
	}
}
