package chase

import (
	"fmt"
	"reflect"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/match"
)

// diffCase is one graph/key-set workload the parallel chase must agree
// with the sequential chase on.
type diffCase struct {
	name string
	g    *graph.Graph
	set  *keys.Set
}

func diffCases(t *testing.T) []diffCase {
	t.Helper()
	cases := []diffCase{
		{"music", fixtures.MusicGraph(), fixtures.MusicKeys()},
		{"company", fixtures.CompanyGraph(), fixtures.CompanyKeys()},
		{"address", fixtures.AddressGraph(), fixtures.AddressKeys()},
		{"music-allkeys", fixtures.MusicGraph(), fixtures.AllKeys()},
	}
	for seed := int64(1); seed <= 4; seed++ {
		cfg := gen.DefaultSynthetic()
		cfg.Seed = seed
		cfg.EntitiesPerType = 18 + int(seed)*7
		cfg.Chain = 1 + int(seed)%3
		cfg.Radius = 1 + int(seed)%2
		w, err := gen.Synthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, diffCase{fmt.Sprintf("synthetic-%d", seed), w.Graph, w.Keys})
	}
	for _, flavor := range []struct {
		name  string
		build func(gen.FlavorConfig) (*gen.Workload, error)
	}{{"google", gen.Google}, {"dbpedia", gen.DBpedia}} {
		w, err := flavor.build(gen.FlavorConfig{Seed: 7, Scale: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, diffCase{flavor.name, w.Graph, w.Keys})
	}
	return cases
}

// TestParallelMatchesSequential is the acceptance differential: on
// every fixture and random generator workload, at several worker
// counts, the parallel chase returns byte-identical Pairs to the
// sequential reference — the Church–Rosser property made executable —
// and so does either driver over the full sweep (p = 1 is the
// sequential driver).
func TestParallelMatchesSequential(t *testing.T) {
	for _, tc := range diffCases(t) {
		seq, err := Run(tc.g, tc.set, Options{})
		if err != nil {
			t.Fatalf("%s: sequential: %v", tc.name, err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			for _, full := range []bool{false, true} {
				par, err := Run(tc.g, tc.set, Options{Parallelism: p, Match: match.Options{FullSweep: full}})
				if err != nil {
					t.Fatalf("%s p=%d full=%v: %v", tc.name, p, full, err)
				}
				if !reflect.DeepEqual(seq.Pairs, par.Pairs) {
					t.Errorf("%s p=%d full=%v: parallel pairs diverge\nseq: %v\npar: %v",
						tc.name, p, full, seq.Pairs, par.Pairs)
				}
			}
		}
	}
}

// TestParallelStepsFormValidChasingSequence replays the recorded step
// log of a parallel run: every step's Requires must already hold in
// the relation built from the steps before it, and the replayed
// relation must reach the same fixpoint.
func TestParallelStepsFormValidChasingSequence(t *testing.T) {
	for _, tc := range diffCases(t) {
		res, err := Run(tc.g, tc.set, Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		replay := newReplayEq(tc.g.NumNodes())
		for i, st := range res.Steps {
			for _, rq := range st.Requires {
				if !replay.Same(rq.A, rq.B) {
					t.Fatalf("%s: step %d (%v by %s) requires %v before it holds",
						tc.name, i, st.Pair, st.Key, rq)
				}
			}
			replay.Union(st.Pair.A, st.Pair.B)
		}
		for _, pr := range res.Pairs {
			if !replay.Same(pr.A, pr.B) {
				t.Fatalf("%s: replayed steps do not derive pair %v", tc.name, pr)
			}
		}
	}
}

// TestParallelProofsStillProve runs the proof extraction over a
// parallel result, exercising Result.Prove on a concurrent step log.
func TestParallelProofsStillProve(t *testing.T) {
	g, set := fixtures.MusicGraph(), fixtures.MusicKeys()
	res, err := Run(g, set, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range res.Pairs {
		proof, err := res.Prove(graph.NodeID(pr.A), graph.NodeID(pr.B))
		if err != nil {
			t.Fatalf("Prove(%v): %v", pr, err)
		}
		if len(proof.Steps) == 0 {
			t.Fatalf("Prove(%v): empty proof", pr)
		}
	}
}

// replayEq is a minimal union-find for replay checks, independent of
// eqrel to keep the test's trust base small.
type replayEq struct{ parent []int32 }

func newReplayEq(n int) *replayEq {
	r := &replayEq{parent: make([]int32, n)}
	for i := range r.parent {
		r.parent[i] = int32(i)
	}
	return r
}

func (r *replayEq) find(a int32) int32 {
	for r.parent[a] != a {
		r.parent[a] = r.parent[r.parent[a]]
		a = r.parent[a]
	}
	return a
}
func (r *replayEq) Same(a, b int32) bool { return r.find(a) == r.find(b) }
func (r *replayEq) Union(a, b int32)     { r.parent[r.find(a)] = r.find(b) }
