package match_test

import (
	"slices"
	"sync"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/match"
	"graphkeys/internal/obs"
)

// TestNeighborhoodsBuiltFollowCandidates pins what a Match pays for
// d-neighbors now that a check searches G itself (eval.go), the
// dependency index walks the keys' x→y paths and the pairing relation
// grows by the pattern's layers: the sequential chase, a replay of its
// checks through Identified, the parallel chase and EMOptVC build none,
// with and without recursive keys.
func TestNeighborhoodsBuiltFollowCandidates(t *testing.T) {
	built := func(reg *obs.Registry) int {
		return int(reg.Snapshot().Counters["match.neighborhoods_built"])
	}
	for _, chain := range []int{0, 2} {
		for _, perType := range []int{100, 400, 1600} {
			c := gen.DefaultSynthetic()
			c.NearMissFraction = 0.3
			c.EntitiesPerType, c.Chain = perType, chain
			w, err := gen.Synthetic(c)
			if err != nil {
				t.Fatal(err)
			}
			g := w.Graph
			reg := obs.NewRegistry()
			m, err := match.New(g, w.Keys, match.Options{Obs: match.NewObs(reg)})
			if err != nil {
				t.Fatal(err)
			}
			pending := slices.Collect(m.CandidateStream())
			eq := eqrel.New(g.NumNodes())
			for changed := true; changed; {
				changed = false
				failed := pending[:0]
				for _, pr := range pending {
					if eq.Same(pr.A, pr.B) {
						continue
					}
					if ok, _, _ := m.Identified(graph.NodeID(pr.A), graph.NodeID(pr.B), eq); !ok {
						failed = append(failed, pr)
						continue
					}
					eq.Union(pr.A, pr.B)
					changed = true
				}
				pending = failed
			}
			want := eq.Pairs(m.KeyedEntities())
			if got := built(reg); got != 0 {
				t.Errorf("chain %d, %d entities per type: the replayed checks built %d d-neighbors", chain, perType, got)
			}
			for _, p := range []int{1, 2} {
				runReg := obs.NewRegistry()
				res, err := chase.Run(g, w.Keys, chase.Options{Parallelism: p, Match: match.Options{Obs: match.NewObs(runReg)}})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Pairs, want) {
					t.Fatalf("chain %d, %d entities per type: the replayed chase and chase.Run at p = %d disagree", chain, perType, p)
				}
				if got := built(runReg); got != 0 {
					t.Errorf("chain %d, %d entities per type: chase.Run at p = %d built %d d-neighbors", chain, perType, p, got)
				}
				vcReg := obs.NewRegistry()
				vc, err := emvc.Run(g, w.Keys, emvc.Config{P: p, Variant: emvc.Opt, Match: match.Options{Obs: match.NewObs(vcReg)}})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(vc.Pairs, want) {
					t.Fatalf("chain %d, %d entities per type: the replayed chase and EMOptVC at p = %d disagree", chain, perType, p)
				}
				if got := built(vcReg); got != 0 {
					t.Errorf("chain %d, %d entities per type: EMOptVC at p = %d built %d d-neighbors", chain, perType, p, got)
				}
			}
		}
	}
}

// TestPartnerStreamConcurrent reads every keyed entity's PartnerStream
// from eight goroutines on one matcher at once, each starting at a
// different entity: every row equals the one read sequentially. Each
// call makes its own join, so no two share the join's scratch; the race
// leg of CI runs it.
func TestPartnerStreamConcurrent(t *testing.T) {
	c := gen.DefaultSynthetic()
	c.NearMissFraction = 0.3
	w, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := match.New(w.Graph, w.Keys, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ents := m.KeyedEntities()
	want := make([][]graph.NodeID, len(ents))
	for i, e := range ents {
		want[i] = slices.Collect(m.PartnerStream(graph.NodeID(e)))
	}
	const readers = 8
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ents {
				i := (k + r*len(ents)/readers) % len(ents)
				if got := slices.Collect(m.PartnerStream(graph.NodeID(ents[i]))); !slices.Equal(got, want[i]) {
					t.Errorf("reader %d: PartnerStream(%d) = %v, sequentially %v", r, ents[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMemoSharedByConcurrentCheckers drives one matcher from many
// goroutines at once — the reduced neighborhoods of emmr Opt, whose
// pairing relations share the pooled scratch, and the key checks —
// while eight goroutines ask the d-neighbor memo for the same sides in
// different orders, and while a parallel chase, emmr Opt and emvc Opt
// run on the same graph over matchers of their own. The memo's readers
// are emmr's statistics and VF2; a pairing relation reads none. Every
// set handed out equals graph.Neighborhood(e, d) and every request for
// one entity returns the pointer first published. The race leg of CI
// runs it under -race.
func TestMemoSharedByConcurrentCheckers(t *testing.T) {
	c := gen.DefaultSynthetic()
	c.NearMissFraction = 0.3
	w, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	g, set := w.Graph, w.Keys
	m, err := match.New(g, set, match.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cands := slices.Collect(m.CandidateStream())
	var sides []graph.NodeID
	for _, pr := range cands {
		sides = append(sides, graph.NodeID(pr.A), graph.NodeID(pr.B))
	}
	slices.Sort(sides)
	sides = slices.Compact(sides)

	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	eachCand := func(fn func(e1, e2 graph.NodeID)) func() {
		return func() {
			for _, pr := range cands {
				fn(graph.NodeID(pr.A), graph.NodeID(pr.B))
			}
		}
	}
	run(eachCand(func(e1, e2 graph.NodeID) { m.ReducedNeighborhoods(e1, e2) }))
	run(eachCand(func(e1, e2 graph.NodeID) { m.Identified(e1, e2, match.Identity()) }))
	const askers = 8
	got := make([][]*graph.NodeSet, askers)
	for a := range got {
		got[a] = make([]*graph.NodeSet, len(sides))
		run(func() {
			for k := range sides {
				i := (k + a*len(sides)/askers) % len(sides)
				if a%2 == 1 {
					i = len(sides) - 1 - i
				}
				got[a][i] = m.Neighborhood(sides[i])
				if again := m.Neighborhood(sides[i]); again != got[a][i] {
					t.Errorf("asker %d: two requests for entity %d returned different sets", a, sides[i])
				}
			}
		})
	}
	var pairs [3][]eqrel.Pair
	var errs [3]error
	run(func() {
		res, err := chase.Run(g, set, chase.Options{Parallelism: 4})
		if errs[0] = err; err == nil {
			pairs[0] = res.Pairs
		}
	})
	run(func() {
		res, err := emmr.Run(g, set, emmr.Config{P: 4, Variant: emmr.Opt})
		if errs[1] = err; err == nil {
			pairs[1] = res.Pairs
		}
	})
	run(func() {
		res, err := emvc.Run(g, set, emvc.Config{P: 4, Variant: emvc.Opt})
		if errs[2] = err; err == nil {
			pairs[2] = res.Pairs
		}
	})
	wg.Wait()

	for i, e := range sides {
		want := g.Neighborhood(e, set.MaxRadiusForType(g.TypeName(g.TypeOf(e))))
		var members []graph.NodeID
		got[0][i].Each(func(n graph.NodeID) { members = append(members, n) })
		if len(members) != want.Len() || slices.ContainsFunc(members, func(n graph.NodeID) bool { return !want.Contains(n) }) {
			t.Errorf("entity %d: the memo holds %d nodes, graph.Neighborhood %d", e, len(members), want.Len())
		}
		for a := range got {
			if got[a][i] != got[0][i] {
				t.Errorf("entity %d: askers 0 and %d hold different sets", e, a)
			}
		}
	}
	seq, err := chase.Run(g, set, chase.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"parallel chase", "emmr Opt", "emvc Opt"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if !slices.Equal(pairs[i], seq.Pairs) {
			t.Errorf("%s: %d pairs, the sequential chase %d", name, len(pairs[i]), len(seq.Pairs))
		}
	}
}
