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

// TestNeighborhoodsBuiltFollowCandidates pins what a chase pays for
// d-neighbors: one per distinct side of the pairs it checks — at most
// two per candidate, whatever the graph holds besides — where DriverMR
// line 1 built one per keyed entity. The sequential chase is replayed
// here over the matcher's own calls to see which pairs it checks;
// chase.Run on the same input must build as many. On the generator of
// TestCandidatesPerEntityIndependentOfGraphSize that is 0.4 per keyed
// entity at every size.
func TestNeighborhoodsBuiltFollowCandidates(t *testing.T) {
	built := func(reg *obs.Registry) int {
		return int(reg.Snapshot().Counters["match.neighborhoods_built"])
	}
	for _, perType := range []int{100, 400, 1600} {
		c := gen.DefaultSynthetic()
		c.NearMissFraction = 0.3
		c.EntitiesPerType = perType
		w, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		m, err := match.New(w.Graph, w.Keys, match.Options{Obs: match.NewObs(reg)})
		if err != nil {
			t.Fatal(err)
		}
		pending := slices.Collect(m.CandidateStream())
		candidates := len(pending)
		if got := built(reg); got != 0 {
			t.Fatalf("%d entities per type: %d d-neighbors built before any check", perType, got)
		}
		eq := eqrel.New(w.Graph.NumNodes())
		sides := make(map[int32]bool)
		for changed := true; changed; {
			changed = false
			failed := pending[:0]
			for _, pr := range pending {
				if eq.Same(pr.A, pr.B) {
					continue
				}
				sides[pr.A], sides[pr.B] = true, true
				if ok, _, _ := m.Identified(graph.NodeID(pr.A), graph.NodeID(pr.B), eq); !ok {
					failed = append(failed, pr)
					continue
				}
				eq.Union(pr.A, pr.B)
				changed = true
			}
			pending = failed
		}
		keyed := len(m.KeyedEntities())
		if got := built(reg); got != len(sides) || got > 2*candidates {
			t.Errorf("%d entities per type: %d d-neighbors built for %d distinct sides of %d candidates", perType, got, len(sides), candidates)
		}
		if 5*len(sides) != 2*keyed {
			t.Errorf("%d entities per type: %d sides checked over %d keyed entities, want 0.4 per entity", perType, len(sides), keyed)
		}

		runReg := obs.NewRegistry()
		res, err := chase.Run(w.Graph, w.Keys, chase.Options{Match: match.Options{Obs: match.NewObs(runReg)}})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Pairs, eq.Pairs(m.KeyedEntities())) {
			t.Fatalf("%d entities per type: the replayed chase and chase.Run disagree", perType)
		}
		if got := built(runReg); got != len(sides) {
			t.Errorf("%d entities per type: chase.Run built %d d-neighbors, the pairs it checks have %d distinct sides", perType, got, len(sides))
		}
	}
}

// TestMemoSharedByConcurrentCheckers drives the d-neighbor memo the way
// the engines' workers do, on one matcher at once — the dependency
// index scan (emmr, emvc, the parallel chase), the reduced
// neighborhoods of emmr Opt, the pairing filter of emvc Opt, the key
// checks — while eight goroutines ask for the same sides in different
// orders, and while a parallel chase, emmr Opt and emvc Opt run on the
// same graph over matchers of their own. Every set handed out equals
// graph.Neighborhood(e, d) and every request for one entity returns
// the pointer first published. The race leg of CI runs it under -race.
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
	run(func() { m.BuildDependencyIndexParallel(cands, 4) })
	run(eachCand(func(e1, e2 graph.NodeID) { m.ReducedNeighborhoods(e1, e2) }))
	run(eachCand(func(e1, e2 graph.NodeID) { m.CanBePaired(e1, e2) }))
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
