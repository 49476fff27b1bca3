package match_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/emmr"
	"graphkeys/internal/emvc"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/match"
)

// TestNeighborhoodsBuiltFollowCandidates replays the sequential chase
// through Identified, with and without recursive keys, and holds the
// sequential and parallel chase and EMOptVC to its pairs. Only emmr's
// driver builds d-neighbors, one pair per candidate; none of these
// engines builds any: TestNeighborhoodCallers pins who does.
func TestNeighborhoodsBuiltFollowCandidates(t *testing.T) {
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
			m, err := match.New(g, w.Keys, match.Options{})
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
			want := eq.Pairs()
			for _, p := range []int{1, 2} {
				res, err := chase.Run(g, w.Keys, chase.Options{Parallelism: p})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(res.Pairs, want) {
					t.Fatalf("chain %d, %d entities per type: the replayed chase and chase.Run at p = %d disagree", chain, perType, p)
				}
				vc, err := emvc.Run(g, w.Keys, emvc.Config{P: p, Variant: emvc.Opt})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(vc.Pairs, want) {
					t.Fatalf("chain %d, %d entities per type: the replayed chase and EMOptVC at p = %d disagree", chain, perType, p)
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
	ents := keyedEntities(m)
	want := make([][]graph.NodeID, len(ents))
	for i, e := range ents {
		want[i] = slices.Collect(m.PartnerStream(e))
	}
	const readers = 8
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range ents {
				i := (k + r*len(ents)/readers) % len(ents)
				if got := slices.Collect(m.PartnerStream(ents[i])); !slices.Equal(got, want[i]) {
					t.Errorf("reader %d: PartnerStream(%d) = %v, sequentially %v", r, ents[i], got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatcherSharedByConcurrentCheckers drives one matcher from many
// goroutines at once — the reduced neighborhoods of emmr Opt, whose
// pairing relations share the pooled scratch, and the key checks —
// while eight goroutines ask it for the d-neighbors of the same sides
// in different orders, and while a parallel chase, emmr Opt and emvc
// Opt run on the same graph over matchers of their own. Every set
// handed out equals graph.Neighborhood(e, d). The race leg of CI runs
// it under -race.
func TestMatcherSharedByConcurrentCheckers(t *testing.T) {
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
		for a := range got {
			var members []graph.NodeID
			got[a][i].Each(func(n graph.NodeID) { members = append(members, n) })
			if len(members) != want.Len() || slices.ContainsFunc(members, func(n graph.NodeID) bool { return !want.Contains(n) }) {
				t.Errorf("entity %d: asker %d got %d nodes, graph.Neighborhood %d", e, a, len(members), want.Len())
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

// TestNeighborhoodCallers pins who builds d-neighbors, and so proves
// that the chase, the parallel chase, EMOptVC, Proof.Verify and inc's
// checks build none. Of the non-test Go under internal/ (testdata holds
// the linter's fixtures, not code) and at the repository root,
// graph.Graph and match.Matcher alone declare a method Neighborhood;
// Matcher.Neighborhood is called only from emmr's driver, and
// graph.Neighborhood only from Matcher.Neighborhood and from inc's
// affectedEntities, which collects a repair region. A call site is
// named by its file, its enclosing function and its receiver.
func TestNeighborhoodCallers(t *testing.T) {
	const root = "../.."
	fset := token.NewFileSet()
	var decls, calls []string
	visit := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			name := "package scope"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
				if fd.Recv != nil && name == "Neighborhood" {
					decls = append(decls, rel+" "+types.ExprString(fd.Recv.List[0].Type))
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Neighborhood" {
						calls = append(calls, rel+" in "+name+": "+types.ExprString(sel.X))
					}
				}
				return true
			})
		}
		return nil
	}
	goFile := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !goFile(path) {
			return nil
		}
		return visit(path)
	})
	if err != nil {
		t.Fatal(err)
	}
	top, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range top {
		if !d.IsDir() && goFile(d.Name()) {
			if err := visit(filepath.Join(root, d.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	slices.Sort(decls)
	if want := []string{"internal/graph/neighborhood.go *Graph", "internal/match/match.go *Matcher"}; !slices.Equal(decls, want) {
		t.Errorf("Neighborhood methods: %q, want %q", decls, want)
	}
	slices.Sort(calls)
	calls = slices.Compact(calls)
	want := []string{
		"internal/emmr/emmr.go in Run: m",
		"internal/inc/inc.go in affectedEntities: e.g",
		"internal/match/match.go in Neighborhood: m.G",
	}
	if !slices.Equal(calls, want) {
		t.Errorf("Neighborhood calls: %q, want %q", calls, want)
	}
}

// keyedEntities lists every entity of each keyed type.
func keyedEntities(m *match.Matcher) []graph.NodeID {
	var ents []graph.NodeID
	for _, t := range m.KeyedTypes() {
		ents = append(ents, m.G.EntitiesOfType(t)...)
	}
	return ents
}
