package graphkeys

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/gen"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// musicGraph rebuilds G1 of the paper through the public API.
func musicGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	for _, e := range []struct{ id, typ string }{
		{"alb1", "album"}, {"alb2", "album"}, {"alb3", "album"},
		{"art1", "artist"}, {"art2", "artist"}, {"art3", "artist"},
	} {
		if err := g.AddEntity(e.id, e.typ); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range [][3]string{
		{"alb1", "name_of", "Anthology 2"},
		{"alb2", "name_of", "Anthology 2"},
		{"alb3", "name_of", "Anthology 2"},
		{"alb1", "release_year", "1996"},
		{"alb2", "release_year", "1996"},
		{"art1", "name_of", "The Beatles"},
		{"art2", "name_of", "The Beatles"},
		{"art3", "name_of", "John Farnham"},
	} {
		if err := g.AddValueTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range [][3]string{
		{"alb1", "recorded_by", "art1"},
		{"alb2", "recorded_by", "art2"},
		{"alb3", "recorded_by", "art3"},
	} {
		if err := g.AddEntityTriple(tr[0], tr[1], tr[2]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

const musicKeysDSL = `
key Q1 for album {
    x -name_of-> name*
    x -recorded_by-> $y:artist
}
key Q2 for album {
    x -name_of-> name*
    x -release_year-> year*
}
key Q3 for artist {
    x -name_of-> name*
    $a:album -recorded_by-> x
}
`

func TestMatchAllEngines(t *testing.T) {
	g := musicGraph(t)
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	engines := []Engine{Chase, MapReduce, MapReduceVF2, MapReduceOpt, VertexCentric, VertexCentricOpt}
	for _, eng := range engines {
		t.Run(eng.String(), func(t *testing.T) {
			res, err := Match(g, ks, Options{Engine: eng, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Matches) != 2 {
				t.Fatalf("matches = %v, want 2 pairs", res.Matches)
			}
			want := map[Pair]bool{
				{A: "alb1", B: "alb2"}: true,
				{A: "art1", B: "art2"}: true,
			}
			for _, m := range res.Matches {
				if !want[m] && !want[Pair{A: m.B, B: m.A}] {
					t.Errorf("unexpected match %v", m)
				}
			}
			if len(res.Classes) != 2 {
				t.Errorf("classes = %v, want 2", res.Classes)
			}
			if res.Engine != eng {
				t.Errorf("result engine = %v", res.Engine)
			}
		})
	}
}

func TestMatchClassesGrouping(t *testing.T) {
	g := NewGraph()
	for i := 1; i <= 3; i++ {
		if err := g.AddEntity(fmt.Sprintf("a%d", i), "album"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(fmt.Sprintf("a%d", i), "name_of", "N"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(fmt.Sprintf("a%d", i), "release_year", "2000"); err != nil {
			t.Fatal(err)
		}
	}
	ks, err := ParseKeys("key Q2 for album {\n x -name_of-> n*\n x -release_year-> y*\n}")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Match(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches = %v, want all 3 pairs", res.Matches)
	}
	if len(res.Classes) != 1 || len(res.Classes[0]) != 3 {
		t.Fatalf("classes = %v, want one class of 3", res.Classes)
	}
	if res.Classes[0][0] != "a1" {
		t.Errorf("class members unsorted: %v", res.Classes[0])
	}
}

// classesByUnionFind groups matches the way buildResult first did — a
// map-backed union-find over the pairs — as the oracle for the classes
// buildResult reads off the sorted pairs: members sorted, classes
// ordered by first member.
func classesByUnionFind(matches []Pair) [][]EntityID {
	parent := make(map[EntityID]EntityID)
	var find func(a EntityID) EntityID
	find = func(a EntityID) EntityID {
		if p, ok := parent[a]; ok && p != a {
			parent[a] = find(p)
			return parent[a]
		}
		parent[a] = a
		return a
	}
	for _, m := range matches {
		parent[find(m.B)] = find(m.A)
	}
	groups := make(map[EntityID][]EntityID)
	for a := range parent {
		groups[find(a)] = append(groups[find(a)], a)
	}
	var out [][]EntityID
	for _, members := range groups {
		sort.Strings(members)
		out = append(out, members)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// TestBuildResultClasses: Result.Classes are the classes of
// Result.Matches on the hand-written fixtures and the three generators
// (which plant classes of two) and on classes of three and two whose
// labels do not sort the way their node IDs do, from the chase and from
// a Matcher's maintained pairs.
func TestBuildResultClasses(t *testing.T) {
	fixed := func(g *graph.Graph, set *keys.Set) func() (*gen.Workload, error) {
		return func() (*gen.Workload, error) { return &gen.Workload{Graph: g, Keys: set}, nil }
	}
	for _, tc := range []struct {
		name  string
		build func() (*gen.Workload, error)
	}{
		{"music", fixed(fixtures.MusicGraph(), fixtures.MusicKeys())},
		{"company", fixed(fixtures.CompanyGraph(), fixtures.CompanyKeys())},
		{"address", fixed(fixtures.AddressGraph(), fixtures.AddressKeys())},
		{"no key matches", fixed(fixtures.AddressGraph(), fixtures.MusicKeys())},
		{"interleaved classes", func() (*gen.Workload, error) {
			// {c, b, f} and {a, e}, inserted c a e b d f: by node ID the
			// runs of the two classes interleave, and neither class is
			// headed by its first label.
			g := graph.New()
			for _, e := range [][2]string{{"c", "N1"}, {"a", "N2"}, {"e", "N2"}, {"b", "N1"}, {"d", "N3"}, {"f", "N1"}} {
				g.MustAddTriple(g.MustAddEntity(e[0], "album"), "name_of", g.AddValue(e[1]))
			}
			set, err := keys.ParseString("key Q for album {\n x -name_of-> n*\n}")
			return &gen.Workload{Graph: g, Keys: set}, err
		}},
		{"synthetic", func() (*gen.Workload, error) { return gen.Synthetic(gen.DefaultSynthetic()) }},
		{"google", func() (*gen.Workload, error) { return gen.Google(gen.FlavorConfig{Seed: 3, Scale: 1}) }},
		{"dbpedia", func() (*gen.Workload, error) { return gen.DBpedia(gen.FlavorConfig{Seed: 3, Scale: 1}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			g, ks := &Graph{g: w.Graph}, &KeySet{set: w.Keys}
			res, err := Match(g, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMatcher(g, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []*Result{res, m.Result()} {
				if want := classesByUnionFind(r.Matches); !reflect.DeepEqual(r.Classes, want) {
					t.Errorf("%d matches: classes = %v, the classes of the matches are %v", len(r.Matches), r.Classes, want)
				}
			}
			t.Logf("%d matches in %d classes", len(res.Matches), len(res.Classes))
		})
	}
}

func TestValidate(t *testing.T) {
	g := musicGraph(t)
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := Validate(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1 || vs[0].Key != "Q2" {
		t.Fatalf("violations = %+v, want one Q2 violation", vs)
	}
}

func TestExplain(t *testing.T) {
	g := musicGraph(t)
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Explain(g, ks, "art1", "art2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(proof.Steps) != 2 {
		t.Fatalf("proof steps = %+v, want 2", proof.Steps)
	}
	if proof.Steps[0].Key != "Q2" || proof.Steps[1].Key != "Q3" {
		t.Errorf("proof keys = %s, %s; want Q2 then Q3", proof.Steps[0].Key, proof.Steps[1].Key)
	}
	if len(proof.Steps[1].Requires) != 1 {
		t.Errorf("Q3 step requires %v", proof.Steps[1].Requires)
	}
	if _, err := Explain(g, ks, "alb1", "alb3", Options{}); err == nil {
		t.Error("Explain succeeded for unidentified pair")
	}
	if _, err := Explain(g, ks, "ghost", "alb1", Options{}); err == nil {
		t.Error("Explain accepted unknown entity")
	}
}

func TestKeySetMeta(t *testing.T) {
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	if ks.Len() != 3 || ks.Size() != 6 {
		t.Errorf("Len=%d Size=%d", ks.Len(), ks.Size())
	}
	if got := ks.Names(); strings.Join(got, ",") != "Q1,Q2,Q3" {
		t.Errorf("Names = %v", got)
	}
	if ks.MaxRadius() != 1 {
		t.Errorf("MaxRadius = %d", ks.MaxRadius())
	}
	if _, cyclic := ks.LongestChain(); !cyclic {
		t.Error("Q1/Q3 are mutually recursive")
	}
	reparsed, err := ParseKeys(ks.Format())
	if err != nil {
		t.Fatalf("Format round trip: %v", err)
	}
	if reparsed.Len() != ks.Len() {
		t.Error("Format round trip changed the set")
	}
}

func TestGraphAccessorsAndErrors(t *testing.T) {
	g := musicGraph(t)
	if g.NumTriples() != 11 || g.NumEntities() != 6 {
		t.Errorf("NumTriples=%d NumEntities=%d", g.NumTriples(), g.NumEntities())
	}
	if tn, ok := g.HasEntity("alb1"); !ok || tn != "album" {
		t.Errorf("HasEntity(alb1) = %q, %v", tn, ok)
	}
	if _, ok := g.HasEntity("ghost"); ok {
		t.Error("HasEntity(ghost) = true")
	}
	if err := g.AddEntity("alb1", "artist"); err == nil {
		t.Error("type conflict accepted")
	}
	if err := g.AddValueTriple("ghost", "p", "v"); err == nil {
		t.Error("unknown subject accepted")
	}
	if err := g.AddEntityTriple("alb1", "p", "ghost"); err == nil {
		t.Error("unknown object accepted")
	}
	if err := g.AddEntityTriple("ghost", "p", "alb1"); err == nil {
		t.Error("unknown subject accepted")
	}
}

// TestWriteRefusesUnreadableNames: a subject written as a comment line
// and an ID holding a tab would not load back, so Write reports them.
func TestWriteRefusesUnreadableNames(t *testing.T) {
	for _, id := range []EntityID{"#x", "a\tb"} {
		g := NewGraph()
		if err := g.AddEntity(id, "T"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(id, "p", "v"); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", id)) {
			t.Errorf("Write of entity %q = %v, want it refused by name", id, err)
		}
	}
}

func TestGraphSerializationRoundTrip(t *testing.T) {
	g := musicGraph(t)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumTriples() != g.NumTriples() {
		t.Error("round trip changed the graph")
	}
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Match(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Match(g2, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Matches) != len(r2.Matches) {
		t.Error("round trip changed the match result")
	}
}

func TestSimilarityOption(t *testing.T) {
	g := NewGraph()
	if err := g.AddEntity("a", "album"); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEntity("b", "album"); err != nil {
		t.Fatal(err)
	}
	_ = g.AddValueTriple("a", "name_of", "anthology")
	_ = g.AddValueTriple("b", "name_of", "ANTHOLOGY")
	_ = g.AddValueTriple("a", "release_year", "1996")
	_ = g.AddValueTriple("b", "release_year", "1996")
	ks, err := ParseKeys("key Q2 for album {\n x -name_of-> n*\n x -release_year-> y*\n}")
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Match(g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Matches) != 0 {
		t.Error("exact match found case-mismatched duplicate")
	}
	ci, err := Match(g, ks, Options{ValueEq: strings.EqualFold})
	if err != nil {
		t.Fatal(err)
	}
	if len(ci.Matches) != 1 {
		t.Error("similarity match missed the duplicate")
	}
}

func TestOptionsValidation(t *testing.T) {
	g := musicGraph(t)
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Match(nil, ks, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Match(g, nil, Options{}); err == nil {
		t.Error("nil keys accepted")
	}
	if _, err := Match(g, ks, Options{Engine: Engine(42)}); err == nil {
		t.Error("unknown engine accepted")
	}
	if _, err := Validate(nil, ks, Options{}); err == nil {
		t.Error("Validate nil graph accepted")
	}
}

// TestExplainNilArguments: Explain answers a nil graph or key set with
// the error Match and Validate give, not a nil dereference.
func TestExplainNilArguments(t *testing.T) {
	g := musicGraph(t)
	ks, err := ParseKeys(musicKeysDSL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Explain(nil, ks, "art1", "art2", Options{}); err == nil {
		t.Error("Explain nil graph accepted")
	}
	if _, err := Explain(g, nil, "art1", "art2", Options{}); err == nil {
		t.Error("Explain nil keys accepted")
	}
}

func TestEngineString(t *testing.T) {
	names := map[Engine]string{
		Chase: "Chase", MapReduce: "EMMR", MapReduceVF2: "EMVF2MR",
		MapReduceOpt: "EMOptMR", VertexCentric: "EMVC", VertexCentricOpt: "EMOptVC",
		Engine(9): "Engine(9)",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
}

func TestParseKeysErrors(t *testing.T) {
	if _, err := ParseKeys("nonsense"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ParseKeys(""); err == nil {
		t.Error("empty key set accepted")
	}
}
