package graphkeys_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"graphkeys"
)

// valueEqKeys key t by a constant and a value variable, and r
// recursively by its t.
const valueEqKeys = `
key K for t {
    x -country-> "UK"
    x -name-> n*
}
key KR for r {
    x -title-> n*
    x -of-> $y:t
}`

// Literals are drawn from case variants, so strings.EqualFold equates
// values that exact equality tells apart; "" is no country at all.
var (
	caseNames     = []string{"A", "a", "B", "b"}
	caseCountries = []string{"UK", "uk", "Uk", "fr", ""}
)

// valueEqRepro is two t that differ only in the case of their country,
// and an r of each whose titles differ only in case: under EqualFold,
// K identifies the t and then KR the r.
var valueEqRepro = []byte{0, 0, 1, 0, 0, 0, 1, 2, 0, 1, 3, 1}

type caseTriple struct {
	s, p, o string
	value   bool
}

// caseGraph reads a graph of at most 12 entities off data, three bytes
// an entity: its type (t when even, else r), a name or title drawn from
// caseNames, and either a country drawn from caseCountries (a t) or the
// earlier t it is of (an r). It returns the entities, then the country
// and of triples, then the name and title triples.
func caseGraph(data []byte) (ents [][2]string, links, names []caseTriple) {
	var ts []string
	for i := 0; i+2 < len(data) && len(ents) < 12; i += 3 {
		name, link := caseNames[int(data[i+1])%len(caseNames)], int(data[i+2])
		if data[i]%2 == 0 {
			id := fmt.Sprintf("t%d", len(ents))
			ents, ts = append(ents, [2]string{id, "t"}), append(ts, id)
			if c := caseCountries[link%len(caseCountries)]; c != "" {
				links = append(links, caseTriple{id, "country", c, true})
			}
			names = append(names, caseTriple{id, "name", name, true})
			continue
		}
		id := fmt.Sprintf("r%d", len(ents))
		ents = append(ents, [2]string{id, "r"})
		if len(ts) > 0 {
			links = append(links, caseTriple{id, "of", ts[link%len(ts)], false})
		}
		names = append(names, caseTriple{id, "title", name, true})
	}
	return ents, links, names
}

// agreeUnderValueEq runs every engine at one and two workers on the
// graph data describes, under strings.EqualFold, and a Matcher built
// without the names and titles that then receives them in one Apply.
// It fails the test unless each equals the sequential chase, and
// returns the chase's matches.
func agreeUnderValueEq(t *testing.T, data []byte) []graphkeys.Pair {
	t.Helper()
	ks, err := graphkeys.ParseKeys(valueEqKeys)
	if err != nil {
		t.Fatal(err)
	}
	ents, links, names := caseGraph(data)
	build := func(triples ...[]caseTriple) *graphkeys.Graph {
		g := graphkeys.NewGraph()
		for _, e := range ents {
			if err := g.AddEntity(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		for _, tr := range slices.Concat(triples...) {
			add := g.AddEntityTriple
			if tr.value {
				add = g.AddValueTriple
			}
			if err := add(tr.s, tr.p, tr.o); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	g := build(links, names)
	opts := graphkeys.Options{ValueEq: strings.EqualFold}
	want, err := graphkeys.Match(g, ks, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []graphkeys.Engine{
		graphkeys.Chase, graphkeys.ParallelChase, graphkeys.MapReduce, graphkeys.MapReduceVF2,
		graphkeys.MapReduceOpt, graphkeys.VertexCentric, graphkeys.VertexCentricOpt,
	} {
		for _, workers := range []int{1, 2} {
			opts.Engine, opts.Workers = eng, workers
			got, err := graphkeys.Match(g, ks, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Matches, want.Matches) {
				t.Errorf("%v at %d workers: %v, the chase finds %v", eng, workers, got.Matches, want.Matches)
			}
		}
	}

	m, err := graphkeys.NewMatcher(build(links), ks, graphkeys.Options{ValueEq: strings.EqualFold})
	if err != nil {
		t.Fatal(err)
	}
	d := graphkeys.NewDelta()
	for _, tr := range names {
		d.AddValueTriple(tr.s, tr.p, tr.o)
	}
	if _, _, err := m.Apply(d); err != nil {
		t.Fatal(err)
	}
	if got := m.Result().Matches; !slices.Equal(got, want.Matches) {
		t.Errorf("a Matcher given the names in one Apply: %v, the chase finds %v", got, want.Matches)
	}
	return want.Matches
}

// TestEnginesAgreeUnderValueEq holds every engine and the Matcher to the
// sequential chase under a custom ValueEq, on case-variant constants
// and values: on the repro, where the constant "UK" must admit "uk",
// and on random graphs of the same shape.
func TestEnginesAgreeUnderValueEq(t *testing.T) {
	got := agreeUnderValueEq(t, valueEqRepro)
	want := []graphkeys.Pair{{A: "t0", B: "t1"}, {A: "r2", B: "r3"}}
	if !slices.Equal(got, want) {
		t.Fatalf("the chase finds %v on the repro, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		data := make([]byte, 36)
		rng.Read(data)
		agreeUnderValueEq(t, data)
	}
}

// FuzzEnginesAgreeUnderValueEq is TestEnginesAgreeUnderValueEq over
// arbitrary graphs of the same shape.
func FuzzEnginesAgreeUnderValueEq(f *testing.F) {
	f.Add(valueEqRepro)
	f.Fuzz(func(t *testing.T, data []byte) { agreeUnderValueEq(t, data) })
}
