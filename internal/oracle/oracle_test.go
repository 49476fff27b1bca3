package oracle_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/fixtures"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/oracle"
)

// TestImports keeps the oracle independent of the code it checks and
// small enough to read against the definitions: its non-test files
// import the standard library and, of this module, only the graph and
// the parsed keys, and hold at most 300 lines.
func TestImports(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	allowed := []string{"graphkeys/internal/graph", "graphkeys/internal/keys", "graphkeys/internal/pattern"}
	lines := 0
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines += bytes.Count(src, []byte("\n"))
		f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.Contains(strings.Split(path, "/")[0], ".") || strings.HasPrefix(path, "graphkeys") && !slices.Contains(allowed, path) {
				t.Errorf("%s imports %s", name, path)
			}
		}
	}
	if lines > 300 {
		t.Errorf("the oracle holds %d lines, more than 300", lines)
	}
}

// labels renders pairs as sorted "a~b" over entity IDs.
func labels(g *graph.Graph, pairs []oracle.Pair) []string {
	var out []string
	for _, p := range pairs {
		out = append(out, g.Label(p.A)+"~"+g.Label(p.B))
	}
	slices.Sort(out)
	return out
}

// TestFixtures holds the oracle to the identifications the paper
// derives on its running examples (Examples 7 and 8) and to chase.Run,
// under each graph's own keys and under all six.
func TestFixtures(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    func() *graph.Graph
		keys *keys.Set
		want []string
	}{
		{"music", fixtures.MusicGraph, fixtures.MusicKeys(), []string{"alb1~alb2", "art1~art2"}},
		{"company", fixtures.CompanyGraph, fixtures.CompanyKeys(), []string{"com1~com2", "com4~com5"}},
		{"address", fixtures.AddressGraph, fixtures.AddressKeys(), []string{"st1~st2"}},
	} {
		for _, set := range []*keys.Set{tc.keys, fixtures.AllKeys()} {
			g := tc.g()
			got := oracle.Chase(g, set, nil)
			if l := labels(g, got); !slices.Equal(l, tc.want) {
				t.Errorf("%s under %d keys: the oracle identifies %v, want %v", tc.name, set.Cardinality(), l, tc.want)
			}
			res, err := chase.Run(g, set, chase.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var want []oracle.Pair
			for _, p := range res.Pairs {
				want = append(want, oracle.Pair{A: graph.NodeID(p.A), B: graph.NodeID(p.B)})
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s under %d keys: the oracle gives %v, chase.Run %v", tc.name, set.Cardinality(), got, want)
			}
		}
	}
}
