package graph

import (
	"bufio"
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// tablesOf writes g in the table format.
func tablesOf(tb testing.TB, g *Graph) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	g.WriteTables(bw)
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// liveNames lists a graph's live entities with their types, sorted.
func liveNames(g *Graph) []string {
	var out []string
	g.EachEntity(func(n NodeID) { out = append(out, fmt.Sprintf("%q:%q", g.Label(n), g.TypeName(g.TypeOf(n)))) })
	slices.Sort(out)
	return out
}

// sameUpToInOrder is sameGraph with each In list compared as a set: a
// read lays In out in subject order, whatever order the writes took.
func sameUpToInOrder(a, b *Graph) error {
	sorted := func(g *Graph) *Graph {
		in := make([][]Edge, len(g.in))
		for n, es := range g.in {
			in[n] = slices.SortedFunc(slices.Values(es), func(x, y Edge) int {
				return cmp.Or(cmp.Compare(x.To, y.To), cmp.Compare(x.Pred, y.Pred))
			})
		}
		return &Graph{nodes: g.nodes, out: g.out, in: in, post: g.post, ntriples: g.ntriples,
			preds: g.preds, types: g.types, dir: g.dir, byType: g.byType}
	}
	return sameGraph(sorted(a), sorted(b))
}

// checkTables writes g, reads it back and holds the result to g: the
// same live entities and triples by name, and, when exact (no
// tombstones, no value without in-edges), the same graph down to node
// IDs, Out order, postings and per-type lists. The bytes after the
// tables are handed back, and the graph read writes the bytes it was
// read from.
func checkTables(t *testing.T, g *Graph, exact bool) {
	t.Helper()
	b := tablesOf(t, g)
	r, rest, err := ReadTables(append(slices.Clone(b), 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rest, []byte{0xAA}) {
		t.Fatalf("ReadTables left %x after the tables, want aa", rest)
	}
	if !slices.Equal(liveNames(r), liveNames(g)) || !maps.Equal(canonTriples(r), canonTriples(g)) {
		t.Fatalf("read back other entities or triples:\n%q\nwant\n%q", liveNames(r), liveNames(g))
	}
	if exact {
		if err := sameUpToInOrder(r, g); err != nil {
			t.Fatalf("read back another graph: %v", err)
		}
	}
	if !bytes.Equal(tablesOf(t, r), b) {
		t.Fatal("the graph read back writes other bytes")
	}
}

// TestTablesRoundTrip holds the table format to checkTables on random
// graphs with awkward names — a tab, a newline, a colon, a leading '#'
// or '"' in IDs, types and predicates — before and after a delta that
// tombstones an entity and strands a value.
func TestTablesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exact := 0
	for range 200 {
		g := randomTextGraph(rng)
		odd := g.MustAddEntity("#tab\tid\n", "ty:pe ")
		g.MustAddTriple(odd, " p\t", g.AddValue(""))
		g.MustAddTriple(odd, `"q`, NodeID(0))
		g.MustAddEntity(`"lonely`, "ty:pe ")
		if g.NumNodes() == len(liveNames(g))+len(valuesWithIn(g)) {
			exact++
			checkTables(t, g, true)
		} else {
			checkTables(t, g, false)
		}
		if _, err := g.ApplyDelta((&Delta{}).RemoveEntity(g.Label(0)).RemoveValueTriple(g.Label(odd), " p\t", "")); err != nil {
			t.Fatal(err)
		}
		checkTables(t, g, false)
	}
	if exact < 20 {
		t.Fatalf("only %d of 200 graphs had no stranded value", exact)
	}
}

// valuesWithIn lists the values some triple points at.
func valuesWithIn(g *Graph) []NodeID {
	var out []NodeID
	for n := range g.NumNodes() {
		if g.IsValue(NodeID(n)) && len(g.In(NodeID(n))) > 0 {
			out = append(out, NodeID(n))
		}
	}
	return out
}

// FuzzReadTables feeds arbitrary bytes to the table reader: it returns
// a graph or an error, never panics, and a graph it returns writes
// tables that read back to the same entities and triples by name.
func FuzzReadTables(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for range 4 {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		randomTextGraph(rng).WriteTables(bw)
		bw.Flush()
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, err := ReadTables(data)
		if err != nil {
			return
		}
		checkTables(t, g, false)
	})
}
