package graph

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzParseText feeds arbitrary text to the graph parser. The parser
// ingests untrusted input (graph files on the command line), so it
// must never panic — it either returns a graph or an error. It is also
// a differential: the loader and the writer must agree with the
// reference codec of text_ref_test.go — the same error text, or the
// same graph down to node IDs, adjacency order and postings, written to
// the same bytes. Inputs that parse must survive a Write/Parse round
// trip: the written form parses back to a graph with the same triples,
// and re-writing that graph reproduces the written form byte for byte
// (WriteText output is canonical: sorted and deterministic). Both
// graphs then take the same delta and must stay equal.
func FuzzParseText(f *testing.F) {
	f.Add("alb1:album\tname_of\t\"Anthology 2\"\n" +
		"alb1:album\trecorded_by\tart1:artist\n")
	f.Add("# comment\n\n  a:T \t p \t b:U \n")
	f.Add("a:T\tp\t\"quoted \\\"literal\\\" with \\t escapes\"\n")
	f.Add("id:with:colons:T\tp\t\"v\"\n")
	f.Add("a:T\tp\n")             // 2 fields
	f.Add("a:T\tp\tb:U\textra\n") // 4 fields
	f.Add("noType\tp\t\"v\"\n")   // bad entity token
	f.Add(":T\tp\t\"v\"\n")       // empty id
	f.Add("a:\tp\t\"v\"\n")       // empty type
	f.Add("a:T\t\t\"v\"\n")       // empty predicate
	f.Add("a:T\tp\t\"unterminated\n")
	f.Add("a:T\tp\ta:U\n")          // entity redeclared with another type
	f.Add("a:T\tp\t\"\"\n")         // empty literal
	f.Add("\"q:T\tp\t\"v\"\n")      // quote-prefixed subject id
	f.Add("a b:T\tp c\tb d:U\n")    // interior spaces
	f.Add("a:T\tp\t\"\x00\xff\"\n") // raw invalid UTF-8 in a literal
	f.Add("a:T\tp\t\"a\\x41\"\n")   // escaped literal equal to a plain one
	f.Add("a:T\tp\t\"aA\"\nb:T\tp\t\"a\\x41\"\nb:T\tp\tb:T\n")
	f.Add("b:T\tp\t\"v\"\na:T\tp\t\"v\"\nc:T\tp\t\"v\"\n") // postings out of ID order
	f.Add(strings.Repeat("e:T\tp\t\"v\"\n", 4))

	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseText(strings.NewReader(src))
		ref, refErr := refParseText(strings.NewReader(src))
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("ParseText error %v, reference parser %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := sameGraph(g, ref); err != nil {
			t.Fatalf("ParseText and the reference parser build different graphs: %v", err)
		}
		var w1, wr bytes.Buffer
		if err := g.WriteText(&w1); err != nil {
			t.Fatalf("a parsed graph is not representable: %v", err)
		}
		if err := refWriteText(g, &wr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), wr.Bytes()) {
			t.Fatalf("WriteText and the reference writer differ:\n%s\nreference:\n%s", w1.String(), wr.String())
		}
		g2, err := ParseText(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("written form does not re-parse:\n%s\nerror: %v", w1.String(), err)
		}
		if g2.NumTriples() != g.NumTriples() || g2.NumEntities() != g.NumEntities() || g2.NumNodes() != g.NumNodes() {
			t.Fatalf("round trip changed shape: triples %d->%d, entities %d->%d, nodes %d->%d",
				g.NumTriples(), g2.NumTriples(), g.NumEntities(), g2.NumEntities(), g.NumNodes(), g2.NumNodes())
		}
		var w2 bytes.Buffer
		if err := g2.WriteText(&w2); err != nil {
			t.Fatalf("WriteText on re-parsed graph: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("canonical form not stable:\nfirst:\n%s\nsecond:\n%s", w1.String(), w2.String())
		}
		// The value index must come out of parsing consistent: one
		// posting entry per value triple.
		n := 0
		g.EachValuePosting(func(p PredID, v NodeID, subjects []NodeID) { n += len(subjects) })
		vals := 0
		g.EachTriple(func(s NodeID, p PredID, o NodeID) {
			if g.IsValue(o) {
				vals++
			}
		})
		if n != vals {
			t.Fatalf("value index has %d entries, graph has %d value triples", n, vals)
		}
		// Later writes go through the lists the loader cut: one delta,
		// adding a triple between the first two entities and removing
		// the first triple, must leave both graphs equal.
		var ents []string
		g.EachEntity(func(n NodeID) { ents = append(ents, g.Label(n)) })
		if len(ents) == 0 {
			return
		}
		d := (&Delta{}).AddTriple(ents[0], "added", ents[min(1, len(ents)-1)])
		for i := range g.NumNodes() {
			if out := g.Out(NodeID(i)); len(out) > 0 {
				s, p, o := g.Label(NodeID(i)), g.PredName(out[0].Pred), g.Label(out[0].To)
				if g.IsValue(out[0].To) {
					d.RemoveValueTriple(s, p, o)
				} else {
					d.RemoveTriple(s, p, o)
				}
				break
			}
		}
		for _, h := range []*Graph{g, ref} {
			if _, err := h.ApplyDelta(d); err != nil {
				t.Fatalf("delta after loading: %v", err)
			}
		}
		if err := sameGraph(g, ref); err != nil {
			t.Fatalf("ParseText's graph and the reference graph differ after one delta: %v", err)
		}
	})
}
