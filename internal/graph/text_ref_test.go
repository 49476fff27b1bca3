package graph

import (
	"bufio"
	"fmt"
	"io"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// refParseText and refWriteText are the text codec as it stood before
// ParseText became a loader and WriteText rendered one token per node:
// a line-at-a-time parser over the public adders and a writer that
// builds three strings and an fmt call per triple. The codec is held to
// them by FuzzParseText and TestTextCodecMatchesReference.
func refParseText(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 3 tab-separated fields, got %d", lineNo, len(parts))
		}
		s, err := refEntityToken(g, parts[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: subject: %v", lineNo, err)
		}
		pred := strings.TrimSpace(parts[1])
		if pred == "" {
			return nil, fmt.Errorf("graph: line %d: empty predicate", lineNo)
		}
		var o NodeID
		obj := strings.TrimSpace(parts[2])
		if strings.HasPrefix(obj, `"`) {
			lit, err := strconv.Unquote(obj)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: object literal: %v", lineNo, err)
			}
			o = g.AddValue(lit)
		} else if o, err = refEntityToken(g, obj); err != nil {
			return nil, fmt.Errorf("graph: line %d: object: %v", lineNo, err)
		}
		if err := g.AddTriple(s, pred, o); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	return g, nil
}

func refEntityToken(g *Graph, tok string) (NodeID, error) {
	tok = strings.TrimSpace(tok)
	i := strings.LastIndexByte(tok, ':')
	if i <= 0 || i == len(tok)-1 {
		return NoNode, fmt.Errorf("entity token %q is not of the form id:Type", tok)
	}
	return g.AddEntity(tok[:i], tok[i+1:])
}

func refWriteText(g *Graph, w io.Writer) error {
	token := func(n NodeID) string {
		if g.IsValue(n) {
			return strconv.Quote(g.Label(n))
		}
		return g.Label(n) + ":" + g.TypeName(g.TypeOf(n))
	}
	type row struct{ s, p, o string }
	rows := make([]row, 0, g.NumTriples())
	g.EachTriple(func(s NodeID, p PredID, o NodeID) {
		rows = append(rows, row{token(s), g.PredName(p), token(o)})
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].s != rows[j].s {
			return rows[i].s < rows[j].s
		}
		if rows[i].p != rows[j].p {
			return rows[i].p < rows[j].p
		}
		return rows[i].o < rows[j].o
	})
	bw := bufio.NewWriter(w)
	for _, r := range rows {
		if _, err := fmt.Fprintf(bw, "%s\t%s\t%s\n", r.s, r.p, r.o); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// sameGraph reports the first difference between two graphs at ID
// level: node count, names by TypeID and PredID, each node's label, kind
// and type, Out and In in order, the value postings and the per-type
// entity lists.
func sameGraph(a, b *Graph) error {
	if a.NumNodes() != b.NumNodes() || a.NumTriples() != b.NumTriples() {
		return fmt.Errorf("%d nodes, %d triples vs %d, %d", a.NumNodes(), a.NumTriples(), b.NumNodes(), b.NumTriples())
	}
	if a.NumTypes() != b.NumTypes() || a.NumPreds() != b.NumPreds() {
		return fmt.Errorf("%d types, %d predicates vs %d, %d", a.NumTypes(), a.NumPreds(), b.NumTypes(), b.NumPreds())
	}
	for t := range a.NumTypes() {
		if a.TypeName(TypeID(t)) != b.TypeName(TypeID(t)) {
			return fmt.Errorf("type %d: %q vs %q", t, a.TypeName(TypeID(t)), b.TypeName(TypeID(t)))
		}
		if !slices.Equal(a.EntitiesOfType(TypeID(t)), b.EntitiesOfType(TypeID(t))) {
			return fmt.Errorf("entities of type %q differ", a.TypeName(TypeID(t)))
		}
	}
	for p := range a.NumPreds() {
		if a.PredName(PredID(p)) != b.PredName(PredID(p)) {
			return fmt.Errorf("predicate %d: %q vs %q", p, a.PredName(PredID(p)), b.PredName(PredID(p)))
		}
	}
	for i := range a.NumNodes() {
		n := NodeID(i)
		if a.Label(n) != b.Label(n) || a.IsValue(n) != b.IsValue(n) || a.IsEntity(n) != b.IsEntity(n) {
			return fmt.Errorf("node %d: %q (value %v) vs %q (value %v)", n, a.Label(n), a.IsValue(n), b.Label(n), b.IsValue(n))
		}
		if a.IsEntity(n) && a.TypeOf(n) != b.TypeOf(n) {
			return fmt.Errorf("node %d: type %d vs %d", n, a.TypeOf(n), b.TypeOf(n))
		}
		if !slices.Equal(a.Out(n), b.Out(n)) || !slices.Equal(a.In(n), b.In(n)) {
			return fmt.Errorf("node %d %q: adjacency differs", n, a.Label(n))
		}
	}
	if pa, pb := postings(a), postings(b); !reflect.DeepEqual(pa, pb) {
		return fmt.Errorf("value postings differ")
	}
	return nil
}

func postings(g *Graph) []string {
	var out []string
	g.EachValuePosting(func(p PredID, v NodeID, subjects []NodeID) {
		out = append(out, fmt.Sprint(p, v, subjects))
	})
	return out
}
