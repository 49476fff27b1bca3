package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The text format is one triple per line:
//
//	subject <TAB> predicate <TAB> object
//
// where an entity token is written id:Type (the last colon separates the
// external ID from the type name) and a value token is a Go-quoted string
// literal. Blank lines and lines starting with '#' are ignored.
//
// Example:
//
//	alb1:album	name_of	"Anthology 2"
//	alb1:album	recorded_by	art1:artist

// ParseText reads a graph in the text format from r.
//
// The graph is nobody else's until ParseText returns it, so the load
// writes its tables without the writer mutex, in two passes. The first
// resolves every line to node IDs, splitting it in place and
// allocating a string only for a new node or a new name, and keeps the
// distinct triples in line order (dedup). The second lays out adjacency and
// postings once, at their final sizes (layOut). The graph it builds —
// node IDs, interning order, adjacency order, postings, per-type
// lists — and the errors it reports are those of AddEntity, AddValue
// and AddTriple applied line by line.
func ParseText(r io.Reader) (*Graph, error) {
	g := New()
	var d dedup
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if err := g.loadLine(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %v", err)
	}
	g.layOut(d.ts)
	return g, nil
}

// dedup keeps the distinct triples a loader resolves, in order, before
// any adjacency exists, each chained to the previous one with its
// subject, its object and its predicate. A duplicate lies on all three
// chains, so add walks them in turn and stops when the shortest ends:
// O(min(out-degree, in-degree, the predicate's count)).
type dedup struct {
	ts    []Triple
	links [][3]int32 // per triple: 1 + the previous triple with its subject, object, predicate; 0 for none
	nodes [][2]int32 // per node: 1 + its last triple as subject, as object
	preds []int32    // per predicate: 1 + its last triple
}

// add appends t and reports true, unless t is among the triples past
// the first floor, where every chain ends.
func (d *dedup) add(t Triple, floor int32) bool {
	for int(max(t.S, t.O)) >= len(d.nodes) {
		d.nodes = append(d.nodes, [2]int32{})
	}
	for int(t.P) >= len(d.preds) {
		d.preds = append(d.preds, 0)
	}
	heads := [3]*int32{&d.nodes[t.S][0], &d.nodes[t.O][1], &d.preds[t.P]}
	prev := [3]int32{*heads[0], *heads[1], *heads[2]}
	for c, at := 0, prev; at[c] > floor; c = (c + 1) % 3 {
		if d.ts[at[c]-1] == t {
			return false
		}
		at[c] = d.links[at[c]-1][c]
	}
	d.ts, d.links = append(d.ts, t), append(d.links, prev)
	for _, h := range heads {
		*h = int32(len(d.ts))
	}
	return true
}

// loadLine resolves the triple of one line in a graph only the caller
// can see (see ParseText) and adds it to d.
func (g *Graph) loadLine(line []byte, d *dedup) error {
	line = bytes.TrimSpace(line)
	if isComment(line) {
		return nil
	}
	if tabs := bytes.Count(line, tab); tabs != 2 {
		return fmt.Errorf("want 3 tab-separated fields, got %d", tabs+1)
	}
	subj, rest, _ := bytes.Cut(line, tab)
	pred, obj, _ := bytes.Cut(rest, tab)
	s, err := g.loadEntity(subj)
	if err != nil {
		return fmt.Errorf("subject: %v", err)
	}
	if pred, err = readPred(pred); err != nil {
		return err
	}
	var o NodeID
	if obj = bytes.TrimSpace(obj); isLiteral(obj) {
		if o, err = g.loadValue(obj); err != nil {
			return fmt.Errorf("object literal: %v", err)
		}
	} else if o, err = g.loadEntity(obj); err != nil {
		return fmt.Errorf("object: %v", err)
	}
	d.add(Triple{S: s, P: PredID(g.preds.internBytes(pred)), O: o}, 0)
	return nil
}

var tab = []byte{'\t'}

// The token rules below are the loader's; the writer's representability
// check (text.err) reads every token it writes back through them.

// isComment reports whether a trimmed line is blank or a comment.
func isComment(line []byte) bool { return len(line) == 0 || line[0] == '#' }

// isLiteral reports whether a trimmed object token is a value literal.
func isLiteral(obj []byte) bool { return len(obj) > 0 && obj[0] == '"' }

// readPred reads a predicate field.
func readPred(f []byte) ([]byte, error) {
	if f = bytes.TrimSpace(f); len(f) == 0 {
		return nil, errors.New("empty predicate")
	}
	return f, nil
}

// splitEntityToken splits an entity token at its last colon into ID and
// type name.
func splitEntityToken(tok []byte) (id, typ []byte, err error) {
	tok = bytes.TrimSpace(tok)
	i := bytes.LastIndexByte(tok, ':')
	if i <= 0 || i == len(tok)-1 {
		return nil, nil, fmt.Errorf("entity token %q is not of the form id:Type", tok)
	}
	return tok[:i], tok[i+1:], nil
}

// loadEntity resolves an entity token, creating the entity on first
// sight, as AddEntity does, without its edge lists (see layOut).
func (g *Graph) loadEntity(tok []byte) (NodeID, error) {
	id, typ, err := splitEntityToken(tok)
	if err != nil {
		return NoNode, err
	}
	h := g.dir.hashBytes(EntityKind, id)
	i, n := find(g, EntityKind, id, h)
	if n != NoNode {
		if have := g.types.Name(int32(g.nodes[n].typ)); have != string(typ) {
			return NoNode, fmt.Errorf("graph: entity %q redeclared with type %q (was %q)", id, typ, have)
		}
		return n, nil
	}
	return g.enter(node{kind: EntityKind, typ: TypeID(g.types.internBytes(typ)), label: string(id)}, h, i), nil
}

// loadValue resolves a quoted literal token, creating the value on
// first sight, as AddValue does, without its edge lists. A body with no escape, no inner quote
// and valid UTF-8 is what strconv.Unquote would return unchanged, so it
// is looked up in place; any other token goes through Unquote.
func (g *Graph) loadValue(tok []byte) (NodeID, error) {
	body := tok[1:]
	if len(body) > 0 && body[len(body)-1] == '"' &&
		bytes.IndexAny(body[:len(body)-1], "\\\"\n") < 0 && utf8.Valid(body) {
		body = body[:len(body)-1]
	} else {
		lit, err := strconv.Unquote(string(tok))
		if err != nil {
			return NoNode, err
		}
		body = []byte(lit)
	}
	h := g.dir.hashBytes(ValueKind, body)
	i, n := find(g, ValueKind, body, h)
	if n == NoNode {
		n = g.enter(node{kind: ValueKind, label: string(body)}, h, i)
	}
	return n, nil
}

// WriteText writes g in the text format. Triples are emitted sorted by
// subject token, predicate name and object token so that the output is
// deterministic and diffable. It writes whatever names g holds, and
// then refuses the first name ParseText would not read back as itself
// (value literals are quoted and always read back): its error names it.
func (g *Graph) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	t := g.text()
	t.write(bw)
	if err := bw.Flush(); err != nil {
		return err
	}
	return t.err
}

// text is g rendered once for the text format: every node's token —
// id:Type for an entity, the Go-quoted literal for a value — built a
// single time however many triples use it, the triples as ID rows
// sorted by those tokens, and the first name that would not read back.
type text struct {
	tok  []string // NodeID -> token; "" for a node nothing writes
	pred []string // PredID -> name
	rows []Triple
	err  error
}

// text renders g. The pass that builds the tokens also reads every
// written token back through the loader's token rules. The text format
// is triples only: a live entity no triple touches has no line.
func (g *Graph) text() *text {
	t := &text{tok: make([]string, g.NumNodes()), pred: g.preds.names, rows: make([]Triple, 0, g.NumTriples())}
	type subject struct {
		n   NodeID
		out []Edge
	}
	subjects := make([]subject, 0, g.NumEntities())
	var buf []byte
	for i, nd := range g.nodes {
		n := NodeID(i)
		out, in := g.out[n], g.in[n]
		if len(out) > 0 {
			subjects = append(subjects, subject{n, out})
		}
		switch {
		case nd.kind == ValueKind && len(in) > 0:
			buf = strconv.AppendQuote(buf[:0], nd.label)
		case nd.kind == EntityKind && !nd.dead:
			typ := g.types.names[nd.typ]
			buf = append(append(append(buf[:0], nd.label...), ':'), typ...)
			if t.err == nil && !readsBack(buf, nd.label, typ, len(out) > 0, len(in) > 0) {
				t.err = fmt.Errorf("graph: entity %q of type %q %s", nd.label, typ, unreadable)
			}
		default:
			continue
		}
		t.tok[n] = string(buf)
	}
	// Rows sort by subject token, predicate name and object token.
	// Sorting the subjects, then each subject's few edges, takes far
	// fewer token comparisons than sorting every row; subjects whose
	// tokens tie (only names that do not read back can) sort as one
	// group.
	slices.SortFunc(subjects, func(a, b subject) int { return strings.Compare(t.tok[a.n], t.tok[b.n]) })
	byPredObj := func(a, b Triple) int {
		if c := strings.Compare(t.pred[a.P], t.pred[b.P]); c != 0 {
			return c
		}
		return strings.Compare(t.tok[a.O], t.tok[b.O])
	}
	used := make([]bool, len(t.pred))
	for i := 0; i < len(subjects); {
		lo, tok := len(t.rows), t.tok[subjects[i].n]
		for ; i < len(subjects) && t.tok[subjects[i].n] == tok; i++ {
			for _, e := range subjects[i].out {
				t.rows = append(t.rows, Triple{S: subjects[i].n, P: e.Pred, O: e.To})
				used[e.Pred] = true
			}
		}
		slices.SortFunc(t.rows[lo:], byPredObj)
	}
	for p, name := range t.pred {
		if used[p] && t.err == nil && !predReadsBack(append(buf[:0], name...), name) {
			t.err = fmt.Errorf("graph: predicate %q %s", name, unreadable)
		}
	}
	return t
}

// readsBack reports whether the loader reads tok, the token of the
// entity (id, typ) written as a subject and/or an object, back as that
// entity.
func readsBack(tok []byte, id, typ string, subject, object bool) bool {
	if bytes.ContainsAny(tok, "\t\n") || subject && isComment(tok) || object && isLiteral(tok) {
		return false
	}
	gotID, gotType, err := splitEntityToken(tok)
	return err == nil && string(gotID) == id && string(gotType) == typ
}

// predReadsBack is readsBack for a predicate name, written as tok.
func predReadsBack(tok []byte, name string) bool {
	got, err := readPred(tok)
	return err == nil && !bytes.ContainsAny(tok, "\t\n") && string(got) == name
}

// unreadable explains a name WriteText refuses.
const unreadable = "cannot be written in the text format: it would not read back " +
	"(a tab or newline, leading or trailing space, a colon in a type, an empty ID or type, " +
	"a subject starting with '#', an object starting with '\"')"

// write writes the triples to bw, one line each. A write error stays in
// bw: its Flush reports it.
func (t *text) write(bw *bufio.Writer) {
	for _, r := range t.rows {
		bw.WriteString(t.tok[r.S])
		bw.WriteByte('\t')
		bw.WriteString(t.pred[r.P])
		bw.WriteByte('\t')
		bw.WriteString(t.tok[r.O])
		bw.WriteByte('\n')
	}
}
