package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"strings"
)

// The table format is the graph's own tables, written as they are, so a
// load lays them back out at their final sizes instead of re-deriving
// them from text (the WAL snapshot's body). Every integer is a uvarint
// and every string is length-prefixed. In order:
//
//	predicate names, type names   count, then each name: PredIDs and TypeIDs are kept
//	entity count, value count
//	label heap                    length, then every node's label back to back
//	node table                    per node, type<<1|isValue and its label's length
//	triple count
//	adjacency                     per entity, its out-degree and its (pred, object) pairs in Out order
//
// Tombstoned entities and values no triple points at are not written,
// and the nodes left are renumbered densely in NodeID order: a graph
// with neither reads back with every NodeID, label, per-type list and
// out-list as it was. Every name reads back as itself, whatever bytes
// it holds.

// WriteTables writes g in the table format. It walks the tables, never
// a map, so equal graphs write equal bytes. A write error stays in bw:
// its Flush reports it.
func (g *Graph) WriteTables(bw *bufio.Writer) {
	var buf [binary.MaxVarintLen64]byte
	uv := func(x int) { bw.Write(binary.AppendUvarint(buf[:0], uint64(x))) }
	names := func(ns []string) {
		uv(len(ns))
		for _, s := range ns {
			uv(len(s))
			bw.WriteString(s)
		}
	}
	names(g.preds.names)
	names(g.types.names)
	// id is each node's written ID, -1 for a node not written.
	id := make([]int32, len(g.nodes))
	var ents, vals, heap int
	for n, nd := range g.nodes {
		switch {
		case nd.kind == EntityKind && !nd.dead:
			ents++
		case nd.kind == ValueKind && len(g.in[n]) > 0:
			vals++
		default:
			id[n] = -1
			continue
		}
		id[n] = int32(ents + vals - 1)
		heap += len(nd.label)
	}
	uv(ents)
	uv(vals)
	uv(heap)
	for n, nd := range g.nodes {
		if id[n] >= 0 {
			bw.WriteString(nd.label)
		}
	}
	for n, nd := range g.nodes {
		if id[n] >= 0 {
			uv(int(nd.typ)<<1 | int(nd.kind))
			uv(len(nd.label))
		}
	}
	uv(g.ntriples)
	for n, nd := range g.nodes {
		if id[n] >= 0 && nd.kind == EntityKind {
			uv(len(g.out[n]))
			for _, e := range g.out[n] {
				uv(int(e.Pred))
				uv(int(id[e.To]))
			}
		}
	}
}

// ReadTables reads a graph in the table format from the front of b and
// returns it with the bytes that follow it. The bytes are untrusted:
// every count is bounded by the bytes left before anything is sized by
// it, every index is range-checked, and a duplicate name, label or
// triple is an error. The labels are substrings of one string, and
// every table is made at its final size; the triples are laid out as
// ParseText lays out its own (layOut).
func ReadTables(b []byte) (*Graph, []byte, error) {
	r := &tableReader{b: b}
	g := &Graph{preds: r.interner(), types: r.interner()}
	ents, vals := r.count(2), r.count(2)
	heap := string(r.take(r.count(1)))
	g.nodes = make([]node, ents+vals)
	g.entByID, g.valByLit = make(map[string]NodeID, ents), make(map[string]NodeID, vals)
	perType := make([]int, g.types.Len())
	off := 0
	for i := range g.nodes {
		tv, l := r.uint(), r.uint()
		if l > uint64(len(heap)-off) {
			r.fail("node %d: label past the heap", i)
		}
		if r.err != nil {
			return nil, nil, r.err
		}
		nd, dir := &g.nodes[i], g.entByID
		nd.label, off = heap[off:off+int(l)], off+int(l)
		switch t := tv >> 1; {
		case tv == 1:
			nd.kind, dir = ValueKind, g.valByLit
		case tv&1 == 1 || t >= uint64(len(perType)):
			r.fail("node %d: type %d out of range", i, t)
		default:
			nd.typ = TypeID(t)
			perType[t]++
		}
		if _, dup := dir[nd.label]; dup {
			r.fail("duplicate label %q", nd.label)
		}
		dir[nd.label] = NodeID(i)
	}
	if len(g.entByID) != ents || off != len(heap) {
		r.fail("node table does not match its counts")
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	// The per-type lists are cut out of one array, as layOut cuts the
	// adjacency.
	all := make([]NodeID, 0, ents)
	g.byType = make([][]NodeID, len(perType))
	for t, c := range perType {
		if c > 0 {
			g.byType[t] = all[len(all) : len(all) : len(all)+c]
			all = all[:len(all)+c]
		}
	}
	for i, nd := range g.nodes {
		if nd.kind == EntityKind {
			g.byType[nd.typ] = append(g.byType[nd.typ], NodeID(i))
		}
	}
	nt := r.count(2)
	// A duplicate repeats a triple of its subject's block: chains end there.
	d := dedup{ts: make([]Triple, 0, nt), links: make([][3]int32, 0, nt),
		nodes: make([][2]int32, len(g.nodes)), preds: make([]int32, g.preds.Len())}
	for s, nd := range g.nodes {
		if nd.kind != EntityKind {
			continue
		}
		lo := int32(len(d.ts))
		for deg := r.count(2); deg > 0 && r.err == nil; deg-- {
			t := Triple{NodeID(s), PredID(r.index(g.preds.Len())), NodeID(r.index(len(g.nodes)))}
			if !d.add(t, lo) {
				r.fail("duplicate triple (%d, %d, %d)", t.S, t.P, t.O)
			}
		}
	}
	if len(d.ts) != nt {
		r.fail("%d triples, %d counted", len(d.ts), nt)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	g.layOut(d.ts)
	return g, r.b, nil
}

// tableReader decodes the table format off the front of b. The first
// error sticks: every read after it returns zero.
type tableReader struct {
	b   []byte
	err error
}

func (r *tableReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("graph: tables: "+format, args...)
	}
}

func (r *tableReader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail("truncated number")
		return 0
	}
	r.b = r.b[k:]
	return x
}

// count reads the number of items that follow, each of which takes at
// least size bytes, so no count exceeds what the bytes left can hold.
func (r *tableReader) count(size int) int {
	x := r.uint()
	if x > uint64(len(r.b)/size) {
		r.fail("count %d exceeds the %d bytes left", x, len(r.b))
		return 0
	}
	return int(x)
}

// index reads an index below n.
func (r *tableReader) index(n int) int {
	x := r.uint()
	if x >= uint64(n) {
		r.fail("index %d out of range [0, %d)", x, n)
		return 0
	}
	return int(x)
}

// take returns the next n bytes.
func (r *tableReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// interner reads a name list into an interner, IDs in list order. The
// names are substrings of one string.
func (r *tableReader) interner() *Interner {
	raw := make([][]byte, r.count(1))
	size := 0
	for i := range raw {
		raw[i] = r.take(r.count(1))
		size += len(raw[i])
	}
	var sb strings.Builder
	sb.Grow(size)
	for _, b := range raw {
		sb.Write(b)
	}
	all := sb.String()
	in := &Interner{ids: make(map[string]int32, len(raw)), names: make([]string, 0, len(raw))}
	for _, b := range raw {
		s := all[:len(b)]
		all = all[len(b):]
		if _, dup := in.ids[s]; dup {
			r.fail("duplicate name %q", s)
		}
		if r.err != nil {
			break
		}
		in.Intern(s)
	}
	return in
}
