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
// returns it with the bytes that follow it. The bytes are untrusted
// and read through a Decoder; a duplicate name, label or triple is an
// error too. The labels are substrings of one string, and
// every table is made at its final size; the triples are laid out as
// ParseText lays out its own (layOut).
func ReadTables(b []byte) (*Graph, []byte, error) {
	r := NewDecoder(b, "graph: tables")
	g := &Graph{preds: interner(r), types: interner(r)}
	ents, vals := r.Count(2), r.Count(2)
	heap := string(r.Take(r.Count(1)))
	g.nodes = make([]node, ents+vals)
	g.dir = newDirectory(ents + vals)
	perType := make([]int, g.types.Len())
	off, nents := 0, 0
	for i := range g.nodes {
		tv, l := r.Uint(), r.Uint()
		if l > uint64(len(heap)-off) {
			r.Fail("node %d: label past the heap", i)
		}
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		nd := &g.nodes[i]
		nd.label, off = heap[off:off+int(l)], off+int(l)
		switch t := tv >> 1; {
		case tv == 1:
			nd.kind = ValueKind
		case tv&1 == 1 || t >= uint64(len(perType)):
			r.Fail("node %d: type %d out of range", i, t)
		default:
			nd.typ = TypeID(t)
			perType[t]++
			nents++
		}
		// One probe finds a duplicate or the slot; nothing regrows.
		h := g.dir.hash(nd.kind, nd.label)
		if s, dup := find(g, nd.kind, nd.label, h); dup != NoNode {
			r.Fail("duplicate label %q", nd.label)
		} else {
			g.dir.slots[s], g.dir.used = dirSlot{hash: h, n1: uint32(i) + 1}, g.dir.used+1
		}
	}
	if nents != ents || off != len(heap) {
		r.Fail("node table does not match its counts")
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
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
	nt := r.Count(2)
	// A duplicate repeats a triple of its subject's block: chains end there.
	d := dedup{ts: make([]Triple, 0, nt), links: make([][3]int32, 0, nt),
		nodes: make([][2]int32, len(g.nodes)), preds: make([]int32, g.preds.Len())}
	for s, nd := range g.nodes {
		if nd.kind != EntityKind {
			continue
		}
		lo := int32(len(d.ts))
		for deg := r.Count(2); deg > 0 && r.Err() == nil; deg-- {
			t := Triple{NodeID(s), PredID(r.Index(g.preds.Len())), NodeID(r.Index(len(g.nodes)))}
			if !d.add(t, lo) {
				r.Fail("duplicate triple (%d, %d, %d)", t.S, t.P, t.O)
			}
		}
	}
	if len(d.ts) != nt {
		r.Fail("%d triples, %d counted", len(d.ts), nt)
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	g.layOut(d.ts)
	return g, r.Rest(), nil
}

// Decoder reads the repository's binary formats (the table format, the
// WAL's groups, records and snapshot pairs) off the front of a byte
// slice: uvarints, counts, indexes and length-prefixed strings, as
// AppendString writes them. The bytes are untrusted: a count is bounded
// by the bytes left before anything is sized by it, and an index or a
// length by what it indexes. The first error sticks, prefixed with the
// decoder's prefix: every read after it returns zero.
type Decoder struct {
	b      []byte
	prefix string
	err    error
}

// NewDecoder returns a decoder over b whose errors read "prefix: …".
func NewDecoder(b []byte, prefix string) *Decoder {
	return &Decoder{b: b, prefix: prefix}
}

// Err returns the first error, or nil.
func (d *Decoder) Err() error { return d.err }

// Fail records an error unless one is recorded already.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.prefix+": "+format, args...)
	}
}

// Uint reads a uvarint.
func (d *Decoder) Uint() uint64 {
	x, k := binary.Uvarint(d.b)
	if k <= 0 || d.err != nil {
		d.Fail("truncated number")
		return 0
	}
	d.b = d.b[k:]
	return x
}

// Count reads the number of items that follow, each of which takes at
// least size bytes, so no count exceeds what the bytes left can hold.
func (d *Decoder) Count(size int) int {
	x := d.Uint()
	if x > uint64(len(d.b)/size) {
		d.Fail("count %d exceeds the %d bytes left", x, len(d.b))
		return 0
	}
	return int(x)
}

// Index reads an index below n.
func (d *Decoder) Index(n int) int {
	x := d.Uint()
	if x >= uint64(n) {
		d.Fail("index %d out of range [0, %d)", x, n)
		return 0
	}
	return int(x)
}

// Take returns the next n bytes, a subslice of the input.
func (d *Decoder) Take(n int) []byte {
	if n > len(d.b) {
		d.Fail("%d bytes wanted, %d left", n, len(d.b))
	}
	if d.err != nil {
		return nil
	}
	out := d.b[:n:n]
	d.b = d.b[n:]
	return out
}

// Str reads a length-prefixed string. (Not String: that would make a
// Decoder a fmt.Stringer, and printing one would consume its input.)
func (d *Decoder) Str() string { return string(d.Take(d.Count(1))) }

// Rest returns the bytes not read yet.
func (d *Decoder) Rest() []byte { return d.b }

// AppendString appends s length-prefixed, as Decoder.Str reads it.
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

// interner reads a name list into an interner, IDs in list order. The
// names are substrings of one string.
func interner(r *Decoder) *Interner {
	raw := make([][]byte, r.Count(1))
	size := 0
	for i := range raw {
		raw[i] = r.Take(r.Count(1))
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
			r.Fail("duplicate name %q", s)
		}
		if r.Err() != nil {
			break
		}
		in.Intern(s)
	}
	return in
}
