package graph

import "hash/maphash"

// directory is the name directory: it finds a live entity by its
// external ID and a value by its literal. It is one open-addressing
// table of node IDs, linear probing over a power-of-two size at most
// half full; the names stay in the node records. A slot holds 32 bits
// of its name's hash beside the node, so a probe reads a label only on
// a hash match, and regrowing re-slots on the stored hashes without
// hashing a name again. Each kind hashes with a seed of its own, so an
// entity and a value of one name are two keys.
//
// A tombstoned entity keeps its slot but never matches, and regrowing
// drops it. The new table is sized from the live names alone, so
// removing and re-adding names cannot grow it past a constant factor
// of what is live.
type directory struct {
	seeds [2]maphash.Seed // per Kind, per graph
	slots []dirSlot
	used  int // occupied slots, tombstones included
}

// dirSlot is 32 bits of a name's hash and 1 + its node, 0 when empty.
type dirSlot struct{ hash, n1 uint32 }

// newDirectory returns a directory sized for names names.
func newDirectory(names int) directory {
	return directory{seeds: [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}, slots: make([]dirSlot, dirSize(names))}
}

// dirSize is the smallest power of two, at least 8, that holds names
// names at most half full.
func dirSize(names int) int {
	size := 8
	for size < 2*names {
		size *= 2
	}
	return size
}

// hash and hashBytes hash the name of a node of kind k; they agree, so
// the loader hashes a token in place.
func (d *directory) hash(k Kind, name string) uint32 {
	return uint32(maphash.String(d.seeds[k], name))
}

func (d *directory) hashBytes(k Kind, name []byte) uint32 {
	return uint32(maphash.Bytes(d.seeds[k], name))
}

// find probes for the live node of kind k named name, hashed h: it
// returns the node's slot and the node, or the empty slot where the
// name would go and NoNode. A []byte name is compared in place.
func find[S string | []byte](g *Graph, k Kind, name S, h uint32) (int, NodeID) {
	mask := len(g.dir.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := g.dir.slots[i]
		if s.n1 == 0 {
			return i, NoNode
		}
		if s.hash == h {
			if nd := &g.nodes[s.n1-1]; nd.kind == k && !nd.dead && nd.label == string(name) {
				return i, NodeID(s.n1 - 1)
			}
		}
	}
}

// lookup returns the live node of kind k named name.
func (g *Graph) lookup(k Kind, name string) (NodeID, bool) {
	_, n := find(g, k, name, g.dir.hash(k, name))
	return n, n != NoNode
}

// enter appends nd's record, enters it at slot i, the empty slot find
// returned for its name hashed h, and returns its dense ID. An entity
// joins its type's list. Allocation is serialized, so dense IDs follow
// application order, and appending keeps each per-type list sorted;
// removals (removeOne) preserve the order. Appending past a handed-out
// slice's length keeps the handed-out-snapshot contract.
func (g *Graph) enter(nd node, h uint32, i int) NodeID {
	g.nodes = append(g.nodes, nd)
	n := NodeID(len(g.nodes) - 1)
	g.dir.slots[i] = dirSlot{hash: h, n1: uint32(n) + 1}
	if g.dir.used++; 2*g.dir.used > len(g.dir.slots) {
		g.regrow()
	}
	if nd.kind == EntityKind {
		for int(nd.typ) >= len(g.byType) {
			g.byType = append(g.byType, nil)
		}
		g.byType[nd.typ] = append(g.byType[nd.typ], n)
	}
	return n
}

// regrow re-slots the live names into a table sized for twice their
// number, so at least as many enter again before the next regrow, and
// drops the tombstones.
func (g *Graph) regrow() {
	live := func(s dirSlot) bool { return s.n1 != 0 && !g.nodes[s.n1-1].dead }
	n := 0
	for _, s := range g.dir.slots {
		if live(s) {
			n++
		}
	}
	old := g.dir.slots
	g.dir.slots, g.dir.used = make([]dirSlot, dirSize(2*n)), n
	mask := len(g.dir.slots) - 1
	for _, s := range old {
		if live(s) {
			i := int(s.hash) & mask
			for g.dir.slots[i].n1 != 0 {
				i = (i + 1) & mask
			}
			g.dir.slots[i] = s
		}
	}
}
