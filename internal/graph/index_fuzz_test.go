package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// indexModel is the graph FuzzGraphIndexes holds the tables to: live
// entities by ID and triples by name, an object written "e:<id>" or
// "v:<literal>".
type indexModel struct {
	ents    map[string]bool
	triples map[[3]string]bool
}

func (m indexModel) clone() indexModel {
	return indexModel{maps.Clone(m.ents), maps.Clone(m.triples)}
}

// The fuzz vocabulary: an entity's type follows from its ID, so no add
// redeclares one.
var (
	fuzzEnts  = []string{"e0", "e1", "e2", "e3", "e4"}
	fuzzPreds = []string{"p0", "p1", "p2"}
	fuzzVals  = []string{"v0", "v1", "v2"}
)

func fuzzType(id string) string { return "T" + id[len(id)-1:] }

// apply runs one delta op on the model the way ApplyDelta does, and
// reports false where ApplyDelta rejects the delta.
func (m indexModel) apply(op DeltaOp) bool {
	switch op.Kind {
	case OpAddEntity:
		m.ents[op.ID] = true
	case OpRemoveEntity:
		if m.ents[op.ID] {
			delete(m.ents, op.ID)
			for t := range m.triples {
				if t[0] == op.ID || t[2] == "e:"+op.ID {
					delete(m.triples, t)
				}
			}
		}
	case OpAddTriple, OpRemoveTriple:
		obj := "e:" + op.Object
		if op.ObjectIsValue {
			obj = "v:" + op.Object
		}
		if !m.ents[op.Subject] || !op.ObjectIsValue && !m.ents[op.Object] {
			return false
		}
		if k := [3]string{op.Subject, op.Pred, obj}; op.Kind == OpAddTriple {
			m.triples[k] = true
		} else {
			delete(m.triples, k)
		}
	}
	return true
}

// checkIndexes holds g's triple reads and value index to the model:
// HasTriple on every modelled triple and on every other predicate
// between the same ends, NumTriples, ValueSubjects on every (predicate,
// value) pair the names allow, and EachValuePosting, which emits no
// empty list.
func checkIndexes(t *testing.T, g *Graph, m indexModel, step string) {
	t.Helper()
	node := func(tok string) (NodeID, bool) {
		if tok[0] == 'v' {
			return g.Value(tok[2:])
		}
		return g.Entity(tok[2:])
	}
	if g.NumTriples() != len(m.triples) {
		t.Fatalf("%s: NumTriples %d, model %d", step, g.NumTriples(), len(m.triples))
	}
	want := make(map[[2]string][]NodeID) // (pred, literal) -> subjects
	for tr := range m.triples {
		s, sok := g.Entity(tr[0])
		o, ook := node(tr[2])
		if !sok || !ook {
			t.Fatalf("%s: modelled triple %q has an unknown end", step, tr)
		}
		for _, p := range fuzzPreds {
			pid, ok := g.PredByName(p)
			modelled := m.triples[[3]string{tr[0], p, tr[2]}]
			if ok && g.HasTriple(s, pid, o) != modelled || !ok && modelled {
				t.Fatalf("%s: HasTriple(%s, %s, %s) = %v, model %v", step, tr[0], p, tr[2], !modelled, modelled)
			}
		}
		if tr[2][0] == 'v' {
			want[[2]string{tr[1], tr[2][2:]}] = append(want[[2]string{tr[1], tr[2][2:]}], s)
		}
	}
	for _, p := range fuzzPreds {
		pid, pok := g.PredByName(p)
		for _, lit := range fuzzVals {
			v, vok := g.Value(lit)
			exp := want[[2]string{p, lit}]
			slices.Sort(exp)
			if !pok || !vok {
				if len(exp) > 0 {
					t.Fatalf("%s: (%s, %q) modelled but unknown to the graph", step, p, lit)
				}
			} else if got := g.ValueSubjects(pid, v); !slices.Equal(got, exp) {
				t.Fatalf("%s: ValueSubjects(%s, %q) = %v, model %v", step, p, lit, got, exp)
			}
		}
	}
	lists := 0
	g.EachValuePosting(func(p PredID, v NodeID, subjects []NodeID) {
		lists++
		if len(subjects) == 0 {
			t.Fatalf("%s: EachValuePosting emits an empty list for (%s, %q)", step, g.PredName(p), g.Label(v))
		}
		if exp := want[[2]string{g.PredName(p), g.Label(v)}]; !slices.Equal(subjects, exp) {
			t.Fatalf("%s: posting (%s, %q) = %v, model %v", step, g.PredName(p), g.Label(v), subjects, exp)
		}
	})
	if lists != len(want) {
		t.Fatalf("%s: EachValuePosting emits %d lists, model %d", step, lists, len(want))
	}
}

// FuzzGraphIndexes runs a sequence of adder calls and deltas — with
// duplicate adds, removals of absent triples and entity tombstones —
// and holds the graph's triple reads and value index to a map-based
// model after every step and after a table and a text round trip.
func FuzzGraphIndexes(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 2, 3, 0, 1, 0})
	// Two predicates into one value, from one subject and from two.
	f.Add([]byte{0, 0, 1, 0, 0, 0, 1, 0, 1, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 1, 0})
	f.Add([]byte{1, 0, 2, 1, 1, 3, 2, 4, 0, 5, 1, 2, 3, 1, 1, 4, 2, 9, 5, 0, 2})
	f.Add([]byte{2, 1, 3, 7, 2, 2, 4, 1, 3, 1, 3, 7, 4, 2, 5, 5, 1, 0, 3, 3, 3, 4, 1, 6})
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 12))
	f.Fuzz(func(t *testing.T, prog []byte) {
		g, m := New(), indexModel{make(map[string]bool), make(map[[3]string]bool)}
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := int(prog[0])
			prog = prog[1:]
			return b
		}
		// tripleOp decodes one add or removal, its ends named by IDs that
		// may not be live.
		tripleOp := func(kind OpKind) DeltaOp {
			s, p, o := fuzzEnts[next()%len(fuzzEnts)], fuzzPreds[next()%len(fuzzPreds)], next()
			if o%2 == 0 {
				return DeltaOp{Kind: kind, Subject: s, Pred: p, Object: fuzzVals[o/2%len(fuzzVals)], ObjectIsValue: true}
			}
			return DeltaOp{Kind: kind, Subject: s, Pred: p, Object: fuzzEnts[o/2%len(fuzzEnts)]}
		}
		for step := 0; len(prog) > 0 && step < 64; step++ {
			switch op := next() % 6; op {
			case 0: // the adders: an entity, or a triple between live ends
				id := fuzzEnts[next()%len(fuzzEnts)]
				g.MustAddEntity(id, fuzzType(id))
				m.ents[id] = true
			case 1:
				top := tripleOp(OpAddTriple)
				s, ok := g.Entity(top.Subject)
				o, ook := g.Entity(top.Object)
				if top.ObjectIsValue {
					o, ook = g.AddValue(top.Object), true
				}
				if ok && ook {
					g.MustAddTriple(s, top.Pred, o)
					m.apply(top)
				}
			default: // a delta of one to four ops
				d, sim, valid := new(Delta), m.clone(), true
				for range 1 + next()%4 {
					var dop DeltaOp
					switch k := next() % 4; k {
					case 0:
						id := fuzzEnts[next()%len(fuzzEnts)]
						dop = DeltaOp{Kind: OpAddEntity, ID: id, TypeName: fuzzType(id)}
					case 1:
						dop = DeltaOp{Kind: OpRemoveEntity, ID: fuzzEnts[next()%len(fuzzEnts)]}
					default:
						dop = tripleOp(OpKind(k))
					}
					d.ops = append(d.ops, dop)
					valid = sim.apply(dop) && valid
				}
				if _, err := g.ApplyDelta(d); (err == nil) != valid {
					t.Fatalf("step %d: ApplyDelta(%+v) = %v, model says valid=%v", step, d.ops, err, valid)
				}
				if valid {
					m = sim
				}
			}
			checkIndexes(t, g, m, fmt.Sprintf("step %d", step))
		}
		var tables bytes.Buffer
		bw := bufio.NewWriter(&tables)
		g.WriteTables(bw)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		r, _, err := ReadTables(tables.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		checkIndexes(t, r, m, "tables round trip")
		var text bytes.Buffer
		if err := g.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if r, err = ParseText(&text); err != nil {
			t.Fatal(err)
		}
		checkIndexes(t, r, m, "text round trip")
	})
}

// TestGraphHoldsNoHashIndex guards the tables' form: the adjacency is
// the triple set, the value nodes hold the postings, and the name
// directory is a table of node IDs, so a Graph holds no map, nor does
// any struct it holds by value.
func TestGraphHoldsNoHashIndex(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		for i := range typ.NumField() {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Map:
				t.Errorf("%s.%s is a %v: a Graph holds no map", path, f.Name, f.Type)
			case reflect.Struct:
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("Graph", reflect.TypeOf(Graph{}))
}
