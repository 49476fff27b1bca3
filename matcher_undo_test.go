package graphkeys_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphkeys"
)

// TestApplyUndoAtLedgerScale checks the undo law of the chase (L5) on
// the ledger's two inputs, through Matcher.Apply and the graph's write
// path: for 200 sampled value triples of the planted chains, removing
// one and adding it back gives back the identical Result, NumTriples,
// the triple itself (HasTriple) and EntitiesWith(p, v), whose order is
// by NodeID and so must repeat exactly. Adjacency order may differ:
// the triple added back goes to the end of its subject's and its
// value's edge lists, which no read here depends on.
//
// The law holds for deltas of k ∈ {2, 4, 8} ops as well (undoMultiOp):
// k sampled value triples removed; the first k triples of an identified
// chain pair's two witnesses, taken in turns from each side, so that
// both halves of a witness go in one delta; and one fresh entity with
// k−1 triples copied from such a pair, undone by RemoveEntity. Each is
// applied and then its inverse, which must give back the identical
// Result, EntitiesWith and NumTriples. It kills a repair region built
// from the first added triple of a delta only (inc.affectedEntities):
// the value triples a delta puts back after its first stay unchecked.
func TestApplyUndoAtLedgerScale(t *testing.T) {
	for i, in := range ledgerInputs {
		t.Run(in.name, func(t *testing.T) {
			w, text := ledgerInput(t, i)
			g, err := graphkeys.LoadGraph(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			ks, err := graphkeys.ParseKeys(w.Keys.Format())
			if err != nil {
				t.Fatal(err)
			}
			var chain [][3]string
			g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
				if isValue && strings.HasPrefix(s, "c_") {
					chain = append(chain, [3]string{s, p, o})
				}
			})
			slices.SortFunc(chain, func(a, b [3]string) int { return slices.Compare(a[:], b[:]) })
			rng := rand.New(rand.NewSource(2))
			rng.Shuffle(len(chain), func(i, j int) { chain[i], chain[j] = chain[j], chain[i] })
			m, err := graphkeys.NewMatcher(g, ks, graphkeys.Options{})
			if err != nil {
				t.Fatal(err)
			}
			apply := func(d *graphkeys.Delta) {
				t.Helper()
				if _, _, err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
			for _, tr := range chain[:200] {
				s, p, v := tr[0], tr[1], tr[2]
				res, n, with := m.Result(), g.NumTriples(), m.EntitiesWith(p, v)
				apply(graphkeys.NewDelta().RemoveValueTriple(s, p, v))
				if graphkeys.HasValueTriple(g, s, p, v) || g.NumTriples() != n-1 || slices.Contains(m.EntitiesWith(p, v), s) {
					t.Fatalf("removing %q: still held, or %d triples of %d", tr, g.NumTriples(), n)
				}
				apply(graphkeys.NewDelta().AddValueTriple(s, p, v))
				if !graphkeys.HasValueTriple(g, s, p, v) || g.NumTriples() != n {
					t.Fatalf("adding %q back: not held, or %d triples of %d", tr, g.NumTriples(), n)
				}
				if got := m.EntitiesWith(p, v); !slices.Equal(got, with) {
					t.Fatalf("adding %q back: EntitiesWith = %q, was %q", tr, got, with)
				}
				if got := m.Result(); !reflect.DeepEqual(got, res) {
					t.Fatalf("adding %q back: %d matches in %d classes, was %d in %d",
						tr, len(got.Matches), len(got.Classes), len(res.Matches), len(res.Classes))
				}
			}
			undoMultiOp(t, g, m, chain[200:])
		})
	}
}

// undoMultiOp is TestApplyUndoAtLedgerScale's multi-op half on the
// matcher m over g. values are the chains' value triples in a seeded
// order, disjoint from those the single-op half sampled.
func undoMultiOp(t *testing.T, g *graphkeys.Graph, m *graphkeys.Matcher, values [][3]string) {
	t.Helper()
	type triple struct {
		s, p, o string
		isValue bool
	}
	// out and in hold the chains' triples by subject and by entity
	// object, each list sorted, so a key's predicates (the chains'
	// lowest) come before the noise.
	out, in := map[string][]triple{}, map[string][]triple{}
	g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
		if strings.HasPrefix(s, "c_") {
			out[s] = append(out[s], triple{s, p, o, isValue})
			if !isValue {
				in[o] = append(in[o], triple{s, p, o, isValue})
			}
		}
	})
	byTriple := func(a, b triple) int {
		return cmp.Or(strings.Compare(a.p, b.p), strings.Compare(a.s, b.s), strings.Compare(a.o, b.o))
	}
	for _, ts := range out {
		slices.SortFunc(ts, byTriple)
	}
	for _, ts := range in {
		slices.SortFunc(ts, byTriple)
	}
	// witness lists what an entity's key may read, by predicate: its own
	// triples and those of its attribute chain's entities, named after
	// it.
	witness := func(e string) []triple {
		ts := slices.Clone(out[e])
		for _, tr := range out[e] {
			if strings.HasPrefix(tr.o, e+"_") {
				ts = append(ts, out[tr.o]...)
			}
		}
		slices.SortFunc(ts, byTriple)
		return ts
	}
	// turns interleaves a and b: a[0], b[0], a[1], b[1], ...
	turns := func(a, b []triple) []triple {
		var ts []triple
		for i := range max(len(a), len(b)) {
			if i < len(a) {
				ts = append(ts, a[i])
			}
			if i < len(b) {
				ts = append(ts, b[i])
			}
		}
		return ts
	}
	var pairs []graphkeys.Pair
	for _, pr := range m.Result().Matches {
		if strings.HasPrefix(pr.A, "c_") && strings.HasPrefix(pr.B, "c_") {
			pairs = append(pairs, pr)
		}
	}
	if len(pairs) < 60 {
		t.Fatalf("%d identified chain pairs, want at least 60", len(pairs))
	}
	// undo applies d and then inv, and wants back what m held before d
	// at the value triples of d; held, if set, must hold after d.
	undo := func(what string, d, inv *graphkeys.Delta, ts []triple, held func() bool) {
		t.Helper()
		res, n := m.Result(), g.NumTriples()
		with := make([][]graphkeys.EntityID, len(ts))
		for j, tr := range ts {
			with[j] = m.EntitiesWith(tr.p, tr.o)
		}
		if _, _, err := m.Apply(d); err != nil {
			t.Fatal(err)
		}
		if held != nil && !held() {
			t.Fatalf("%s: the delta did not do what the case needs", what)
		}
		if _, _, err := m.Apply(inv); err != nil {
			t.Fatal(err)
		}
		if g.NumTriples() != n {
			t.Fatalf("%s: %d triples after the inverse, was %d", what, g.NumTriples(), n)
		}
		for j, tr := range ts {
			if tr.isValue {
				if got := m.EntitiesWith(tr.p, tr.o); !slices.Equal(got, with[j]) {
					t.Fatalf("%s: EntitiesWith(%q, %q) = %q, was %q", what, tr.p, tr.o, got, with[j])
				}
			}
		}
		if got := m.Result(); !reflect.DeepEqual(got, res) {
			t.Fatalf("%s: %d matches in %d classes after the inverse, was %d in %d",
				what, len(got.Matches), len(got.Classes), len(res.Matches), len(res.Classes))
		}
	}
	removal := func(ts []triple) (d, inv *graphkeys.Delta) {
		d, inv = graphkeys.NewDelta(), graphkeys.NewDelta()
		for _, tr := range ts {
			if tr.isValue {
				d.RemoveValueTriple(tr.s, tr.p, tr.o)
				inv.AddValueTriple(tr.s, tr.p, tr.o)
			} else {
				d.RemoveEntityTriple(tr.s, tr.p, tr.o)
				inv.AddEntityTriple(tr.s, tr.p, tr.o)
			}
		}
		return d, inv
	}
	next, fresh := 0, 0
	for _, k := range []int{2, 4, 8} {
		for range 10 {
			var ts []triple
			for _, v := range values[next : next+k] {
				ts = append(ts, triple{v[0], v[1], v[2], true})
			}
			next += k
			d, inv := removal(ts)
			undo(fmt.Sprintf("%d value triples from %q", k, ts[0].s), d, inv, ts, nil)
		}
		// Pairs are spread over the chains' levels; k = 8 takes pairs
		// with eight witness triples between them, which level 0 lacks.
		taken := 0
		for j := 0; j < len(pairs) && taken < 10; j += 3 {
			a, b := pairs[j].A, pairs[j].B
			ts := turns(witness(a), witness(b))
			if len(ts) < k {
				continue
			}
			taken++
			ts = ts[:k]
			d, inv := removal(ts)
			undo(fmt.Sprintf("%d witness triples of (%s, %s)", k, a, b), d, inv, ts,
				func() bool { return !m.Same(a, b) })
		}
		if taken < 10 {
			t.Fatalf("%d pairs hold %d witness triples, want 10", taken, k)
		}
		taken = 0
		for j := 1; j < len(pairs) && taken < 5; j += 3 {
			a, b := pairs[j].A, pairs[j].B
			src := append(turns(out[a], out[b]), turns(in[a], in[b])...)
			if len(src) < k-1 {
				continue
			}
			taken++
			f := fmt.Sprintf("c_undo_fresh%d", fresh)
			fresh++
			typ, _ := g.HasEntity(a)
			d := graphkeys.NewDelta().AddEntity(f, typ)
			var copied []triple
			for _, tr := range src[:k-1] {
				switch {
				case tr.isValue:
					d.AddValueTriple(f, tr.p, tr.o)
					copied = append(copied, triple{f, tr.p, tr.o, true})
				case tr.s == a || tr.s == b:
					d.AddEntityTriple(f, tr.p, tr.o)
				default:
					d.AddEntityTriple(tr.s, tr.p, f)
				}
			}
			// From k = 4 on, f holds a's attribute chain and, past level
			// 0, a's child, so it joins a's class.
			var joined func() bool
			if k >= 4 {
				joined = func() bool { return m.Same(f, a) }
			}
			undo(fmt.Sprintf("fresh %s with %d ops from (%s, %s)", f, k, a, b), d, graphkeys.NewDelta().RemoveEntity(f), copied, joined)
		}
		if taken < 5 {
			t.Fatalf("%d pairs hold %d triples to copy, want 5", taken, k-1)
		}
	}
}

// TestUnkeyedPredicateIrrelevant checks irrelevance (L4) on the ledger's
// two inputs: triples on a predicate that no key mentions leave the
// partition as it was, for the batch engines on the augmented graph,
// for a Matcher that applies them as one delta, and for a durable
// matcher reopened after that delta. They fall where a predicate read
// wrongly would tip the partition: on 150 pairs of same-type keyed
// entities in different classes (at most 10 a type), each end getting,
// under the unkeyed predicate, every value and entity its partner holds.
func TestUnkeyedPredicateIrrelevant(t *testing.T) {
	const pred = "unkeyed_copy"
	type edge struct {
		o       string
		isValue bool
	}
	for i, in := range ledgerInputs {
		t.Run(in.name, func(t *testing.T) {
			w, text := ledgerInput(t, i)
			if strings.Contains(w.Keys.Format(), pred) {
				t.Fatalf("a key mentions %q", pred)
			}
			ks, err := graphkeys.ParseKeys(w.Keys.Format())
			if err != nil {
				t.Fatal(err)
			}
			load := func() *graphkeys.Graph {
				t.Helper()
				g, err := graphkeys.LoadGraph(bytes.NewReader(text))
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
			g := load()
			want, err := graphkeys.Match(g, ks, graphkeys.Options{})
			if err != nil {
				t.Fatal(err)
			}
			class := map[graphkeys.EntityID]int{}
			for c, members := range want.Classes {
				for _, e := range members {
					class[e] = c + 1
				}
			}
			out := map[graphkeys.EntityID][]edge{}
			g.EachTriple(func(s graphkeys.EntityID, _, o string, isValue bool) {
				out[s] = append(out[s], edge{o, isValue})
			})
			byType := map[string][]graphkeys.EntityID{}
			g.EachEntity(func(id graphkeys.EntityID, typ string) {
				if len(w.Keys.ForType(typ)) > 0 {
					byType[typ] = append(byType[typ], id)
				}
			})
			var apart [][2]graphkeys.EntityID
			for _, typ := range slices.Sorted(maps.Keys(byType)) {
				ids := byType[typ]
				for j, n := 1, 0; j < len(ids) && n < 10 && len(apart) < 150; j += 2 {
					if a, b := ids[j-1], ids[j]; class[a] == 0 || class[a] != class[b] {
						apart = append(apart, [2]graphkeys.EntityID{a, b})
						n++
					}
				}
			}
			if len(apart) < 150 {
				t.Fatalf("%d unmatched pairs, want 150", len(apart))
			}
			d := graphkeys.NewDelta()
			for _, pair := range apart {
				for k, s := range pair {
					for _, e := range out[pair[1-k]] {
						if e.isValue {
							d.AddValueTriple(s, pred, e.o)
							err = g.AddValueTriple(s, pred, e.o)
						} else {
							d.AddEntityTriple(s, pred, e.o)
							err = g.AddEntityTriple(s, pred, e.o)
						}
						if err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			check := func(what string, got *graphkeys.Result) {
				t.Helper()
				if !reflect.DeepEqual(got.Classes, want.Classes) {
					t.Errorf("%s: %d classes over %d pairs, want %d over %d",
						what, len(got.Classes), len(got.Matches), len(want.Classes), len(want.Matches))
				}
			}
			for _, eng := range []graphkeys.Engine{graphkeys.Chase, graphkeys.ParallelChase, graphkeys.MapReduceOpt, graphkeys.VertexCentricOpt} {
				res, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				check(eng.String(), res)
			}

			m, err := graphkeys.NewMatcher(load(), ks, graphkeys.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			check("Matcher after Apply", m.Result())

			dir := t.TempDir()
			if m, err = graphkeys.SeedMatcher(dir, load(), ks, graphkeys.Options{}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Apply(d); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if m, err = graphkeys.OpenMatcher(dir, ks, graphkeys.Options{}); err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if m.Graph().NumTriples() != g.NumTriples() {
				t.Fatalf("reopened graph holds %d triples, the augmented one %d", m.Graph().NumTriples(), g.NumTriples())
			}
			check("OpenMatcher after SeedMatcher, Apply, Close", m.Result())
		})
	}
}

// TestChurchRosserAtLedgerScale checks the Church–Rosser property (L1)
// on the ledger's two inputs: chase(G, Σ) is one label partition
// whatever order the chase meets G and Σ in. Against Chase at p = 1 on
// the input as generated, it runs Chase at p = 1 and ParallelChase at
// p = 2 under each of three changes alone and all together: a seeded
// relabelling of the entities, added in a shuffled order (node-ID
// order and label order both move); the triples added in a shuffled
// order (value IDs and adjacency order move); and the keys in a
// shuffled order. ParallelChase at p = 2 on the input rebuilt as it
// was changes p alone. Under all three changes at once it also runs
// EMMR's three variants and EMVC's two at p = 2, and the incremental
// path: a SeedMatcher on all but the last 5 % of the triples, which
// arrive shuffled through ApplyBatch in batches of 64, none of whose
// passes may rebuild; its live result is inc's, the same directory
// reopened (one replay pass) is OpenMatcher's. Mutants killed: the
// sequential driver stopping after its first
// sweep (runSequential's `for changed` never entered): on
// dbpedia-chains it finds 1 620 of the 1 632 pairs as generated and
// 1 294 relabelled, on google-chains 2 276 and 2 216 of 2 340; EMVC's
// identify seeding no increments (both variants): 1 132 of 1 632 and
// 2 124 of 2 340; inc's repair seeding no region partner: 1 241 and
// 2 014.
func TestChurchRosserAtLedgerScale(t *testing.T) {
	type triple struct {
		s, p, o string
		isValue bool
	}
	for i, in := range ledgerInputs {
		t.Run(in.name, func(t *testing.T) {
			w, text := ledgerInput(t, i)
			g, err := graphkeys.LoadGraph(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			ks, err := graphkeys.ParseKeys(w.Keys.Format())
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: graphkeys.Chase, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var ents [][2]string
			g.EachEntity(func(id graphkeys.EntityID, typ string) { ents = append(ents, [2]string{id, typ}) })
			var triples []triple
			g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
				triples = append(triples, triple{s, p, o, isValue})
			})
			// keyText is ks in the DSL, one block per key (each ends in
			// a line holding "}"), the blocks shuffled if shuffle is set.
			keyText := func(shuffle *rand.Rand) string {
				var blocks []string
				for _, b := range strings.SplitAfter(ks.Format(), "\n}\n") {
					if b = strings.TrimSpace(b); b != "" {
						blocks = append(blocks, b)
					}
				}
				if len(blocks) != ks.Len() {
					t.Fatalf("%d key blocks, %d keys", len(blocks), ks.Len())
				}
				if shuffle != nil {
					shuffle.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
				}
				return strings.Join(blocks, "\n\n")
			}
			// partition maps got's classes back to the input's labels
			// through old and orders them as Result does.
			partition := func(got *graphkeys.Result, old map[string]string) [][]graphkeys.EntityID {
				classes := make([][]graphkeys.EntityID, len(got.Classes))
				for c, members := range got.Classes {
					for _, e := range members {
						if o, ok := old[e]; ok {
							e = o
						}
						classes[c] = append(classes[c], e)
					}
					slices.Sort(classes[c])
				}
				slices.SortFunc(classes, func(a, b []graphkeys.EntityID) int { return strings.Compare(a[0], b[0]) })
				return classes
			}
			expect := func(what string, res *graphkeys.Result, old map[string]string) {
				t.Helper()
				if got := partition(res, old); !reflect.DeepEqual(got, want.Classes) {
					t.Errorf("%s: %d classes over %d pairs, want %d over %d",
						what, len(got), len(res.Matches), len(want.Classes), len(want.Matches))
				}
			}
			// check runs each engine at its p on g. Chase and
			// ParallelChase run under every change; the paper's engines,
			// EMMR's three variants and EMVC's two, at p = 2 under all
			// changes at once.
			type run struct {
				eng graphkeys.Engine
				p   int
			}
			chases := []run{{graphkeys.Chase, 1}, {graphkeys.ParallelChase, 2}}
			paper := []run{{graphkeys.MapReduce, 2}, {graphkeys.MapReduceVF2, 2}, {graphkeys.MapReduceOpt, 2},
				{graphkeys.VertexCentric, 2}, {graphkeys.VertexCentricOpt, 2}}
			check := func(what string, g *graphkeys.Graph, ks *graphkeys.KeySet, old map[string]string, runs []run) {
				t.Helper()
				for _, run := range runs {
					res, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: run.eng, Workers: run.p})
					if err != nil {
						t.Fatal(err)
					}
					expect(fmt.Sprintf("%s, %v at p = %d", what, run.eng, run.p), res, old)
				}
			}
			// feed applies late, one triple a delta, through ApplyBatch
			// in batches of 64; no pass may take the rebuild rule, whose
			// Stats read Region 0 with Checked > 0 (a pass of additions
			// that repairs has a region).
			feed := func(what string, m *graphkeys.Matcher, late []triple, name map[string]string) {
				t.Helper()
				for j := 0; j < len(late); j += 64 {
					var ds []*graphkeys.Delta
					for _, tr := range late[j:min(j+64, len(late))] {
						if tr.isValue {
							ds = append(ds, graphkeys.NewDelta().AddValueTriple(name[tr.s], tr.p, tr.o))
						} else {
							ds = append(ds, graphkeys.NewDelta().AddEntityTriple(name[tr.s], tr.p, name[tr.o]))
						}
					}
					if _, _, err := m.ApplyBatch(ds); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if st := m.LastStats(); st.Region == 0 && st.Checked > 0 {
						t.Fatalf("%s: the pass of deltas %d..%d rebuilt (%+v)", what, j, j+len(ds)-1, st)
					}
				}
			}
			for _, v := range []struct {
				what                   string
				relabel, triples, keys bool
				paper                  bool // also the paper engines, inc and OpenMatcher
			}{
				{"as generated", false, false, false, false},
				{"relabelled entities", true, false, false, false},
				{"shuffled triples", false, true, false, false},
				{"shuffled keys", false, false, true, false},
				{"all three", true, true, true, true},
			} {
				rng := rand.New(rand.NewSource(int64(17 + i)))
				name, old := map[string]string{}, map[string]string{}
				order := slices.Clone(ents)
				if v.relabel {
					perm := rng.Perm(len(ents))
					for k, e := range ents {
						name[e[0]] = fmt.Sprintf("r%d", perm[k])
						old[name[e[0]]] = e[0]
					}
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				} else {
					for _, e := range ents {
						name[e[0]] = e[0]
					}
				}
				ts := slices.Clone(triples)
				if v.triples {
					rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
				}
				build := func(ts []triple) *graphkeys.Graph {
					vg := graphkeys.NewGraph()
					for _, e := range order {
						if err := vg.AddEntity(name[e[0]], e[1]); err != nil {
							t.Fatal(err)
						}
					}
					for _, tr := range ts {
						if tr.isValue {
							err = vg.AddValueTriple(name[tr.s], tr.p, tr.o)
						} else {
							err = vg.AddEntityTriple(name[tr.s], tr.p, name[tr.o])
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					return vg
				}
				var shuffle *rand.Rand
				if v.keys {
					shuffle = rng
				}
				vks, err := graphkeys.ParseKeys(keyText(shuffle))
				if err != nil {
					t.Fatal(err)
				}
				if !v.paper {
					check(v.what, build(ts), vks, old, chases)
					continue
				}
				check(v.what, build(ts), vks, old, append(chases, paper...))

				// inc and OpenMatcher: SeedMatcher (NewMatcher made durable)
				// on all but the last 5 % of the triples, which then arrive
				// shuffled, in batches. The live result is inc's; the one
				// reopened from the directory, whose log replays as one
				// pass, is OpenMatcher's.
				cut := len(ts) - len(ts)/20
				late := slices.Clone(ts[cut:])
				rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
				dir := t.TempDir()
				m, err := graphkeys.SeedMatcher(dir, build(ts[:cut]), vks, graphkeys.Options{})
				if err != nil {
					t.Fatal(err)
				}
				feed(v.what+", inc", m, late, name)
				expect(v.what+", inc", m.Result(), old)
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
				if m, err = graphkeys.OpenMatcher(dir, vks, graphkeys.Options{}); err != nil {
					t.Fatal(err)
				}
				if st := m.LastStats(); st.Merged != len(late) || st.Region == 0 {
					t.Errorf("%s: reopening replayed %d of %d records with Stats %+v, want one repair pass over all", v.what, st.Merged, len(late), st)
				}
				expect(v.what+", OpenMatcher", m.Result(), old)
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestMonotoneAtLedgerScale checks that the chase is monotone (L2, L3)
// on the ledger's two inputs. L2, in G: for a seeded 10 % of the
// triples T, chase(G − T) ⊆ chase(G); a SeedMatcher on G − T then takes
// T back through ApplyBatch in batches of 64, no batch's event may carry
// a Removed pair, and the result ends equal to Match(G). L3, in Σ: for
// a seeded half Σ′ of the keys, chase(G, Σ′) ⊆ chase(G, Σ) under Chase
// and EMOptVC. Mutant killed: ApplyBatch handing the pass's added and
// removed pairs to the event swapped (every batch that merges reports
// Removed pairs).
func TestMonotoneAtLedgerScale(t *testing.T) {
	type triple struct {
		s, p, o string
		isValue bool
	}
	pairSet := func(res *graphkeys.Result) map[graphkeys.Pair]bool {
		set := make(map[graphkeys.Pair]bool, len(res.Matches))
		for _, m := range res.Matches {
			if m.A > m.B {
				m.A, m.B = m.B, m.A
			}
			set[m] = true
		}
		return set
	}
	subset := func(what string, sub, super *graphkeys.Result) {
		t.Helper()
		in := pairSet(super)
		for p := range pairSet(sub) {
			if !in[p] {
				t.Fatalf("%s: %v is identified in the smaller input only", what, p)
			}
		}
	}
	for i, in := range ledgerInputs {
		t.Run(in.name, func(t *testing.T) {
			w, text := ledgerInput(t, i)
			g, err := graphkeys.LoadGraph(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			ks, err := graphkeys.ParseKeys(w.Keys.Format())
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphkeys.Match(g, ks, graphkeys.Options{Engine: graphkeys.Chase, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(31 + i)))

			// L2: G − T, then T back in batches of 64.
			var kept, late []triple
			g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
				if tr := (triple{s, p, o, isValue}); rng.Intn(10) == 0 {
					late = append(late, tr)
				} else {
					kept = append(kept, tr)
				}
			})
			sub := graphkeys.NewGraph()
			g.EachEntity(func(id graphkeys.EntityID, typ string) {
				if err := sub.AddEntity(id, typ); err != nil {
					t.Fatal(err)
				}
			})
			for _, tr := range kept {
				if tr.isValue {
					err = sub.AddValueTriple(tr.s, tr.p, tr.o)
				} else {
					err = sub.AddEntityTriple(tr.s, tr.p, tr.o)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			m, err := graphkeys.SeedMatcher(t.TempDir(), sub, ks, graphkeys.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			before := m.Result()
			subset("chase(G − T) ⊆ chase(G)", before, want)
			t.Logf("L2: %d of %d triples held back; %d of %d pairs without them", len(late), len(kept)+len(late), len(before.Matches), len(want.Matches))
			for j := 0; j < len(late); j += 64 {
				var ds []*graphkeys.Delta
				for _, tr := range late[j:min(j+64, len(late))] {
					if tr.isValue {
						ds = append(ds, graphkeys.NewDelta().AddValueTriple(tr.s, tr.p, tr.o))
					} else {
						ds = append(ds, graphkeys.NewDelta().AddEntityTriple(tr.s, tr.p, tr.o))
					}
				}
				ev, _, err := m.ApplyBatch(ds)
				if err != nil {
					t.Fatal(err)
				}
				if len(ev.Removed) > 0 {
					t.Fatalf("adding triples %d..%d removed %d pairs, %v first", j, j+len(ds)-1, len(ev.Removed), ev.Removed[0])
				}
			}
			if got := m.Result(); !reflect.DeepEqual(pairSet(got), pairSet(want)) {
				t.Fatalf("G − T with T added back: %d pairs, Match(G) %d", len(got.Matches), len(want.Matches))
			}

			// L3: a seeded half of the keys, one DSL block a key.
			var blocks []string
			for _, b := range strings.SplitAfter(ks.Format(), "\n}\n") {
				if b = strings.TrimSpace(b); b != "" {
					blocks = append(blocks, b)
				}
			}
			rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
			half, err := graphkeys.ParseKeys(strings.Join(blocks[:len(blocks)/2], "\n\n"))
			if err != nil {
				t.Fatal(err)
			}
			for _, eng := range []graphkeys.Engine{graphkeys.Chase, graphkeys.VertexCentricOpt} {
				res, err := graphkeys.Match(g, half, graphkeys.Options{Engine: eng, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				subset(fmt.Sprintf("chase(G, Σ′) ⊆ chase(G, Σ) under %v", eng), res, want)
				t.Logf("L3: %d of %d keys find %d of %d pairs under %v", half.Len(), ks.Len(), len(res.Matches), len(want.Matches), eng)
			}
		})
	}
}

// TestBatchEqualsSerialAtLedgerScale checks L6, batch = serial = replay,
// on the ledger's two inputs. Two SeedMatchers start on all but a
// seeded 5 % of the triples; the held-back triples then arrive as
// one-triple deltas, with an invalid delta (an edge to an unknown
// entity) after every 50th. One matcher takes them through ApplyBatch
// in batches of 64, the other through one Apply per delta. The two
// must agree on the Result, on each delta's Seq and error text, and on
// the records their logs decode to; each directory, reopened, must
// give back its live matcher's Seq and Result. Mutant killed, which
// FuzzApplyBatchEqualsSerial's seeds miss: inc's ApplyEach handing its
// pass only the last delta's added triples (res.AddedTriples =
// r.AddedTriples); the batch side ends with 1 317 of 1 632 pairs on
// dbpedia-chains and 2 072 of 2 340 on google-chains.
func TestBatchEqualsSerialAtLedgerScale(t *testing.T) {
	type triple struct {
		s, p, o string
		isValue bool
	}
	for i, in := range ledgerInputs {
		t.Run(in.name, func(t *testing.T) {
			w, text := ledgerInput(t, i)
			g, err := graphkeys.LoadGraph(bytes.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			ks, err := graphkeys.ParseKeys(w.Keys.Format())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(43 + i)))
			var kept, late []triple
			g.EachTriple(func(s graphkeys.EntityID, p, o string, isValue bool) {
				if tr := (triple{s, p, o, isValue}); rng.Intn(20) == 0 {
					late = append(late, tr)
				} else {
					kept = append(kept, tr)
				}
			})
			rng.Shuffle(len(late), func(i, j int) { late[i], late[j] = late[j], late[i] })
			seed := func(dir string) *graphkeys.Matcher {
				sub := graphkeys.NewGraph()
				g.EachEntity(func(id graphkeys.EntityID, typ string) {
					if err := sub.AddEntity(id, typ); err != nil {
						t.Fatal(err)
					}
				})
				for _, tr := range kept {
					if tr.isValue {
						err = sub.AddValueTriple(tr.s, tr.p, tr.o)
					} else {
						err = sub.AddEntityTriple(tr.s, tr.p, tr.o)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				m, err := graphkeys.SeedMatcher(dir, sub, ks, graphkeys.Options{})
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			// deltas builds the stream afresh for each side.
			deltas := func() []*graphkeys.Delta {
				var ds []*graphkeys.Delta
				for j, tr := range late {
					if tr.isValue {
						ds = append(ds, graphkeys.NewDelta().AddValueTriple(tr.s, tr.p, tr.o))
					} else {
						ds = append(ds, graphkeys.NewDelta().AddEntityTriple(tr.s, tr.p, tr.o))
					}
					if j%50 == 49 {
						ds = append(ds, graphkeys.NewDelta().AddEntityTriple(tr.s, tr.p, "no-such-entity"))
					}
				}
				return ds
			}
			bdir, sdir := t.TempDir(), t.TempDir()
			bm, sm := seed(bdir), seed(sdir)
			defer sm.Close()

			var batched []graphkeys.Outcome
			ds := deltas()
			for j := 0; j < len(ds); j += 64 {
				_, outcomes, _ := bm.ApplyBatch(ds[j:min(j+64, len(ds))])
				batched = append(batched, outcomes...)
			}
			invalid := 0
			for j, d := range deltas() {
				_, _, err := sm.Apply(d)
				want := graphkeys.Outcome{Seq: sm.Seq(), Err: err}
				if got := batched[j]; got.Seq != want.Seq || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
					t.Fatalf("delta %d: batch outcome seq %d, error %v; serial Apply: seq %d, error %v", j, got.Seq, got.Err, want.Seq, want.Err)
				}
				if errors.Is(err, graphkeys.ErrInvalidDelta) {
					invalid++
				} else if err != nil {
					t.Fatalf("delta %d: %v", j, err)
				}
			}
			if invalid != len(late)/50 {
				t.Fatalf("%d deltas failed validation, want the %d invalid ones", invalid, len(late)/50)
			}
			live := bm.Result()
			if !reflect.DeepEqual(live, sm.Result()) {
				t.Fatalf("batched: %d pairs, serial: %d", len(live.Matches), len(sm.Result().Matches))
			}
			if b, s := graphkeys.LogRecords(t, bdir), graphkeys.LogRecords(t, sdir); !reflect.DeepEqual(b, s) {
				t.Fatalf("the logs decode differently: %d records on the batch side, %d on the serial side", len(b), len(s))
			}
			t.Logf("%d of %d triples held back, %d invalid deltas; %d pairs", len(late), len(kept)+len(late), invalid, len(live.Matches))

			for _, side := range []struct {
				name, dir string
				m         *graphkeys.Matcher
			}{{"batch side", bdir, bm}, {"serial side", sdir, sm}} {
				seq, res := side.m.Seq(), side.m.Result()
				if err := side.m.Close(); err != nil {
					t.Fatal(err)
				}
				m, err := graphkeys.OpenMatcher(side.dir, ks, graphkeys.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if m.Seq() != seq || !reflect.DeepEqual(m.Result(), res) {
					t.Errorf("%s reopened at seq %d with %d pairs, live at seq %d with %d", side.name, m.Seq(), len(m.Result().Matches), seq, len(res.Matches))
				}
				if err := m.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
