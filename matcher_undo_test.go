package graphkeys_test

import (
	"bytes"
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
		})
	}
}
