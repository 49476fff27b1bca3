package match

import (
	"fmt"
	"math/rand"
	"testing"

	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// TestDataLocalityRandom property-tests the §4.1 data-locality claim on
// random graphs: for every candidate pair and key, checking within the
// cached d-neighbors gives the same verdict as checking in the whole
// graph, under both the empty and a partially grown Eq — the argument
// that lets the engines' checks search G itself (eval.go). KD is a
// 4-cycle through x whose instantiation order reaches _w through _z, a
// path of three hops to a node one hop from x: the d-neighbor prunes
// partial states there that the whole-graph search must reject by the
// triple back to x.
func TestDataLocalityRandom(t *testing.T) {
	set, err := keys.ParseString(`
key KA for a {
    x -name-> n*
    x -rel-> $y:b
}
key KB for b {
    x -tag-> t*
    _:a -rel-> x
}
key KC for a {
    x -name-> n*
    x -near-> _w:b
    _w:b -tag-> t*
}
key KD for a {
    x -name-> n*
    x -rel-> _y:b
    _z:a -rel-> _y:b
    _z:a -near-> _w:b
    x -near-> _w:b
}`)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := localityRandomGraph(rng)
		m, err := New(g, set, Options{})
		if err != nil {
			t.Fatal(err)
		}
		eq := eqrel.New(g.NumNodes())
		for round := 0; round < 2; round++ {
			for _, pr := range sweep(t, m) {
				e1, e2 := graph.NodeID(pr.A), graph.NodeID(pr.B)
				for _, ck := range m.KeysFor(g.TypeOf(e1)) {
					inD, _ := m.IdentifiedByKey(ck, e1, e2, m.Neighborhood(e1), m.Neighborhood(e2), eq)
					whole, _ := m.IdentifiedByKey(ck, e1, e2, nil, nil, eq)
					if inD != whole {
						t.Fatalf("seed %d %s (%s,%s): d-neighbor=%v whole=%v",
							seed, ck.Key.Name, g.Label(e1), g.Label(e2), inD, whole)
					}
					if whole {
						eq.Union(pr.A, pr.B)
					}
				}
			}
		}
	}
}

func localityRandomGraph(rng *rand.Rand) *graph.Graph {
	g := graph.New()
	nB := 4 + rng.Intn(4)
	var bs []graph.NodeID
	for i := 0; i < nB; i++ {
		b := g.MustAddEntity(fmt.Sprintf("b%d", i), "b")
		if rng.Intn(4) > 0 {
			g.MustAddTriple(b, "tag", g.AddValue(fmt.Sprintf("tag%d", rng.Intn(3))))
		}
		bs = append(bs, b)
	}
	nA := 5 + rng.Intn(4)
	for i := 0; i < nA; i++ {
		a := g.MustAddEntity(fmt.Sprintf("a%d", i), "a")
		if rng.Intn(5) > 0 {
			g.MustAddTriple(a, "name", g.AddValue(fmt.Sprintf("name%d", rng.Intn(3))))
		}
		g.MustAddTriple(a, "rel", bs[rng.Intn(len(bs))])
		if rng.Intn(2) == 0 {
			g.MustAddTriple(a, "near", bs[rng.Intn(len(bs))])
		}
	}
	return g
}
