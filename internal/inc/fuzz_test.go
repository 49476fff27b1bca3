package inc

import (
	"fmt"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
)

// FuzzDeltaSequence decodes arbitrary bytes into a mutation sequence
// over a small keyed universe, applies it through the incremental
// engine with parallel repair (p = 4; graph phase single-worker so
// node IDs stay deterministic), and asserts the maintained state is
// byte-identical to the reference: the same deltas applied to a fresh
// graph plus a sequential full re-chase. Every byte pair is one op;
// invalid deltas must be rejected identically on both sides. Op bytes
// from 0xf0 up are bulk adds — 16 to 64 persons with colliding emails
// in one op, more than the seed graph holds — so sequences cross the
// doubling rule of repair in both directions.
//
// CI runs this as a fuzz smoke leg alongside the parser fuzzers.
func FuzzDeltaSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45})
	f.Add([]byte{0x40, 0x00, 0x41, 0x11, 0x82, 0x22, 0xc3, 0x33})
	f.Add([]byte{0x05, 0xff, 0x3c, 0x81, 0x7e, 0x02, 0x99, 0xaa, 0x55, 0x10})
	f.Add([]byte{0xf0, 0x00, 0x01, 0x12, 0xf1, 0x03, 0x41, 0x11, 0xf0, 0x00, 0xff, 0x07, 0x03, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ents = 8
		const vals = 6
		set, err := keys.ParseString(`
key P for person {
	x -email-> e*
}
key B for band {
	x -name_of-> n*
	x -led_by-> $y:person
}`)
		if err != nil {
			t.Fatal(err)
		}
		person := func(i int) string { return fmt.Sprintf("p%d", i%ents) }
		band := func(i int) string { return fmt.Sprintf("b%d", i%(ents/2)) }
		lit := func(i int) string { return fmt.Sprintf("v%d", i%vals) }

		// Seed: persons with colliding emails, bands led by them.
		seed := &graph.Delta{}
		for i := 0; i < ents; i++ {
			seed.AddEntity(person(i), "person")
			seed.AddValueTriple(person(i), "email", lit(i/2))
		}
		for i := 0; i < ents/2; i++ {
			seed.AddEntity(band(i), "band")
			seed.AddValueTriple(band(i), "name_of", lit(i))
			seed.AddTriple(band(i), "led_by", person(i))
		}

		// Decode: every 2 bytes become one op; every 3 ops close a
		// delta. Ops may reference churned-away entities — such deltas
		// fail validation and must be skipped identically by both the
		// engine and the reference.
		var deltas []*graph.Delta
		d := &graph.Delta{}
		ops := 0
		for i := 0; i+1 < len(data); i += 2 {
			k, a := int(data[i]), int(data[i+1])
			op := k % 6
			if k >= 0xf0 {
				op = 6
			}
			switch op {
			case 0:
				d.AddValueTriple(person(a), "email", lit(a/3))
			case 1:
				d.RemoveValueTriple(person(a), "email", lit(a%vals))
			case 2:
				d.AddValueTriple(band(a), "name_of", lit(a%vals))
			case 3:
				d.RemoveValueTriple(band(a), "name_of", lit(a/2))
			case 4:
				d.RemoveEntity(person(a))
				d.AddEntity(person(a), "person")
				d.AddValueTriple(person(a), "email", lit(a%vals))
			case 5:
				d.AddTriple(band(a), "led_by", person(a/2))
			case 6:
				for j := 0; j < 16*(1+a%4); j++ {
					id := fmt.Sprintf("q%d_%d", k%4, j)
					d.AddEntity(id, "person")
					d.AddValueTriple(id, "email", lit(j/2+a))
				}
			}
			ops++
			if ops%3 == 0 {
				deltas = append(deltas, d)
				d = &graph.Delta{}
			}
		}
		if d.Len() > 0 {
			deltas = append(deltas, d)
		}

		// Engine under test: parallel repair over the whole sequence as
		// one batch per delta (workers=1 keeps allocation order equal to
		// the reference's sequential application).
		eg := graph.New()
		if _, err := eg.ApplyDelta(seed); err != nil {
			t.Fatal(err)
		}
		e, err := New(eg, set, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		var engineErrs int
		for _, gd := range deltas {
			if _, _, err := e.ApplyAll([]*graph.Delta{gd}, 1); err != nil {
				engineErrs++
			}
			checkIndexes(t, e)
		}

		// Reference: same deltas on a fresh graph, sequentially, then a
		// full re-chase.
		rg := graph.New()
		if _, err := rg.ApplyDelta(seed); err != nil {
			t.Fatal(err)
		}
		var refErrs int
		for _, gd := range deltas {
			if _, err := rg.ApplyDelta(gd); err != nil {
				refErrs++
			}
		}
		if engineErrs != refErrs {
			t.Fatalf("engine rejected %d deltas, reference rejected %d", engineErrs, refErrs)
		}
		var et, rt strings.Builder
		if err := eg.WriteText(&et); err != nil {
			t.Fatal(err)
		}
		if err := rg.WriteText(&rt); err != nil {
			t.Fatal(err)
		}
		if et.String() != rt.String() {
			t.Fatalf("engine graph diverges from reference:\nengine:\n%s\nreference:\n%s", et.String(), rt.String())
		}
		full, err := chase.Run(rg, set, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(e.Pairs(), full.Pairs) {
			t.Fatalf("incremental pairs diverge from full re-chase:\ninc:  %v\nfull: %v", e.Pairs(), full.Pairs)
		}
	})
}
