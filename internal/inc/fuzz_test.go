package inc

import (
	"fmt"
	"strings"
	"testing"

	"graphkeys/internal/chase"
	"graphkeys/internal/eqrel"
	"graphkeys/internal/graph"
	"graphkeys/internal/keys"
	"graphkeys/internal/oracle"
)

// FuzzDeltaSequence decodes arbitrary bytes into a mutation sequence
// over a small keyed universe and applies it through the incremental
// engine twice — one delta per ApplyEach, and in batches of
// 1 + data[0]%8 consecutive deltas, which depend on each other — and
// asserts each maintained state is byte-identical to the reference: the
// same deltas applied one by one to a fresh graph plus a sequential
// full re-chase, whose pairs must also equal oracle.Chase on that graph
// (the re-chase shares match with the engine; the oracle shares
// nothing). Every byte pair is one op; invalid deltas must be
// rejected identically on every side. Op bytes from 0xf0 up are bulk
// adds — 16 to 64 persons with colliding emails in one op, more than
// the seed graph holds — so sequences cross the doubling rule of repair
// in both directions.
//
// CI runs this as a fuzz smoke leg alongside the parser fuzzers.
func FuzzDeltaSequence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x12, 0x23, 0x34, 0x45})
	f.Add([]byte{0x40, 0x00, 0x41, 0x11, 0x82, 0x22, 0xc3, 0x33})
	f.Add([]byte{0x05, 0xff, 0x3c, 0x81, 0x7e, 0x02, 0x99, 0xaa, 0x55, 0x10})
	f.Add([]byte{0xf0, 0x00, 0x01, 0x12, 0xf1, 0x03, 0x41, 0x11, 0xf0, 0x00, 0xff, 0x07, 0x03, 0x02})
	// Batches of 3 around a bulk add: applied out of order, the batch
	// allocates its nodes in another order than the reference.
	f.Add([]byte("21\xf91700000X0\"1"))
	// One band renamed to another's name, their leaders apart: the bands
	// stay apart.
	f.Add([]byte("27"))
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
		var rt strings.Builder
		if err := rg.WriteText(&rt); err != nil {
			t.Fatal(err)
		}
		full, err := chase.Run(rg, set, chase.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var def []eqrel.Pair
		for _, p := range oracle.Chase(rg, set, nil) {
			def = append(def, eqrel.Pair{A: int32(p.A), B: int32(p.B)})
		}

		// Engines under test: the whole sequence one delta per pass, then
		// in batches.
		batch := 1
		if len(data) > 0 {
			batch += int(data[0]) % 8
		}
		for _, size := range []int{1, batch} {
			eg := graph.New()
			if _, err := eg.ApplyDelta(seed); err != nil {
				t.Fatal(err)
			}
			e, err := New(eg, set, Options{})
			if err != nil {
				t.Fatal(err)
			}
			var engineErrs int
			for lo := 0; lo < len(deltas); lo += size {
				b := deltas[lo:min(lo+size, len(deltas))]
				_, _, err := e.ApplyEach(b, nil)
				rejected := len(b) - e.LastStats().Merged
				if (err != nil) != (rejected > 0) {
					t.Fatalf("batch %d: ApplyEach error %v with %d of %d deltas rejected", size, err, rejected, len(b))
				}
				engineErrs += rejected
				checkIndexes(t, e)
			}
			if engineErrs != refErrs {
				t.Fatalf("batch %d: engine rejected %d deltas, reference rejected %d", size, engineErrs, refErrs)
			}
			var et strings.Builder
			if err := eg.WriteText(&et); err != nil {
				t.Fatal(err)
			}
			if et.String() != rt.String() {
				t.Fatalf("batch %d: engine graph diverges from reference:\nengine:\n%s\nreference:\n%s", size, et.String(), rt.String())
			}
			if !pairsEqual(e.Eq().Pairs(), full.Pairs) {
				t.Fatalf("batch %d: incremental pairs diverge from full re-chase:\ninc:  %v\nfull: %v", size, e.Eq().Pairs(), full.Pairs)
			}
			if !pairsEqual(e.Eq().Pairs(), def) {
				t.Fatalf("batch %d: incremental pairs diverge from the definition:\ninc:        %v\ndefinition: %v", size, e.Eq().Pairs(), def)
			}
		}
	})
}
