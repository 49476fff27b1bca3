// Package testutil is the shared differential-test harness of the
// write path: a seeded, deterministic mutation-sequence generator over
// a grouped fixture of keyed entities. The incremental-repair, planner,
// WAL and public-matcher tests all drive it instead of carrying their
// own ad-hoc generators (which had drifted into three near-copies with
// slightly different mutation mixes).
//
// The fixture is Groups disjoint groups of PerGroup "person" entities
// with pairwise-colliding email value triples — the value-key material
// — and, when Bands is set, per-group "band" entities with names and a
// led_by edge to a person — the recursive-key material, so repairs
// cascade across types. Every generated delta is a pure function of
// (Config, group, round): re-invoking the generator replays the exact
// sequence, which is what lets a test apply the same stream
// concurrently and serially and demand identical results.
//
// Footprint overlap is tunable: at Overlap 0 a delta touches only its
// own group's entities and group-scoped literals, so the deltas of one
// round have pairwise-disjoint footprints (concurrent writers commute);
// raising Overlap makes deltas reach into the next
// group with that probability, producing deltas that depend on each
// other's order and overlapping repair components on demand.
package testutil

import (
	"fmt"
	"math/rand"

	"graphkeys/internal/graph"
)

// Config shapes a generated mutation sequence. The zero value is
// usable; New fills in defaults.
type Config struct {
	// Seed drives every random choice; equal Configs generate equal
	// sequences.
	Seed int64
	// Groups is the number of disjoint entity groups (default 4).
	Groups int
	// PerGroup is the number of persons per group (default 8).
	PerGroup int
	// Overlap is the per-delta probability (0..1) that the delta also
	// touches the next group, overlapping its footprint with that
	// group's deltas.
	Overlap float64
	// Bands adds band entities (name_of value triples plus a led_by
	// edge to a person) and a recursive key over them, exercising the
	// dependency-cascade repair path.
	Bands bool
	// EntityChurn mixes RemoveEntity + re-add incarnations into the
	// sequence.
	EntityChurn bool
	// Coalesce mixes ops that cancel inside one delta (duplicate adds,
	// add+remove pairs), exercising planner normalization; such deltas
	// may normalize to fewer ops or to nothing.
	Coalesce bool
}

// Generator produces the fixture and its mutation sequence.
type Generator struct {
	cfg Config
}

// New returns a generator over the config, with defaults applied.
func New(cfg Config) *Generator {
	if cfg.Groups <= 0 {
		cfg.Groups = 4
	}
	if cfg.PerGroup <= 0 {
		cfg.PerGroup = 8
	}
	return &Generator{cfg: cfg}
}

// Config returns the effective (defaulted) configuration.
func (gn *Generator) Config() Config { return gn.cfg }

// Keys returns the key DSL text matching the fixture: a value key on
// person, plus a recursive key on band when Bands is set.
func (gn *Generator) Keys() string {
	ks := `key P for person {
	x -email-> e*
}`
	if gn.cfg.Bands {
		ks += `
key B for band {
	x -name_of-> n*
	x -led_by-> $y:person
}`
	}
	return ks
}

func (gn *Generator) person(group, i int) string {
	return fmt.Sprintf("g%d-p%d", group, i%gn.cfg.PerGroup)
}

func (gn *Generator) band(group, i int) string {
	return fmt.Sprintf("g%d-b%d", group, i%gn.cfg.PerGroup)
}

// mail is a group-scoped email literal; the seed assigns mail(i/2) to
// person i, so persons collide pairwise under the value key.
func (gn *Generator) mail(group, k int) string {
	return fmt.Sprintf("g%d-mail%d", group, k%gn.cfg.PerGroup)
}

func (gn *Generator) bandName(group, k int) string {
	return fmt.Sprintf("g%d-band%d", group, k%gn.cfg.PerGroup)
}

// Seed returns the initial population as one delta.
func (gn *Generator) Seed() *graph.Delta {
	d := &graph.Delta{}
	for w := 0; w < gn.cfg.Groups; w++ {
		for i := 0; i < gn.cfg.PerGroup; i++ {
			id := gn.person(w, i)
			d.AddEntity(id, "person")
			d.AddValueTriple(id, "email", gn.mail(w, i/2))
		}
		if gn.cfg.Bands {
			for i := 0; i < gn.cfg.PerGroup; i++ {
				id := gn.band(w, i)
				d.AddEntity(id, "band")
				d.AddValueTriple(id, "name_of", gn.bandName(w, i/2))
				d.AddTriple(id, "led_by", gn.person(w, i))
			}
		}
	}
	return d
}

// rng derives the per-delta random stream: a pure function of
// (Seed, group, round).
func (gn *Generator) rng(group, round int) *rand.Rand {
	h := gn.cfg.Seed*0x9E3779B9 + int64(group+1)*0x85EBCA77 + int64(round+1)*0xC2B2AE3D
	return rand.New(rand.NewSource(h))
}

// Delta returns the mutation delta of the given group and round. It is
// deterministic: the same (Config, group, round) always yields the
// same ops, so a test can re-derive the stream for a serial reference
// run.
func (gn *Generator) Delta(group, round int) *graph.Delta {
	group %= gn.cfg.Groups
	rng := gn.rng(group, round)
	d := &graph.Delta{}
	gn.mutate(d, group, round, rng)
	if gn.cfg.Overlap > 0 && rng.Float64() < gn.cfg.Overlap {
		// Reach into the next group: overlapping footprints across the
		// round's deltas, overlapping repair regions across the batch.
		gn.mutate(d, (group+1)%gn.cfg.Groups, round, rng)
	}
	return d
}

// mutate appends one group-local mutation to d.
func (gn *Generator) mutate(d *graph.Delta, group, round int, rng *rand.Rand) {
	kinds := []int{0, 1}
	if gn.cfg.Bands {
		kinds = append(kinds, 2)
	}
	if gn.cfg.EntityChurn {
		kinds = append(kinds, 3)
	}
	if gn.cfg.Coalesce {
		kinds = append(kinds, 4)
	}
	i := rng.Intn(gn.cfg.PerGroup)
	id := gn.person(group, i)
	switch kinds[rng.Intn(len(kinds))] {
	case 0: // email churn: drop the seed email, join another collision class
		d.RemoveValueTriple(id, "email", gn.mail(group, i/2))
		d.AddValueTriple(id, "email", gn.mail(group, rng.Intn(gn.cfg.PerGroup)))
	case 1: // extra email: grow a collision class without removals
		d.AddValueTriple(id, "email", gn.mail(group, rng.Intn(gn.cfg.PerGroup)))
	case 2: // band rename: recursive-key churn
		b := gn.band(group, rng.Intn(gn.cfg.PerGroup))
		d.RemoveValueTriple(b, "name_of", gn.bandName(group, rng.Intn(gn.cfg.PerGroup)))
		d.AddValueTriple(b, "name_of", gn.bandName(group, rng.Intn(gn.cfg.PerGroup)))
	case 3: // entity churn: drop a person, re-add a fresh incarnation
		d.RemoveEntity(id)
		d.AddEntity(id, "person")
		d.AddValueTriple(id, "email", gn.mail(group, rng.Intn(gn.cfg.PerGroup)))
	case 4: // internal churn that (partially) coalesces away
		lit := fmt.Sprintf("g%d-note%d", group, round)
		d.AddValueTriple(id, "note", lit)
		d.AddValueTriple(id, "note", lit) // dup: coalesces
		if rng.Intn(2) == 0 {
			d.RemoveValueTriple(id, "note", lit) // cancels: no-op delta part
		}
	}
}

// AddOnly returns a purely additive delta of the given group and
// round that always reaches into the next group. Add-only deltas
// commute under any interleaving — the final triple set is the union —
// so concurrent batches of them compare exactly against a serialized
// reference even though their footprints (and the repair components
// they induce) overlap chain-wise across every group.
func (gn *Generator) AddOnly(group, round int) *graph.Delta {
	group %= gn.cfg.Groups
	rng := gn.rng(group, 1<<21+round)
	d := &graph.Delta{}
	add := func(w int) {
		id := gn.person(w, rng.Intn(gn.cfg.PerGroup))
		d.AddValueTriple(id, "email", gn.mail(w, rng.Intn(gn.cfg.PerGroup)))
	}
	add(group)
	add((group + 1) % gn.cfg.Groups)
	return d
}

// Round returns one delta per group for the given round — a batch with
// pairwise-disjoint footprints at Overlap 0.
func (gn *Generator) Round(round int) []*graph.Delta {
	ds := make([]*graph.Delta, gn.cfg.Groups)
	for w := 0; w < gn.cfg.Groups; w++ {
		ds[w] = gn.Delta(w, round)
	}
	return ds
}

// Sequence returns n deltas, cycling round-robin over the groups.
func (gn *Generator) Sequence(n int) []*graph.Delta {
	ds := make([]*graph.Delta, n)
	for i := 0; i < n; i++ {
		ds[i] = gn.Delta(i%gn.cfg.Groups, i/gn.cfg.Groups)
	}
	return ds
}
