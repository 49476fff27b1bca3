package graphkeys

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphkeys/internal/fixtures"
	"graphkeys/internal/wal"
)

// seedCases are the inputs of the SeedMatcher tests: the chains workload
// and the three hand-written fixtures. Each call builds fresh graphs, as
// a seeded matcher adopts the one it is given.
func seedCases(t *testing.T) map[string]func() (*Graph, *KeySet) {
	return map[string]func() (*Graph, *KeySet){
		"chains": func() (*Graph, *KeySet) { return chainsWorkload(t) },
		"music":  func() (*Graph, *KeySet) { return &Graph{g: fixtures.MusicGraph()}, &KeySet{set: fixtures.MusicKeys()} },
		"company": func() (*Graph, *KeySet) {
			return &Graph{g: fixtures.CompanyGraph()}, &KeySet{set: fixtures.CompanyKeys()}
		},
		"address": func() (*Graph, *KeySet) {
			return &Graph{g: fixtures.AddressGraph()}, &KeySet{set: fixtures.AddressKeys()}
		},
	}
}

func graphText(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// dirState is every file of a WAL directory but the lock, by content.
func dirState(t testing.TB, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[string]string)
	for _, e := range ents {
		if e.Name() == "wal.lock" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		state[e.Name()] = string(b)
	}
	return state
}

// crashCopy is what a kill -9 now would leave: the directory's files as
// they are on disk, with no Close run.
func crashCopy(t testing.TB, dir string) string {
	t.Helper()
	cp := t.TempDir()
	for name, content := range dirState(t, dir) {
		if err := os.WriteFile(filepath.Join(cp, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return cp
}

// assertSeeded checks what a seeded directory holds on disk: a
// header-only log and a version 3 snapshot covering seq 1 that stores
// one star per class of res, k − 1 pairs for a class of k — which is
// what makes OpenMatcher's cross-check run. The pairs are decoded from
// a copy, as the directory is locked.
func assertSeeded(t *testing.T, dir string, res *Result) {
	t.Helper()
	state := dirState(t, dir)
	if len(state) != 2 || len(state["wal.log"]) != 8 {
		t.Fatalf("seeded directory holds %d files, wal.log of %d bytes; want snapshot and an 8-byte wal.log", len(state), len(state["wal.log"]))
	}
	if header, _, _ := strings.Cut(state["snapshot"], "\n"); header != "#gkwal-snapshot v3 seq=1" {
		t.Fatalf("snapshot header %q, want the v3 header at seq 1", header)
	}
	s, err := wal.Open(crashCopy(t, dir), wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	pairs := 0
	for _, c := range res.Classes {
		pairs += len(c) - 1
	}
	if got := len(s.SnapshotPairs()); got != pairs || s.Seq() != 1 {
		t.Fatalf("snapshot at seq %d stores %d pairs, want seq 1 and %d", s.Seq(), got, pairs)
	}
}

// assertReopens opens dir and holds it to the seeded matcher's seq,
// result and graph text.
func assertReopens(t *testing.T, dir string, ks *KeySet, want *Result, wantGraph string) {
	t.Helper()
	re, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Seq() != 1 {
		t.Fatalf("reopened at seq %d, want 1", re.Seq())
	}
	if got := re.Result(); !reflect.DeepEqual(sortedPairs(got.Matches), sortedPairs(want.Matches)) {
		t.Fatalf("reopened matcher holds %d matches, the seeded one %d", len(got.Matches), len(want.Matches))
	}
	if got := graphText(t, re.Graph()); got != wantGraph {
		t.Fatal("reopened graph text differs from the seeded graph's")
	}
}

// TestSeedMatcherContract: SeedMatcher is NewMatcher(g), durable at
// seq 1, after a Close and after a crash alike.
func TestSeedMatcherContract(t *testing.T) {
	for name, build := range seedCases(t) {
		t.Run(name, func(t *testing.T) {
			g, ks := build()
			dir := t.TempDir()
			m, err := SeedMatcher(dir, g, ks, Options{Durability: DurabilityFsync})
			if err != nil {
				t.Fatal(err)
			}
			if m.Seq() != 1 || m.Graph() != g {
				t.Fatalf("seeded matcher at seq %d, adopted the graph passed in: %v", m.Seq(), m.Graph() == g)
			}
			full, err := Match(g, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := m.Result()
			if !reflect.DeepEqual(want.Matches, full.Matches) {
				t.Fatalf("seeded matcher holds %d matches, Match on its graph %d", len(want.Matches), len(full.Matches))
			}
			assertSeeded(t, dir, want)
			wantGraph := graphText(t, g)

			assertReopens(t, crashCopy(t, dir), ks, want, wantGraph)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			assertReopens(t, dir, ks, want, wantGraph)

			// The stored pairs are checked, not carried along: a key set
			// that derives other pairs is refused.
			if len(want.Matches) > 0 {
				other, err := ParseKeys("key Z for nothing {\n\tx -nonexistent-> v*\n}")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := OpenMatcher(dir, other, Options{}); err == nil {
					t.Fatal("seeded snapshot opened under a key set deriving no pairs")
				}
			}

			// The first delta after the seed is seq 2.
			re, err := OpenMatcher(dir, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if _, _, err := re.Apply(NewDelta().AddEntity("seed-test-new", "seedtest")); err != nil {
				t.Fatal(err)
			}
			if re.Seq() != 2 {
				t.Fatalf("first delta after the seed is seq %d, want 2", re.Seq())
			}
		})
	}
}

// TestSeedMatcherAfterTornSeed: a crash before the snapshot's rename
// leaves snapshot.tmp and no snapshot; the directory opens as fresh and
// seeds again to the state a clean seed reaches.
func TestSeedMatcherAfterTornSeed(t *testing.T) {
	g, ks := chainsWorkload(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.tmp"), []byte("#gkwal-snapshot v1 seq=1 pairs=7 isol"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Seq() != 0 || m.Graph().NumEntities() != 0 {
		t.Fatalf("torn seed opened at seq %d with %d entities, want a fresh directory", m.Seq(), m.Graph().NumEntities())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m, err = SeedMatcher(dir, g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantGraph := m.Result(), graphText(t, g)
	assertSeeded(t, dir, want)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	assertReopens(t, dir, ks, want, wantGraph)
}

// TestSeedMatcherRefuses: a directory that holds state is refused with
// the directory as it was — and released, so the next opener gets it.
// Any graph seeds: the snapshot holds every name.
func TestSeedMatcherRefuses(t *testing.T) {
	g, ks := chainsWorkload(t)

	t.Run("not fresh", func(t *testing.T) {
		dir := t.TempDir()
		m, err := OpenMatcher(dir, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Apply(NewDelta().AddEntity("e1", "person")); err != nil {
			t.Fatal(err)
		}
		// Removing it again leaves an empty graph at seq 2: still not fresh.
		if _, _, err := m.Apply(NewDelta().RemoveEntity("e1")); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		before := dirState(t, dir)
		if _, err := SeedMatcher(dir, g, ks, Options{}); err == nil || !strings.Contains(err.Error(), "not fresh") {
			t.Fatalf("SeedMatcher on a directory at seq 2: %v, want a not-fresh error", err)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatal("refused seed changed the directory")
		}
		re, err := OpenMatcher(dir, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Seq() != 2 || re.Graph().NumEntities() != 0 {
			t.Fatalf("after the refused seed: seq %d, %d entities; want 2, 0", re.Seq(), re.Graph().NumEntities())
		}
	})

	// Named for the refusal it replaced: a tab, a newline or a colon
	// in a name seeds and reopens as itself.
	t.Run("tab in entity ID", func(t *testing.T) {
		dir := t.TempDir()
		odd := NewGraph()
		if err := odd.AddEntity("a\tb", "per:son"); err != nil {
			t.Fatal(err)
		}
		if err := odd.AddEntity("#c\n", "person"); err != nil {
			t.Fatal(err)
		}
		if err := odd.AddValueTriple("a\tb", " name\t", "x\ty"); err != nil {
			t.Fatal(err)
		}
		if err := odd.AddEntityTriple("a\tb", "knows", "#c\n"); err != nil {
			t.Fatal(err)
		}
		want := graphNames(odd)
		m, err := SeedMatcher(dir, odd, ks, Options{})
		if err != nil {
			t.Fatalf("SeedMatcher with a tab in an entity ID: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		re, err := OpenMatcher(dir, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		if re.Seq() != 1 {
			t.Fatalf("seq %d after the seed, want 1", re.Seq())
		}
		if got := graphNames(re.Graph()); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened graph:\n%q\nwant\n%q", got, want)
		}
	})

	// A service started without a graph and stopped again leaves an empty
	// snapshot at seq 0: nothing was ever applied, so it is still fresh.
	t.Run("empty snapshot at seq 0 is fresh", func(t *testing.T) {
		dir := t.TempDir()
		m, err := OpenMatcher(dir, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		g2, _ := chainsWorkload(t)
		m, err = SeedMatcher(dir, g2, ks, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		assertSeeded(t, dir, m.Result())
	})
}

// entitySets answers EntitiesWith for every (predicate, value) of the
// sample as sorted sets: internal order is the loader's on one side and
// the delta's on the other.
func entitySets(m *Matcher, sample [][2]string) [][]EntityID {
	out := make([][]EntityID, len(sample))
	for i, pv := range sample {
		out[i] = m.EntitiesWith(pv[0], pv[1])
		sort.Strings(out[i])
	}
	return out
}

// TestSeedMatcherDifferential: a matcher seeded by SeedMatcher and one
// loaded the way binaries before it did — the whole graph as the first
// logged delta, then reopened — answer alike before and after the same
// stream of flips, and end at the same seq.
func TestSeedMatcherDifferential(t *testing.T) {
	g, ks := chainsWorkload(t)
	whole := wholeGraphDelta(g)
	seeded, err := SeedMatcher(t.TempDir(), g, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer seeded.Close()

	oldDir := t.TempDir()
	old, err := OpenMatcher(oldDir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := old.Apply(whole); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if old, err = OpenMatcher(oldDir, ks, Options{}); err != nil {
		t.Fatal(err)
	}
	defer old.Close()

	// Flips and the read sample: value triples of chain entities.
	type flip struct {
		s         EntityID
		pred, obj string
	}
	var flips []flip
	var sample [][2]string
	g.EachTriple(func(s EntityID, pred, obj string, isValue bool) {
		if len(flips) < 24 && isValue && strings.HasPrefix(s, "c_") {
			flips = append(flips, flip{s, pred, obj})
			sample = append(sample, [2]string{pred, obj})
		}
	})
	if len(flips) != 24 {
		t.Fatalf("only %d chain value triples to flip", len(flips))
	}
	agree := func(when string) {
		t.Helper()
		a, b := seeded.Result(), old.Result()
		if len(a.Matches) == 0 || !reflect.DeepEqual(sortedPairs(a.Matches), sortedPairs(b.Matches)) {
			t.Fatalf("%s: seeded matcher holds %d matches, delta-loaded %d", when, len(a.Matches), len(b.Matches))
		}
		for _, p := range a.Matches[:min(len(a.Matches), 64)] {
			if !seeded.Same(p.A, p.B) || !old.Same(p.A, p.B) {
				t.Fatalf("%s: Same(%s, %s) = %v seeded, %v delta-loaded", when, p.A, p.B, seeded.Same(p.A, p.B), old.Same(p.A, p.B))
			}
		}
		for i := 1; i < len(flips); i++ {
			if x, y := flips[i-1].s, flips[i].s; seeded.Same(x, y) != old.Same(x, y) {
				t.Fatalf("%s: Same(%s, %s) differs", when, x, y)
			}
		}
		if got, want := entitySets(seeded, sample), entitySets(old, sample); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: EntitiesWith differs over the sample", when)
		}
		if seeded.Seq() != old.Seq() {
			t.Fatalf("%s: seeded matcher at seq %d, delta-loaded at %d", when, seeded.Seq(), old.Seq())
		}
	}
	agree("after seeding")
	for i, f := range flips {
		ds := []*Delta{NewDelta().RemoveValueTriple(f.s, f.pred, f.obj)}
		if i%2 == 0 {
			ds = append(ds, NewDelta().AddValueTriple(f.s, f.pred, f.obj))
		}
		for _, d := range ds {
			for _, m := range []*Matcher{seeded, old} {
				if _, _, err := m.Apply(d); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	agree("after the flips")
	if want := uint64(1 + 24 + 12); seeded.Seq() != want {
		t.Fatalf("seq %d after a seed and 36 effective deltas, want %d", seeded.Seq(), want)
	}
}
