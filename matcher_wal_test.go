package graphkeys

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"graphkeys/internal/testutil"
)

// walGen is the shared-generator configuration of the WAL tests: a
// value-anchored key and a recursive key (Bands), entity churn, and
// coalescing ops, so the replayed fixpoint exercises every repair
// path and the log sees partially-coalescing deltas.
func walGen(seed int64) *testutil.Generator {
	return testutil.New(testutil.Config{
		Seed:        seed,
		Groups:      3,
		PerGroup:    8,
		Bands:       true,
		EntityChurn: true,
		Coalesce:    true,
	})
}

func walFixtureKeys(t *testing.T, gen *testutil.Generator) *KeySet {
	t.Helper()
	ks, err := ParseKeys(gen.Keys())
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// sortedPairs normalizes matches into sorted {min, max} label pairs,
// the ID-order-independent form of chase(G, Σ).
func sortedPairs(ms []Pair) []Pair {
	out := make([]Pair, len(ms))
	for i, m := range ms {
		if m.A > m.B {
			m.A, m.B = m.B, m.A
		}
		out[i] = m
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// runCrashReplay streams random generated deltas through a durable
// matcher with fsync'd WAL (optionally snapshotting midway), drops the
// in-memory state, reopens the directory, and asserts the
// reconstruction. Without a snapshot the replayed matcher is
// byte-identical down to the dense node IDs, so the raw Matches lists
// must match exactly; with a snapshot the graph text is still
// byte-identical but IDs renumber from the canonical snapshot order,
// so pairs compare as sorted label pairs.
func runCrashReplay(t *testing.T, snapshotMidway bool) {
	const rounds = 30
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)

	m, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	for round, gd := range gen.Sequence(rounds) {
		if _, _, err := m.Apply(wrapDelta(gd)); err != nil {
			t.Fatal(err)
		}
		if snapshotMidway && round == rounds/2 {
			if err := m.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wantMatches := m.Result().Matches
	var wantGraph bytes.Buffer
	if err := m.Graph().Write(&wantGraph); err != nil {
		t.Fatal(err)
	}
	// Drop the in-memory state without any graceful shutdown: the
	// fsync'd WAL is all that survives.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m = nil

	re, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var gotGraph bytes.Buffer
	if err := re.Graph().Write(&gotGraph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotGraph.Bytes(), wantGraph.Bytes()) {
		t.Fatalf("replayed graph diverges:\ngot:\n%s\nwant:\n%s", gotGraph.String(), wantGraph.String())
	}
	gotMatches := re.Result().Matches
	if snapshotMidway {
		if !reflect.DeepEqual(sortedPairs(gotMatches), sortedPairs(wantMatches)) {
			t.Fatalf("replayed chase pairs diverge:\ngot:  %v\nwant: %v", gotMatches, wantMatches)
		}
	} else if !reflect.DeepEqual(gotMatches, wantMatches) {
		t.Fatalf("replayed chase pairs not byte-identical:\ngot:  %v\nwant: %v", gotMatches, wantMatches)
	}

	// And the replayed fixpoint equals a from-scratch chase of the
	// reconstructed graph (the usual differential closure).
	full, err := Match(re.Graph(), ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(re.Result().Matches, full.Matches) {
		t.Fatal("replayed incremental state diverges from full re-chase")
	}
}

// TestCrashReplayDifferential is the crash-replay differential test
// over the pure log: replay reconstructs byte-identical chase pairs.
func TestCrashReplayDifferential(t *testing.T) { runCrashReplay(t, false) }

// TestCrashReplayDifferentialSnapshot covers the compaction path: a
// snapshot midway, then more logged deltas, then crash and reopen.
func TestCrashReplayDifferentialSnapshot(t *testing.T) { runCrashReplay(t, true) }

// TestNoopDeltaWritesNoWALRecord pins the coalescing/WAL contract: a
// delta that normalizes to a no-op leaves the log byte-identical.
func TestNoopDeltaWritesNoWALRecord(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)
	m, err := OpenMatcher(dir, ks, Options{Durability: DurabilityFsync})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "wal.log")
	before, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	noop := NewDelta().
		AddValueTriple("g0-p0", "scratch", "v").
		AddValueTriple("g0-p0", "scratch", "v"). // dup
		RemoveValueTriple("g0-p0", "scratch", "v")
	if _, _, err := m.Apply(noop); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("no-op delta grew the WAL by %d bytes", len(after)-len(before))
	}
}

// TestSnapshotKeepsTriplelessEntities is the matcher-level regression
// for snapshot compaction: an entity with no incident triples must
// survive Snapshot + reopen and accept triples afterwards.
func TestSnapshotKeepsTriplelessEntities(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(NewDelta().AddEntity("lonely", "person")); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	re, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, ok := re.Graph().HasEntity("lonely"); !ok {
		t.Fatal("tripleless entity lost by snapshot compaction")
	}
	// The seed gives g0-p0 the email g0-mail0; joining that collision
	// class identifies lonely with it.
	if _, _, err := re.Apply(NewDelta().
		AddValueTriple("lonely", "email", "g0-mail0").
		AddValueTriple("g0-p0", "email", "g0-mail0")); err != nil {
		t.Fatalf("triple on revived entity: %v", err)
	}
	if !re.Same("lonely", "g0-p0") {
		t.Fatal("revived entity did not join g0-p0's class")
	}
}

// TestSnapshotRefusesUnreadableNames: a name a delta accepts either
// survives Snapshot and reopen, or Snapshot refuses before writing
// anything and the log, still whole, reopens with the name intact. The
// refused cases are the names the snapshot text would rename, drop or
// fail to read back; the accepted ones are their harmless neighbours.
func TestSnapshotRefusesUnreadableNames(t *testing.T) {
	ks := walFixtureKeys(t, walGen(7))
	for _, c := range []struct {
		name    string
		d       *Delta
		refused bool
	}{
		{"colon in a type", NewDelta().AddEntity("e1", "a:b").AddValueTriple("e1", "p", "v"), true},
		{"leading space on an ID", NewDelta().AddEntity(" e1", "T").AddValueTriple(" e1", "p", "v"), true},
		{"trailing space on a type", NewDelta().AddEntity("e1", "T ").AddValueTriple("e1", "p", "v"), true},
		{"space around a predicate", NewDelta().AddEntity("e1", "T").AddValueTriple("e1", " p", "v"), true},
		{"subject ID starting with #", NewDelta().AddEntity("#e1", "T").AddValueTriple("#e1", "p", "v"), true},
		{"object ID starting with a quote", NewDelta().AddEntity("a", "T").AddEntity(`"q`, "T").AddEntityTriple("a", "rel", `"q`), true},
		{"colons and a trailing space in an ID", NewDelta().AddEntity("ns:e1 ", "T").AddValueTriple("ns:e1 ", "p", "v"), false},
		{"subject ID starting with a quote", NewDelta().AddEntity(`"q`, "T").AddValueTriple(`"q`, "p", "v"), false},
		{"object ID starting with #", NewDelta().AddEntity("a", "T").AddEntity("#e1", "T").AddEntityTriple("a", "rel", "#e1"), false},
		{"isolated entity starting with #", NewDelta().AddEntity("#e1", "T"), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := OpenMatcher(dir, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := m.Apply(c.d); err != nil {
				t.Fatal(err)
			}
			want := graphNames(m.Graph())
			snapErr := m.Snapshot()
			if refused := snapErr != nil; refused != c.refused {
				t.Fatalf("Snapshot: %v, want refused %v", snapErr, c.refused)
			}
			if _, serr := os.Stat(filepath.Join(dir, "snapshot.tmp")); !os.IsNotExist(serr) {
				t.Fatalf("Snapshot left a temp file: %v", serr)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := OpenMatcher(dir, ks, Options{})
			if err != nil {
				t.Fatalf("reopening after Snapshot returned %v: %v", snapErr, err)
			}
			defer re.Close()
			if got := graphNames(re.Graph()); !reflect.DeepEqual(got, want) {
				t.Fatalf("reopened graph:\n%q\nwant\n%q", got, want)
			}
		})
	}
}

// graphNames lists a graph's entities and triples by name, sorted.
func graphNames(g *Graph) []string {
	var out []string
	g.EachEntity(func(id EntityID, typeName string) {
		out = append(out, fmt.Sprintf("entity %q %q", id, typeName))
	})
	g.EachTriple(func(s EntityID, p, o string, isValue bool) {
		out = append(out, fmt.Sprintf("triple %q %q %q value=%v", s, p, o, isValue))
	})
	sort.Strings(out)
	return out
}

// TestOpenMatcherDetectsSnapshotMismatch: a snapshot taken under one
// key set must refuse to open under a key set deriving different
// pairs.
func TestOpenMatcherDetectsSnapshotMismatch(t *testing.T) {
	dir := t.TempDir()
	gen := walGen(7)
	ks := walFixtureKeys(t, gen)
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Apply(wrapDelta(gen.Seed())); err != nil {
		t.Fatal(err)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	m.Close()

	other, err := ParseKeys(`key Z for person {
		x -nonexistent-> v*
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMatcher(dir, other, Options{}); err == nil {
		t.Fatal("snapshot under a different key set opened without error")
	}
}
