package graphkeys

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"graphkeys/internal/wal"
)

// snapshotKeys is the key set of testdata/snapshot-v2: persons sharing
// an email are one.
const snapshotKeys = "key P for person {\n x -email-> e*\n}"

// emailGraph is a graph of persons, each with the one email given.
func emailGraph(t *testing.T, emails map[string]string) *Graph {
	t.Helper()
	g := NewGraph()
	for _, id := range slices.Sorted(maps.Keys(emails)) {
		if err := g.AddEntity(id, "person"); err != nil {
			t.Fatal(err)
		}
		if err := g.AddValueTriple(id, "email", emails[id]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// snapshotState reads a WAL directory's snapshot header and stored
// pairs from a copy, as a live matcher locks the directory.
func snapshotState(t *testing.T, dir string) (header string, pairs [][2]string) {
	t.Helper()
	state := dirState(t, dir)
	header, _, _ = strings.Cut(state["snapshot"], "\n")
	s, err := wal.Open(crashCopy(t, dir), wal.SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	return header, s.SnapshotPairs()
}

// TestOpenMatcherReadsV2Snapshot: testdata/snapshot-v2 was written by
// the last build that wrote version 2 snapshots: SeedMatcher over five
// persons, three of them one class (stored as its three pairs), then
// one logged delta that makes a class of two. It reopens with the
// Result that build reported (result.json), and its Snapshot then
// writes version 3: one star per class, 2 + 1 pairs.
func TestOpenMatcherReadsV2Snapshot(t *testing.T) {
	src := filepath.Join("testdata", "snapshot-v2")
	b, err := os.ReadFile(filepath.Join(src, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want Result
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	dir := copyWALDir(t, src)
	if header, pairs := snapshotState(t, dir); header != "#gkwal-snapshot v2 seq=1" || len(pairs) != 3 {
		t.Fatalf("fixture snapshot %q stores %d pairs, want a v2 snapshot storing the class of three as 3 pairs", header, len(pairs))
	}
	ks, err := ParseKeys(snapshotKeys)
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.Result(); m.Seq() != 2 || !reflect.DeepEqual(*got, want) {
		t.Fatalf("reopened at seq %d with %+v, want seq 2 and %+v", m.Seq(), *got, want)
	}
	if err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if header, pairs := snapshotState(t, dir); header != "#gkwal-snapshot v3 seq=2" || len(pairs) != 3 {
		t.Fatalf("snapshot %q stores %d pairs, want v3 at seq 2 storing 2 + 1", header, len(pairs))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenMatcher(dir, ks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Result(); !reflect.DeepEqual(*got, want) {
		t.Fatalf("reopened the v3 snapshot with %+v, want %+v", *got, want)
	}
}

// TestOpenMatcherRefusesStoredPairs: OpenMatcher holds the snapshot's
// pairs to the re-derived fixpoint — {p1, p2, p3} and {p4, p5} — and
// refuses, by name, every set whose closure is not it. "other
// partition" fails only the identification test, "star less an edge"
// only the merge count.
func TestOpenMatcherRefusesStoredPairs(t *testing.T) {
	g := emailGraph(t, map[string]string{"p1": "a", "p2": "a", "p3": "a", "p4": "b", "p5": "b", "p6": "c"})
	ks, err := ParseKeys(snapshotKeys)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		pairs [][2]string
		want  string // in the error; empty: the directory opens
	}{
		{"star", [][2]string{{"p1", "p2"}, {"p1", "p3"}, {"p4", "p5"}}, ""},
		{"every pair", [][2]string{{"p2", "p3"}, {"p1", "p2"}, {"p5", "p4"}, {"p1", "p3"}}, ""},
		{"path", [][2]string{{"p3", "p2"}, {"p2", "p1"}, {"p4", "p5"}}, ""},
		{"other partition", [][2]string{{"p1", "p2"}, {"p3", "p4"}, {"p3", "p5"}}, `("p3", "p4") is not identified`},
		{"star less an edge", [][2]string{{"p1", "p2"}, {"p4", "p5"}}, "merge 2 times, re-deriving the fixpoint 3"},
		{"repeated edge", [][2]string{{"p1", "p2"}, {"p2", "p1"}, {"p4", "p5"}}, "merge 2 times, re-deriving the fixpoint 3"},
		{"unknown label", [][2]string{{"p1", "p2"}, {"p1", "nobody"}, {"p4", "p5"}}, `("p1", "nobody") names no entity`},
		{"value label", [][2]string{{"p1", "p2"}, {"p1", "a"}, {"p4", "p5"}}, `("p1", "a") names no entity`},
		{"one entity twice", [][2]string{{"p1", "p1"}, {"p1", "p2"}, {"p1", "p3"}, {"p4", "p5"}}, `("p1", "p1") names one entity twice`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := wal.Open(dir, wal.SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.WriteSeed(g.g, tc.pairs); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			m, err := OpenMatcher(dir, ks, Options{})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("the closure of %v is the fixpoint, yet: %v", tc.pairs, err)
			case tc.want == "":
				m.Close()
			case err == nil:
				m.Close()
				t.Fatalf("opened with stored pairs %v", tc.pairs)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("error %q, want it to say %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotLinearInClassSize: the snapshot stores a class of k
// entities as k − 1 pairs, so its size and its check grow linearly in
// k. One class of k ∈ {2, 64, 512} sits beside 2 000 singletons; the
// log reports the snapshot's bytes and the seed and open times.
func TestSnapshotLinearInClassSize(t *testing.T) {
	ks, err := ParseKeys(snapshotKeys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 64, 512} {
		t.Run(fmt.Sprint("k=", k), func(t *testing.T) {
			emails := make(map[string]string)
			for i := range k {
				emails[fmt.Sprintf("c%d", i)] = "shared"
			}
			for i := range 2000 {
				emails[fmt.Sprintf("s%d", i)] = fmt.Sprintf("own%d", i)
			}
			g := emailGraph(t, emails)
			dir := t.TempDir()
			start := time.Now()
			m, err := SeedMatcher(dir, g, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seed := time.Since(start)
			if header, pairs := snapshotState(t, dir); header != "#gkwal-snapshot v3 seq=1" || len(pairs) != k-1 {
				t.Fatalf("snapshot %q stores %d pairs, want v3 storing k − 1 = %d", header, len(pairs), k-1)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			start = time.Now()
			re, err := OpenMatcher(dir, ks, Options{})
			if err != nil {
				t.Fatal(err)
			}
			open := time.Since(start)
			defer re.Close()
			if classes := re.Result().Classes; len(classes) != 1 || len(classes[0]) != k {
				t.Fatalf("reopened with %d classes, want one of %d", len(classes), k)
			}
			st, err := os.Stat(filepath.Join(dir, "snapshot"))
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("k=%d: snapshot %d B, seed %v, open %v", k, st.Size(), seed, open)
		})
	}
}
