package wal

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphkeys/internal/graph"
)

// TestRefusesV1: testdata/v1 is a directory the version 1 writers left,
// a text snapshot and a GKWALOG1 log. Its log, its snapshot and both
// together each fail Open with an error that names the file, the format
// and the last commit that reads it, and Open leaves every file as it
// was and no temp file beside it. With both, the snapshot is named: it
// is read first.
func TestRefusesV1(t *testing.T) {
	logErr := []string{"is a version 1 log (" + logMagicV1 + ")", "with commit " + lastV1Reader}
	snapErr := []string{"is a version 1 snapshot (" + snapHeaderV1 + ")", "with commit " + lastV1Reader, "call Snapshot"}
	for _, c := range []struct {
		name  string
		files []string
		named string
		want  []string
	}{
		{"log", []string{logName}, logName, logErr},
		{"snapshot", []string{snapName}, snapName, snapErr},
		{"both", []string{snapName, logName}, snapName, snapErr},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			fixture := map[string][]byte{}
			for _, name := range c.files {
				b, err := os.ReadFile(filepath.Join("testdata", "v1", name))
				if err != nil {
					t.Fatal(err)
				}
				fixture[name] = b
				if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			s, err := Open(dir, SyncAlways)
			if err == nil {
				s.Close()
				t.Fatal("Open accepted a version 1 file")
			}
			for _, part := range append(c.want, filepath.Join(dir, c.named)) {
				if !strings.Contains(err.Error(), part) {
					t.Fatalf("Open failed with %q, which does not say %q", err, part)
				}
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				want, ok := fixture[e.Name()]
				if !ok {
					if e.Name() != "wal.lock" {
						t.Fatalf("Open left %s beside the refused files", e.Name())
					}
					continue
				}
				if got, err := os.ReadFile(filepath.Join(dir, e.Name())); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("Open changed %s (%v)", e.Name(), err)
				}
				delete(fixture, e.Name())
			}
			if len(fixture) != 0 {
				t.Fatalf("Open removed %v", slices.Collect(maps.Keys(fixture)))
			}
		})
	}
}

// TestSnapshotReopensAwkwardGraph holds the version 2 snapshot to the
// graph testdata/v1 holds: IDs with colons, quotes and a leading '#', a
// literal with a tab and a newline, an isolated entity and a tombstoned
// one, snapshotted at seq 6 with one record logged after it. The
// directory reopens at seq 7 to the same snapshot graph and pairs, and
// the record replays onto it.
func TestSnapshotReopensAwkwardGraph(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("ns:alb:1", "album").AddEntity("ns:alb:2", "album").AddEntity(`say"hi`, "artist"),
		(&graph.Delta{}).AddEntity("#hash", "person").AddEntity("lonely:1", "person"),
		(&graph.Delta{}).AddValueTriple("ns:alb:1", "name_of", `Say "hi"`).AddTriple("ns:alb:1", "recorded_by", `say"hi`).
			AddValueTriple("ns:alb:2", "name_of", `Say "hi"`).AddTriple("ns:alb:2", "recorded_by", `say"hi`),
		(&graph.Delta{}).AddTriple(`say"hi`, "knows", "#hash").AddValueTriple(`say"hi`, "name_of", "tab\there\nnl"),
		(&graph.Delta{}).AddEntity("gone", "person").AddTriple("gone", "knows", "#hash"),
		(&graph.Delta{}).RemoveEntity("gone"),
	)
	pairs := [][2]string{{"ns:alb:1", "ns:alb:2"}}
	if err := s.WriteSnapshot(g, pairs); err != nil {
		t.Fatal(err)
	}
	logDeltas(t, g, s, (&graph.Delta{}).AddValueTriple("lonely:1", "name_of", "after"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := []string{
		`entity "#hash" "person"`,
		`entity "lonely:1" "person"`,
		`entity "ns:alb:1" "album"`,
		`entity "ns:alb:2" "album"`,
		`entity "say\"hi" "artist"`,
		`triple "ns:alb:1" "name_of" "Say \"hi\"" value=true`,
		`triple "ns:alb:1" "recorded_by" "say\"hi" value=false`,
		`triple "ns:alb:2" "name_of" "Say \"hi\"" value=true`,
		`triple "ns:alb:2" "recorded_by" "say\"hi" value=false`,
		`triple "say\"hi" "knows" "#hash" value=false`,
		`triple "say\"hi" "name_of" "tab\there\nnl" value=true`,
	}

	s, err = Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Seq() != 7 || s.snapSeq != 6 {
		t.Fatalf("reopened at seq %d with the snapshot at %d, want 7 and 6", s.Seq(), s.snapSeq)
	}
	if got := s.SnapshotPairs(); !reflect.DeepEqual(got, pairs) {
		t.Fatalf("pairs %q, want %q", got, pairs)
	}
	rg := s.SnapshotGraph()
	if got := nameLevel(rg); !slices.Equal(got, snapshot) {
		t.Fatalf("snapshot graph\n%q\nwant\n%q", got, snapshot)
	}
	recs := s.Records()
	if len(recs) != 1 || recs[0].Seq != 7 {
		t.Fatalf("records %+v, want the one at seq 7", recs)
	}
	if _, err := rg.ApplyDelta(graph.NewDeltaOps(recs[0].Ops)); err != nil {
		t.Fatal(err)
	}
	if got, want := nameLevel(rg), nameLevel(g); !slices.Equal(got, want) {
		t.Fatalf("replayed graph\n%q\nwant\n%q", got, want)
	}
}

// TestSnapshotByteFlips: every byte of a snapshot is covered, the
// header line included — flipping any one makes Open fail.
func TestSnapshotByteFlips(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	logDeltas(t, g, s,
		(&graph.Delta{}).AddEntity("a", "T").AddEntity("b", "T").AddEntity("lonely", "U").
			AddValueTriple("a", "p", "1").AddValueTriple("b", "p", "1").AddTriple("a", "q", "b"))
	if err := s.WriteSnapshot(g, [][2]string{{"a", "b"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range good {
		flipped := slices.Clone(good)
		flipped[i] ^= 0xff
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(dir, SyncNone); err == nil {
			s.Close()
			t.Fatalf("Open accepted the snapshot with byte %d of %d flipped", i, len(good))
		}
	}
}
